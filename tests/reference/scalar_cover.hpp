#pragma once

// Test-side Statement-4 reference: the per-case popcount evaluation the
// bit-sliced cover kernel (src/core/coverkernel.hpp) must agree with, bit
// for bit. Deliberately written from the definitions alone — a parity
// function covers a case iff it has odd overlap with the difference word
// of SOME recorded step — with no use of the production helpers.

#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "core/extract.hpp"
#include "core/parity.hpp"

namespace ced::reference {

using core::DetectabilityTable;
using core::ErroneousCase;
using core::ParityFunc;

/// True iff `beta` covers the case: odd overlap at some step.
inline bool ref_covers(ParityFunc beta, const ErroneousCase& ec) {
  for (int k = 0; k < ec.length; ++k) {
    if (std::popcount(beta & ec.diff[static_cast<std::size_t>(k)]) & 1) {
      return true;
    }
  }
  return false;
}

/// True iff some function of the set covers the case.
inline bool ref_covers(std::span<const ParityFunc> betas,
                       const ErroneousCase& ec) {
  for (const ParityFunc b : betas) {
    if (ref_covers(b, ec)) return true;
  }
  return false;
}

/// Identity row list 0..m-1 over the table.
inline std::vector<std::uint32_t> all_rows(const DetectabilityTable& t) {
  std::vector<std::uint32_t> rows(t.cases.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<std::uint32_t>(i);
  }
  return rows;
}

/// Positions (into `rows`) of the rows the set does not cover, ascending —
/// the local-index form CoverKernel::uncovered reports.
inline std::vector<std::uint32_t> ref_uncovered(
    std::span<const ParityFunc> betas, const DetectabilityTable& t,
    std::span<const std::uint32_t> rows) {
  std::vector<std::uint32_t> out;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!ref_covers(betas, t.cases[rows[r]])) {
      out.push_back(static_cast<std::uint32_t>(r));
    }
  }
  return out;
}

/// Full-table form: table row indices not covered by the set.
inline std::vector<std::uint32_t> ref_uncovered(
    std::span<const ParityFunc> betas, const DetectabilityTable& t) {
  return ref_uncovered(betas, t, all_rows(t));
}

/// Covered bitmap of `beta` over `rows`: bit r of word r/64 set iff
/// rows[r] is covered; padding bits beyond rows.size() stay 0.
inline std::vector<std::uint64_t> ref_cover_bitmap(
    ParityFunc beta, const DetectabilityTable& t,
    std::span<const std::uint32_t> rows) {
  std::vector<std::uint64_t> bits((rows.size() + 63) / 64, 0);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (ref_covers(beta, t.cases[rows[r]])) {
      bits[r >> 6] |= std::uint64_t{1} << (r & 63);
    }
  }
  return bits;
}

/// Number of rows (of `rows`) covered by `beta`.
inline std::size_t ref_count(ParityFunc beta, const DetectabilityTable& t,
                             std::span<const std::uint32_t> rows) {
  std::size_t c = 0;
  for (const std::uint32_t r : rows) c += ref_covers(beta, t.cases[r]) ? 1 : 0;
  return c;
}

/// Per-candidate cover bitmaps for a whole beta list over the full table.
inline std::vector<std::vector<std::uint64_t>> ref_cover_bitmaps(
    std::span<const ParityFunc> betas, const DetectabilityTable& t) {
  const auto rows = all_rows(t);
  std::vector<std::vector<std::uint64_t>> out;
  out.reserve(betas.size());
  for (const ParityFunc b : betas) out.push_back(ref_cover_bitmap(b, t, rows));
  return out;
}

/// The original O(q^2 * m) redundancy prune: try removing each function
/// from the back and keep the removal when the rest still covers every
/// case.
inline std::vector<ParityFunc> ref_prune(std::span<const ParityFunc> betas,
                                         const DetectabilityTable& t) {
  std::vector<ParityFunc> kept(betas.begin(), betas.end());
  for (std::size_t i = kept.size(); i-- > 0;) {
    std::vector<ParityFunc> trial;
    trial.reserve(kept.size() - 1);
    for (std::size_t j = 0; j < kept.size(); ++j) {
      if (j != i) trial.push_back(kept[j]);
    }
    if (ref_uncovered(trial, t).empty()) kept = std::move(trial);
  }
  return kept;
}

/// Brute-force minimum cover size over every set of distinct nonzero
/// betas (n <= ~6 and small q only): the smallest q for which some
/// q-subset of the 2^n - 1 candidates covers the table; -1 when none
/// within `max_q` does.
inline int ref_min_cover_size(const DetectabilityTable& t, int max_q) {
  if (t.cases.empty()) return 0;
  const std::uint64_t num = (std::uint64_t{1} << t.num_bits) - 1;
  std::vector<ParityFunc> pick;
  // Depth-first over ascending candidate tuples of exactly q functions.
  auto search = [&](auto&& self, std::uint64_t next, int q) -> bool {
    if (static_cast<int>(pick.size()) == q) {
      return ref_uncovered(pick, t).empty();
    }
    for (std::uint64_t b = next; b <= num; ++b) {
      pick.push_back(b);
      if (self(self, b + 1, q)) return true;
      pick.pop_back();
    }
    return false;
  };
  for (int q = 1; q <= max_q; ++q) {
    pick.clear();
    if (search(search, 1, q)) return q;
  }
  return -1;
}

/// Random table in canonical form: each case is a sorted set of 1..max_len
/// distinct nonzero difference words over n bits.
inline DetectabilityTable random_table(std::mt19937_64& rng, int n,
                                       std::size_t m, int max_len) {
  DetectabilityTable t;
  t.num_bits = n;
  t.latency = max_len;
  const std::uint64_t mask =
      n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  std::uniform_int_distribution<int> len_dist(1, max_len);
  while (t.cases.size() < m) {
    std::set<std::uint64_t> words;
    const int len = len_dist(rng);
    for (int k = 0; k < len; ++k) {
      const std::uint64_t w = rng() & mask;
      if (w != 0) words.insert(w);
    }
    if (words.empty()) continue;
    ErroneousCase ec;
    ec.length = static_cast<std::uint8_t>(words.size());
    std::size_t k = 0;
    for (const std::uint64_t w : words) ec.diff[k++] = w;
    t.cases.push_back(ec);
  }
  return t;
}

/// Random nonzero beta over n bits.
inline ParityFunc random_beta(std::mt19937_64& rng, int n) {
  const std::uint64_t mask =
      n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  const std::uint64_t beta = rng() & mask;
  return beta != 0 ? beta : 1;
}

}  // namespace ced::reference
