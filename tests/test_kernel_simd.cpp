// SIMD cover-kernel backend (core/kernel_engine.hpp, common/cpu.hpp):
// every query — counts, bitmaps, cursor flips, batched neighborhood
// probes, whole-set batch passes — must return the exact bits of the
// test-side scalar reference (tests/reference/scalar_cover.hpp), on
// tail-word shapes (rows % 64 != 0) and the n = 64 full-mask edge, both on
// the host's vector engine and with the vector unit forcibly disabled
// (ScopedSimdLevel) so the dispatch fallback is proven on every host.

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <vector>

#include "common/cpu.hpp"
#include "core/algorithm1.hpp"
#include "core/coverkernel.hpp"
#include "core/greedy.hpp"
#include "core/kernel_engine.hpp"
#include "core/parity.hpp"
#include "reference/scalar_cover.hpp"

namespace ced::core {
namespace {

using reference::random_beta;
using reference::random_table;
using reference::ref_count;
using reference::ref_cover_bitmap;
using reference::ref_uncovered;

/// The host's vector engine and the universal scalar word loop.
const SimdLevel kLevels[] = {detected_simd_level(), SimdLevel::kNone};

// Tail words (rows % 64 != 0), a single-row table, and the n = 64
// full-mask edge; lengths span 1..kMaxLatency.
struct Shape {
  int n;
  std::size_t m;
  int max_len;
};
const Shape kShapes[] = {
    {5, 9, 1},  {13, 64, 2},          {31, 130, 3},
    {64, 1, 4}, {64, 193, kMaxLatency},
};

TEST(KernelSimd, CountsAndBitmapsIdenticalAcrossModes) {
  std::mt19937_64 rng(41);
  for (const Shape& s : kShapes) {
    const DetectabilityTable t = random_table(rng, s.n, s.m, s.max_len);
    const auto rows = reference::all_rows(t);
    std::vector<ParityFunc> betas;
    for (int i = 0; i < 24; ++i) betas.push_back(random_beta(rng, s.n));

    for (const SimdLevel level : kLevels) {
      const ScopedSimdLevel cap(level);
      const CoverKernel k(t);
      std::vector<std::uint64_t> bits(k.num_words());
      for (const ParityFunc beta : betas) {
        EXPECT_EQ(k.coverage_count(beta), ref_count(beta, t, rows))
            << to_string(level) << " n=" << s.n << " m=" << s.m;
        k.covered_bitmap(beta, bits.data());
        EXPECT_EQ(bits, ref_cover_bitmap(beta, t, rows))
            << to_string(level) << " n=" << s.n << " beta=" << beta;
      }
      EXPECT_EQ(k.covers_all(betas), ref_uncovered(betas, t).empty());
    }
  }
}

TEST(KernelSimd, BatchMatchesPerBetaLoopInEveryMode) {
  std::mt19937_64 rng(43);
  for (const Shape& s : kShapes) {
    const DetectabilityTable t = random_table(rng, s.n, s.m, s.max_len);
    const auto rows = reference::all_rows(t);
    std::vector<ParityFunc> betas;
    for (int i = 0; i < 17; ++i) betas.push_back(random_beta(rng, s.n));
    // Reference: per-beta bitmaps, counts and their union.
    const auto ref_bits = reference::ref_cover_bitmaps(betas, t);
    const std::size_t W = (t.cases.size() + 63) / 64;
    std::vector<std::uint64_t> want_flat, want_acc(W, 0);
    std::vector<std::size_t> want_counts;
    for (const auto& b : ref_bits) {
      want_flat.insert(want_flat.end(), b.begin(), b.end());
      for (std::size_t w = 0; w < W; ++w) want_acc[w] |= b[w];
    }
    for (const ParityFunc beta : betas) {
      want_counts.push_back(ref_count(beta, t, rows));
    }

    for (const SimdLevel level : kLevels) {
      const ScopedSimdLevel cap(level);
      const CoverKernel k(t);
      ASSERT_EQ(k.num_words(), W);
      CoverBatch batch(k);

      std::vector<std::size_t> got_counts(betas.size());
      batch.counts(betas, got_counts);
      EXPECT_EQ(got_counts, want_counts) << to_string(level) << " n=" << s.n;
      std::vector<std::uint64_t> got_bits(betas.size() * W);
      batch.bitmaps(betas, got_bits.data());
      EXPECT_EQ(got_bits, want_flat) << to_string(level) << " n=" << s.n;
      std::vector<std::uint64_t> got_acc(W, 0), loop_acc(W, 0);
      batch.or_covered(betas, got_acc.data());
      EXPECT_EQ(got_acc, want_acc) << to_string(level);
      for (const ParityFunc beta : betas) {
        k.accumulate_covered(beta, loop_acc.data());
      }
      EXPECT_EQ(loop_acc, want_acc) << to_string(level);
      EXPECT_EQ(batch.uncovered_count(betas), ref_uncovered(betas, t).size())
          << to_string(level);

      const CoverBatch::Evaluation ev = batch.evaluate_many(betas);
      EXPECT_EQ(ev.counts, want_counts) << to_string(level);
      EXPECT_EQ(ev.bitmaps, want_flat) << to_string(level);
    }
  }
}

TEST(KernelSimd, CursorFlipsAndNeighborCountsIdenticalAcrossModes) {
  std::mt19937_64 rng(47);
  for (const Shape& s : kShapes) {
    const DetectabilityTable t = random_table(rng, s.n, s.m, s.max_len);
    const auto rows = reference::all_rows(t);
    // The same flip schedule replayed under every level.
    std::vector<int> flips;
    for (int i = 0; i < 60; ++i) {
      flips.push_back(static_cast<int>(rng() % static_cast<unsigned>(s.n)));
    }
    std::vector<std::uint64_t> base((t.cases.size() + 63) / 64);
    for (auto& w : base) w = rng();
    // Padding bits beyond the real rows must not count.
    if (t.cases.size() % 64 != 0) {
      base.back() &= (std::uint64_t{1} << (t.cases.size() % 64)) - 1;
    }

    for (const SimdLevel level : kLevels) {
      const ScopedSimdLevel cap(level);
      const CoverKernel k(t);
      BetaCursor cur(k, 1);
      ParityFunc beta = 1;
      for (const int j : flips) {
        if (cur.beta() == (std::uint64_t{1} << j)) continue;  // keep beta != 0
        cur.flip(j);
        beta ^= std::uint64_t{1} << j;
        ASSERT_EQ(cur.beta(), beta);
        EXPECT_EQ(cur.covered_count(), ref_count(beta, t, rows))
            << to_string(level) << " n=" << s.n;
      }
      std::vector<std::uint64_t> acc(k.num_words(), 0);
      cur.or_covered_into(acc.data());
      EXPECT_EQ(acc, ref_cover_bitmap(beta, t, rows)) << to_string(level);

      std::vector<std::size_t> neigh(static_cast<std::size_t>(s.n));
      cur.neighbor_counts(neigh);
      std::vector<std::size_t> neigh_base(static_cast<std::size_t>(s.n));
      cur.neighbor_counts(neigh_base, base.data());
      for (int j = 0; j < s.n; ++j) {
        const ParityFunc nb = beta ^ (std::uint64_t{1} << j);
        EXPECT_EQ(neigh[static_cast<std::size_t>(j)], ref_count(nb, t, rows))
            << to_string(level) << " j=" << j;
        auto bits = ref_cover_bitmap(nb, t, rows);
        std::size_t with_base = 0;
        for (std::size_t w = 0; w < bits.size(); ++w) {
          with_base += static_cast<std::size_t>(std::popcount(bits[w] | base[w]));
        }
        EXPECT_EQ(neigh_base[static_cast<std::size_t>(j)], with_base)
            << to_string(level) << " j=" << j;
      }
    }
  }
}

TEST(KernelSimd, ForcedFallbackMatchesVectorBackend) {
  std::mt19937_64 rng(53);
  const DetectabilityTable t = random_table(rng, 22, 517, 3);
  std::vector<ParityFunc> betas;
  for (int i = 0; i < 12; ++i) betas.push_back(random_beta(rng, 22));

  std::vector<std::size_t> native_counts(betas.size());
  std::vector<std::uint64_t> native_bits;
  {
    const CoverKernel k(t);
    EXPECT_EQ(&k.engine(), &detail::kernel_ops(detected_simd_level()));
    CoverBatch batch(k);
    batch.counts(betas, native_counts);
    native_bits.resize(betas.size() * k.num_words());
    batch.bitmaps(betas, native_bits.data());
  }
  {
    // Cap the dispatch at kNone: the kernel must capture the universal
    // scalar word engine.
    const ScopedSimdLevel cap(SimdLevel::kNone);
    ASSERT_EQ(simd_level(), SimdLevel::kNone);
    const CoverKernel k(t);
    EXPECT_EQ(&k.engine(), &detail::kernel_ops(SimdLevel::kNone));
    CoverBatch batch(k);
    std::vector<std::size_t> counts(betas.size());
    batch.counts(betas, counts);
    EXPECT_EQ(counts, native_counts);
    std::vector<std::uint64_t> bits(betas.size() * k.num_words());
    batch.bitmaps(betas, bits.data());
    EXPECT_EQ(bits, native_bits);
  }
  // The cap is restored on scope exit.
  EXPECT_EQ(simd_level(), detected_simd_level());
}

TEST(KernelSimd, SubsetKernelIdenticalAcrossModes) {
  std::mt19937_64 rng(59);
  const DetectabilityTable t = random_table(rng, 18, 300, 3);
  std::vector<std::uint32_t> rows;
  for (int i = 0; i < 77; ++i) {
    rows.push_back(static_cast<std::uint32_t>(rng() % t.cases.size()));
  }
  std::vector<ParityFunc> betas = {random_beta(rng, 18),
                                   random_beta(rng, 18),
                                   random_beta(rng, 18)};
  const auto want = ref_uncovered(betas, t, rows);
  for (const SimdLevel level : kLevels) {
    const ScopedSimdLevel cap(level);
    const CoverKernel k(t, rows);
    EXPECT_EQ(k.uncovered(betas), want) << to_string(level);
    CoverBatch batch(k);
    EXPECT_EQ(batch.uncovered_count(betas), want.size()) << to_string(level);
  }
}

TEST(KernelSimd, SolversIdenticalAcrossModesAndThreads) {
  std::mt19937_64 rng(61);
  const DetectabilityTable t = random_table(rng, 16, 900, 3);
  Algorithm1Options opts;
  opts.iter = 6;
  opts.row_rounds = 2;

  std::vector<ParityFunc> ref_algo1, ref_greedy;
  for (const int threads : {1, 4}) {
    opts.threads = threads;
    for (const SimdLevel level : kLevels) {
      const ScopedSimdLevel cap(level);
      const auto sol = minimize_parity_functions(t, opts);
      const auto greedy = greedy_cover(t);
      EXPECT_TRUE(ref_uncovered(sol, t).empty()) << to_string(level);
      EXPECT_TRUE(ref_uncovered(greedy, t).empty()) << to_string(level);
      if (ref_algo1.empty()) {
        ref_algo1 = sol;
        ref_greedy = greedy;
      } else {
        EXPECT_EQ(sol, ref_algo1)
            << to_string(level) << " threads=" << threads;
        EXPECT_EQ(greedy, ref_greedy)
            << to_string(level) << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace ced::core
