// Bit-sliced cover kernel (core/coverkernel.hpp): randomized equivalence
// against the test-side scalar Statement-4 reference
// (tests/reference/scalar_cover.hpp) under the detected vector engine and
// the forced scalar word loop, condensation soundness, and SIMD-level /
// thread-count result identity for every solver that routes through the
// kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <set>
#include <vector>

#include "benchdata/suite.hpp"
#include "common/cpu.hpp"
#include "core/algorithm1.hpp"
#include "core/coverkernel.hpp"
#include "core/exact.hpp"
#include "core/extract.hpp"
#include "core/greedy.hpp"
#include "core/parity.hpp"
#include "core/pipeline.hpp"
#include "fsm/synthesize.hpp"
#include "reference/scalar_cover.hpp"
#include "sim/faults.hpp"

namespace ced::core {
namespace {

using reference::random_beta;
using reference::random_table;
using reference::ref_count;
using reference::ref_uncovered;

/// The dispatch levels every kernel result must be identical under: the
/// host's vector engine and the universal scalar word loop.
const SimdLevel kLevels[] = {detected_simd_level(), SimdLevel::kNone};

DetectabilityTable suite_table(const std::string& name, int p) {
  const fsm::Fsm f = benchdata::suite_fsm(name);
  const fsm::FsmCircuit c =
      fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = p;
  opts.threads = 1;
  return extract_cases(c, faults, opts);
}

// Sizes cross the 64-row word boundary and include the n = 64 full-mask
// edge; lengths span 1..kMaxLatency.
struct Shape {
  int n;
  std::size_t m;
  int max_len;
};
const Shape kShapes[] = {
    {4, 7, 1},   {12, 64, 2},        {33, 130, 3},
    {64, 1, 4},  {64, 200, kMaxLatency},
};

TEST(CoverKernel, MatchesScalarOnRandomTables) {
  for (const SimdLevel level : kLevels) {
    const ScopedSimdLevel cap(level);
    std::mt19937_64 rng(1);
    for (const Shape& s : kShapes) {
      const DetectabilityTable t = random_table(rng, s.n, s.m, s.max_len);
      const auto rows = reference::all_rows(t);
      const CoverKernel kernel(t);
      ASSERT_EQ(kernel.num_rows(), t.cases.size());
      ASSERT_EQ(kernel.num_bits(), s.n);

      std::vector<ParityFunc> set;
      for (int i = 0; i < 16; ++i) {
        const ParityFunc beta = random_beta(rng, s.n);
        set.push_back(beta);
        EXPECT_EQ(kernel.coverage_count(beta), ref_count(beta, t, rows))
            << to_string(level) << " n=" << s.n << " m=" << s.m
            << " beta=" << beta;
        std::vector<std::uint64_t> bitmap(kernel.num_words());
        kernel.covered_bitmap(beta, bitmap.data());
        EXPECT_EQ(bitmap, reference::ref_cover_bitmap(beta, t, rows))
            << to_string(level) << " n=" << s.n << " beta=" << beta;
      }
      // Set queries: the kernel and the production one-shot helpers
      // against the reference.
      const auto want = ref_uncovered(set, t);
      EXPECT_EQ(kernel.uncovered(set), want) << to_string(level);
      EXPECT_EQ(uncovered_cases(set, t), want) << to_string(level);
      EXPECT_EQ(kernel.uncovered_count(set), want.size()) << to_string(level);
      EXPECT_EQ(kernel.covers_all(set), want.empty()) << to_string(level);
      EXPECT_EQ(covers_all(set, t), want.empty()) << to_string(level);
    }
  }
}

TEST(CoverKernel, SubsetKernelMatchesScalarAmong) {
  for (const SimdLevel level : kLevels) {
    const ScopedSimdLevel cap(level);
    std::mt19937_64 rng(2);
    const DetectabilityTable t = random_table(rng, 20, 300, 3);
    // Random subset with duplicates, in random order.
    std::vector<std::uint32_t> rows;
    for (int i = 0; i < 90; ++i) {
      rows.push_back(static_cast<std::uint32_t>(rng() % t.cases.size()));
    }
    const CoverKernel kernel(t, rows);
    ASSERT_EQ(kernel.num_rows(), rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(kernel.global_row(static_cast<std::uint32_t>(r)), rows[r]);
    }
    for (int i = 0; i < 8; ++i) {
      std::vector<ParityFunc> set = {random_beta(rng, 20),
                                     random_beta(rng, 20)};
      const auto want = ref_uncovered(set, t, rows);
      EXPECT_EQ(kernel.uncovered(set), want) << to_string(level);
    }
  }
}

TEST(BetaCursor, FlipMatchesFreshEvaluation) {
  for (const SimdLevel level : kLevels) {
    const ScopedSimdLevel cap(level);
    std::mt19937_64 rng(3);
    for (const Shape& s : kShapes) {
      const DetectabilityTable t = random_table(rng, s.n, s.m, s.max_len);
      const auto rows = reference::all_rows(t);
      const CoverKernel kernel(t);
      BetaCursor cur(kernel, 0);
      ParityFunc beta = 0;
      for (int step = 0; step < 200; ++step) {
        const int j = static_cast<int>(rng() % static_cast<unsigned>(s.n));
        cur.flip(j);
        beta ^= std::uint64_t{1} << j;
        ASSERT_EQ(cur.beta(), beta);
        ASSERT_EQ(cur.covered_count(), ref_count(beta, t, rows))
            << to_string(level) << " n=" << s.n << " after flip " << step;
      }
    }
  }
}

TEST(Condense, RemovedRowsAreDominatedByKeptRows) {
  std::mt19937_64 rng(4);
  // Low-entropy words so subset relations actually occur.
  const DetectabilityTable t = random_table(rng, 3, 400, kMaxLatency);
  const CondensedTable cond = condense_table(t);
  ASSERT_EQ(cond.kept_rows.size(), cond.table.cases.size());
  ASSERT_EQ(cond.removed + cond.table.cases.size(), t.cases.size());
  EXPECT_GT(cond.removed, 0u);  // with 7 possible words, dominance is certain

  // Back-map is consistent.
  for (std::size_t i = 0; i < cond.kept_rows.size(); ++i) {
    EXPECT_EQ(cond.table.cases[i], t.cases[cond.kept_rows[i]]);
  }
  // Every removed row strictly contains some kept row's word set.
  std::set<std::uint32_t> kept(cond.kept_rows.begin(), cond.kept_rows.end());
  auto words_of = [](const ErroneousCase& ec) {
    return std::set<std::uint64_t>(ec.diff.begin(), ec.diff.begin() + ec.length);
  };
  for (std::uint32_t r = 0; r < t.cases.size(); ++r) {
    if (kept.count(r)) continue;
    const auto big = words_of(t.cases[r]);
    bool dominated = false;
    for (const ErroneousCase& kc : cond.table.cases) {
      const auto small = words_of(kc);
      if (small.size() < big.size() &&
          std::includes(big.begin(), big.end(), small.begin(), small.end())) {
        dominated = true;
        break;
      }
    }
    EXPECT_TRUE(dominated) << "removed row " << r << " has no kept subset row";
  }
}

TEST(Condense, CondensedCoverCoversFullTable) {
  std::mt19937_64 rng(5);
  for (const int n : {3, 5, 16}) {
    const DetectabilityTable t = random_table(rng, n, 500, kMaxLatency);
    const CondensedTable cond = condense_table(t);
    const auto sol = greedy_cover(cond.table);
    EXPECT_TRUE(ref_uncovered(sol, cond.table).empty());
    EXPECT_TRUE(ref_uncovered(sol, t).empty())
        << "n=" << n << ": condensed cover missed a full-table row";
  }
}

TEST(Condense, FinalQUnchangedOnBenchdata) {
  for (const char* name : {"s27", "tav", "donfile"}) {
    const DetectabilityTable t = suite_table(name, 2);
    int q[2];
    for (const bool condense : {false, true}) {
      PipelineOptions opts;
      opts.exec.threads = 1;
      opts.condense = condense;
      Algorithm1Stats stats;
      ResilienceReport resilience;
      const auto sol = select_parities_resilient(t, opts, Deadline{}, &stats,
                                                 {}, resilience);
      EXPECT_TRUE(covers_all(sol, t));
      q[condense ? 1 : 0] = static_cast<int>(sol.size());
    }
    EXPECT_EQ(q[0], q[1]) << name << ": condensation changed the final q";
  }
}

TEST(KernelScalar, PruneRedundantIdentical) {
  std::mt19937_64 rng(6);
  const DetectabilityTable t = random_table(rng, 14, 600, 3);
  for (int trial = 0; trial < 10; ++trial) {
    // Deliberately redundant set: a full cover plus duplicates and extras.
    std::vector<ParityFunc> betas = greedy_cover(t);
    betas.push_back(betas.front());
    for (int i = 0; i < 4; ++i) betas.push_back(random_beta(rng, 14));
    std::shuffle(betas.begin(), betas.end(), rng);
    if (!ref_uncovered(betas, t).empty()) continue;

    const auto want = reference::ref_prune(betas, t);
    for (const SimdLevel level : kLevels) {
      const ScopedSimdLevel cap(level);
      EXPECT_EQ(prune_redundant(betas, t), want) << to_string(level);
    }
    EXPECT_TRUE(ref_uncovered(want, t).empty());
  }
}

TEST(KernelScalar, GreedyIdentical) {
  std::mt19937_64 rng(7);
  for (const Shape& s : kShapes) {
    const DetectabilityTable t = random_table(rng, s.n, s.m, s.max_len);
    std::vector<ParityFunc> ref;
    for (const SimdLevel level : kLevels) {
      const ScopedSimdLevel cap(level);
      const auto sol = greedy_cover(t);
      EXPECT_TRUE(ref_uncovered(sol, t).empty())
          << to_string(level) << " n=" << s.n << " m=" << s.m;
      if (ref.empty()) {
        ref = sol;
      } else {
        EXPECT_EQ(sol, ref) << to_string(level) << " n=" << s.n;
      }
    }
  }
}

TEST(KernelScalar, ExactIdentical) {
  // exact_min_cover's q must equal a brute-force minimum over all sets of
  // candidate parity functions, and its selection must not depend on the
  // dispatch level.
  std::mt19937_64 rng(8);
  for (int trial = 0; trial < 4; ++trial) {
    const DetectabilityTable t = random_table(rng, 5, 24, 2);
    std::optional<std::vector<ParityFunc>> ref;
    for (const SimdLevel level : kLevels) {
      const ScopedSimdLevel cap(level);
      const auto sol = exact_min_cover(t);
      ASSERT_TRUE(sol.has_value()) << to_string(level);
      EXPECT_TRUE(ref_uncovered(*sol, t).empty()) << to_string(level);
      if (!ref) {
        ref = sol;
      } else {
        EXPECT_EQ(*sol, *ref) << to_string(level);
      }
    }
    EXPECT_EQ(static_cast<int>(ref->size()),
              reference::ref_min_cover_size(t, static_cast<int>(ref->size())))
        << "trial " << trial;
  }
}

TEST(KernelScalar, Algorithm1Identical) {
  std::mt19937_64 rng(9);
  const DetectabilityTable t = random_table(rng, 18, 2000, 3);
  Algorithm1Options opts;
  opts.threads = 1;
  std::vector<ParityFunc> ref;
  for (const SimdLevel level : kLevels) {
    const ScopedSimdLevel cap(level);
    const auto sol = minimize_parity_functions(t, opts);
    EXPECT_TRUE(ref_uncovered(sol, t).empty()) << to_string(level);
    if (ref.empty()) {
      ref = sol;
    } else {
      EXPECT_EQ(sol, ref) << to_string(level);
    }
  }
}

TEST(Determinism, IdenticalAcrossThreadCounts) {
  std::mt19937_64 rng(10);
  const DetectabilityTable t = random_table(rng, 18, 3000, 3);
  std::vector<ParityFunc> per_env[2];
  const char* counts[2] = {"1", "4"};
  for (int i = 0; i < 2; ++i) {
    setenv("CED_THREADS", counts[i], 1);
    Algorithm1Options opts;
    opts.threads = 0;  // resolve from CED_THREADS
    per_env[i] = minimize_parity_functions(t, opts);
  }
  unsetenv("CED_THREADS");
  EXPECT_EQ(per_env[0], per_env[1]);
  EXPECT_TRUE(covers_all(per_env[0], t));
}

}  // namespace
}  // namespace ced::core
