#include "core/extract.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "benchdata/handwritten.hpp"
#include "benchdata/suite.hpp"
#include "core/coverkernel.hpp"
#include "core/greedy.hpp"
#include "core/parity.hpp"
#include "kiss/kiss.hpp"
#include "sim/faults.hpp"
#include "storage/store.hpp"

namespace ced::core {
namespace {

fsm::FsmCircuit circuit_for(const std::string& name) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
}

TEST(Extract, EveryCaseStartsWithNonzeroDiff) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  for (int p = 1; p <= 3; ++p) {
    ExtractOptions opts;
    opts.latency = p;
    const DetectabilityTable t = extract_cases(c, faults, opts);
    EXPECT_FALSE(t.cases.empty());
    for (const auto& ec : t.cases) {
      EXPECT_NE(ec.diff[0], 0u);
      EXPECT_GE(ec.length, 1);
      EXPECT_LE(ec.length, p);
      // Diff words only use observable bits.
      for (int k = 0; k < ec.length; ++k) {
        EXPECT_EQ(ec.diff[static_cast<std::size_t>(k)] >>
                      static_cast<unsigned>(t.num_bits),
                  0u);
      }
    }
  }
}

TEST(Extract, LatencyOneCasesAreSingleStep) {
  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 1;
  const DetectabilityTable t = extract_cases(c, faults, opts);
  for (const auto& ec : t.cases) EXPECT_EQ(ec.length, 1);
}

TEST(Extract, CasesAreDeduplicated) {
  const fsm::FsmCircuit c = circuit_for("vending");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 2;
  const DetectabilityTable t = extract_cases(c, faults, opts);
  for (std::size_t i = 0; i + 1 < t.cases.size(); ++i) {
    for (std::size_t j = i + 1; j < t.cases.size(); ++j) {
      EXPECT_FALSE(t.cases[i] == t.cases[j]) << i << " " << j;
    }
  }
  EXPECT_LE(t.cases.size(), t.num_paths);
}

TEST(Extract, MultiPassMatchesDirectExtraction) {
  // The single-pass multi-latency extraction must equal extracting each
  // bound independently (and a one-shard partition must equal the default
  // sixteen-shard one).
  const fsm::FsmCircuit c = circuit_for("arbiter");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions o3;
  o3.latency = 3;
  const auto multi = extract_cases_sharded(c, faults, o3, {.num_shards = 1});
  ASSERT_EQ(multi.size(), 3u);
  for (int p = 1; p <= 3; ++p) {
    ExtractOptions op;
    op.latency = p;
    const DetectabilityTable direct = extract_cases(c, faults, op);
    const DetectabilityTable& derived = multi[static_cast<std::size_t>(p - 1)];
    ASSERT_EQ(direct.cases.size(), derived.cases.size()) << "p=" << p;
    for (std::size_t i = 0; i < direct.cases.size(); ++i) {
      EXPECT_TRUE(direct.cases[i] == derived.cases[i]) << "p=" << p;
    }
  }
}

TEST(Extract, CanonicalFormIsSortedNonzeroUnique) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 3;
  const DetectabilityTable t = extract_cases(c, faults, opts);
  for (const auto& ec : t.cases) {
    ASSERT_GE(ec.length, 1);
    for (int k = 0; k < ec.length; ++k) {
      EXPECT_NE(ec.diff[static_cast<std::size_t>(k)], 0u);
      if (k > 0) {
        EXPECT_LT(ec.diff[static_cast<std::size_t>(k - 1)],
                  ec.diff[static_cast<std::size_t>(k)]);
      }
    }
  }
}

TEST(Extract, LowerLatencyCoverStaysValidAtHigherLatency) {
  // Every latency-(p+1) case contains its path's step-1 word, which is a
  // latency-p case's word too, so a cover of table[p] covers table[p+1].
  const fsm::FsmCircuit c = circuit_for("modulo5");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions o3;
  o3.latency = 3;
  const auto multi = extract_cases_sharded(c, faults, o3);
  const auto cover1 = greedy_cover(multi[0]);
  EXPECT_TRUE(covers_all(cover1, multi[1]));
  EXPECT_TRUE(covers_all(cover1, multi[2]));
  const auto cover2 = greedy_cover(multi[1]);
  EXPECT_TRUE(covers_all(cover2, multi[2]));
}

TEST(Extract, LoopTruncationHappensOnLoopyMachine) {
  // A machine whose faulty walks revisit states quickly must show
  // loop-truncated (short) cases at p=3.
  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 3;
  const DetectabilityTable t = extract_cases(c, faults, opts);
  EXPECT_GT(t.num_loop_truncations, 0u);
  bool has_short = false;
  for (const auto& ec : t.cases) {
    if (ec.length < 3) has_short = true;
  }
  EXPECT_TRUE(has_short);
}

TEST(Extract, StatsAreConsistent) {
  const fsm::FsmCircuit c = circuit_for("seq_detect");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 2;
  const DetectabilityTable t = extract_cases(c, faults, opts);
  EXPECT_EQ(t.num_faults, faults.size());
  EXPECT_LE(t.num_detectable_faults, t.num_faults);
  EXPECT_GT(t.num_detectable_faults, 0u);
  EXPECT_GE(t.num_paths, t.cases.size());
  EXPECT_GE(t.num_activations, 1u);
  EXPECT_EQ(t.latency, 2);
  EXPECT_EQ(t.num_bits, c.n());
}

TEST(Extract, VAccessorMatchesDiffWords) {
  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 2;
  const DetectabilityTable t = extract_cases(c, faults, opts);
  for (std::size_t i = 0; i < t.cases.size(); ++i) {
    for (int k = 0; k < t.latency; ++k) {
      for (int j = 0; j < t.num_bits; ++j) {
        const bool expect =
            k < t.cases[i].length &&
            ((t.cases[i].diff[static_cast<std::size_t>(k)] >> j) & 1);
        EXPECT_EQ(t.v(i, j, k), expect);
      }
    }
  }
}

TEST(Extract, SemanticsCoincideAtLatencyOne) {
  // With p = 1 there is no state drift: both EC definitions must produce
  // identical tables.
  const fsm::FsmCircuit c = circuit_for("arbiter");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions impl;
  impl.latency = 1;
  ExtractOptions ml = impl;
  ml.semantics = DiffSemantics::kMachineLevel;
  const DetectabilityTable ti = extract_cases(c, faults, impl);
  const DetectabilityTable tm = extract_cases(c, faults, ml);
  ASSERT_EQ(ti.cases.size(), tm.cases.size());
  for (std::size_t i = 0; i < ti.cases.size(); ++i) {
    EXPECT_TRUE(ti.cases[i] == tm.cases[i]);
  }
}

TEST(Extract, MachineLevelDivergesBeyondLatencyOne) {
  // At p >= 2 the reference machine drifts from the faulty one, so the
  // machine-level table generally differs from the implementable one.
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions impl;
  impl.latency = 2;
  ExtractOptions ml = impl;
  ml.semantics = DiffSemantics::kMachineLevel;
  const DetectabilityTable ti = extract_cases(c, faults, impl);
  const DetectabilityTable tm = extract_cases(c, faults, ml);
  bool differ = ti.cases.size() != tm.cases.size();
  for (std::size_t i = 0; !differ && i < ti.cases.size(); ++i) {
    differ = !(ti.cases[i] == tm.cases[i]);
  }
  EXPECT_TRUE(differ);
  // Both stay well-formed.
  for (const auto& ec : tm.cases) {
    EXPECT_NE(ec.diff[0], 0u);
    EXPECT_LE(ec.length, 2);
  }
}

TEST(Extract, MachineLevelStepOneTableMatchesImplementable) {
  // Step-1 difference sets do not depend on the reference anchoring, so
  // the p=1 tables produced as a side effect of a deeper multi-extraction
  // must be identical under both semantics.
  const fsm::FsmCircuit c = circuit_for("modulo5");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions impl;
  impl.latency = 3;
  ExtractOptions ml = impl;
  ml.semantics = DiffSemantics::kMachineLevel;
  const auto ti = extract_cases_sharded(c, faults, impl);
  const auto tm = extract_cases_sharded(c, faults, ml);
  ASSERT_EQ(ti[0].cases.size(), tm[0].cases.size());
  for (std::size_t i = 0; i < ti[0].cases.size(); ++i) {
    EXPECT_TRUE(ti[0].cases[i] == tm[0].cases[i]);
  }
}

TEST(Extract, RejectsBadLatency) {
  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 0;
  EXPECT_THROW(extract_cases(c, faults, opts), std::invalid_argument);
  opts.latency = kMaxLatency + 1;
  EXPECT_THROW(extract_cases(c, faults, opts), std::invalid_argument);
}

TEST(Extract, CaseLimitTruncatesInsteadOfThrowing) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 3;
  ExtractOptions limited = opts;
  limited.max_cases = 5;
  const DetectabilityTable full = extract_cases(c, faults, opts);
  const DetectabilityTable cut = extract_cases(c, faults, limited);
  ASSERT_GT(full.cases.size(), limited.max_cases)
      << "fixture too small to exercise the limit";
  EXPECT_FALSE(full.truncated);
  EXPECT_TRUE(cut.truncated);
  EXPECT_FALSE(cut.truncation_reason.empty());
  // The truncated table holds a usable prefix: nonempty, no larger than the
  // full table, and every retained case also appears in the full extraction.
  EXPECT_FALSE(cut.cases.empty());
  EXPECT_LE(cut.cases.size(), full.cases.size());
  for (const auto& ec : cut.cases) {
    bool found = false;
    for (const auto& ref : full.cases) {
      if (ec == ref) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(Extract, UnrestrictedActivationsSupersetReachable) {
  const fsm::FsmCircuit c = circuit_for("seq_detect");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions reach;
  reach.latency = 1;
  ExtractOptions all = reach;
  all.restrict_to_reachable = false;
  const DetectabilityTable tr = extract_cases(c, faults, reach);
  const DetectabilityTable ta = extract_cases(c, faults, all);
  EXPECT_GE(ta.cases.size(), tr.cases.size());
}

// The pipeline solves extracted tables without condensing them: the shard
// merge ends in compact(), so every table is already the subset-minimal
// antichain condense_table() computes. Hold that for every shard count,
// thread count, a case-valve truncation, a strengthened (low degrade
// threshold) table and a store round trip.
TEST(Extract, TablesAreAntichainsUnderEveryShardingAndValve) {
  char buf[] = "/tmp/ced_antichain_test_XXXXXX";
  ASSERT_NE(::mkdtemp(buf), nullptr);
  const std::filesystem::path dir(buf);
  storage::ArtifactStore store(dir);
  storage::StoreArchive archive(store);

  const auto expect_antichains = [](const std::vector<DetectabilityTable>& ts,
                                    const std::string& what) {
    ASSERT_EQ(ts.size(), 3u) << what;
    for (const DetectabilityTable& t : ts) {
      EXPECT_EQ(condense_table(t).removed, 0u)
          << what << " p=" << t.latency << " (" << t.cases.size()
          << " cases)";
    }
  };

  for (const std::string& name : benchdata::small_suite_names()) {
    const fsm::FsmCircuit c = fsm::synthesize_fsm(
        benchdata::suite_fsm(name), fsm::EncodingKind::kBinary, {});
    const auto faults = sim::enumerate_stuck_at(c.netlist);
    ExtractOptions ex;
    ex.latency = 3;

    std::vector<DetectabilityTable> full;
    for (const int shards : {1, 3, 16}) {
      for (const int threads : {1, 4}) {
        ex.threads = threads;
        auto ts = extract_cases_sharded(c, faults, ex, {.num_shards = shards});
        expect_antichains(ts, name + " shards=" + std::to_string(shards) +
                                  " threads=" + std::to_string(threads));
        if (full.empty()) full = std::move(ts);
      }
    }
    ASSERT_FALSE(full.back().truncated) << name;

    ExtractOptions cut = ex;
    cut.max_cases = std::max<std::size_t>(1, full.back().cases.size() / 3);
    const auto truncated = extract_cases_sharded(c, faults, cut,
                                                 {.num_shards = 3});
    EXPECT_TRUE(truncated.back().truncated) << name;
    expect_antichains(truncated, name + " max_cases");

    // One shard: sharded runs floor the per-shard threshold at 1024.
    ExtractOptions low = ex;
    low.degrade_threshold = 4;
    const auto strengthened = extract_cases_sharded(c, faults, low,
                                                    {.num_shards = 1});
    EXPECT_TRUE(strengthened.back().strengthened) << name;
    expect_antichains(strengthened, name + " strengthened");

    archive.store_tables(name, full);
    const auto loaded = archive.load_tables(name);
    ASSERT_EQ(loaded.size(), full.size()) << name;
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      EXPECT_TRUE(loaded[i].cases == full[i].cases) << name;
    }
    expect_antichains(loaded, name + " store round trip");
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace ced::core
