#include "core/extract.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "benchdata/handwritten.hpp"
#include "benchdata/suite.hpp"
#include "common/digest.hpp"
#include "core/coverkernel.hpp"
#include "core/greedy.hpp"
#include "core/parity.hpp"
#include "kiss/kiss.hpp"
#include "obs/metrics.hpp"
#include "sim/compiled_sim.hpp"
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

// The extraction sub-layer counters. At p = 1 (one shard) the walk asks
// for one classification per (fault, reachable code); those the fault
// leaves unchanged are served from golden classes, and the rest — counted
// here independently, by comparing the faulty rows with the golden ones —
// ran the classifier. Every counter is a pure function of the shard
// partition, so it is equal at 1 and 4 threads.
TEST(Extract, SubLayerCountersAddUpAtAnyThreadCount) {
  const fsm::FsmCircuit c = fsm::synthesize_fsm(
      benchdata::suite_fsm("dk16"), fsm::EncodingKind::kBinary, {});
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  const auto counters = [&](int latency, int shards, int threads) {
    obs::MetricsRegistry metrics;
    ExtractOptions ex;
    ex.latency = latency;
    ex.threads = threads;
    ex.obs = obs::Sinks{nullptr, &metrics, 0};
    extract_cases_sharded(c, faults, ex, {.num_shards = shards});
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : metrics.snapshot().counters) {
      if (name.rfind("ced_extract_", 0) == 0) out[name] = value;
    }
    return out;
  };

  const std::vector<std::uint64_t> codes =
      sim::reachable_codes(c, c.enc.reset_code);
  sim::CircuitSim golden(c);
  sim::FaultSim fs(golden);
  std::uint64_t dirty = 0;
  for (const auto& f : faults) {
    fs.arm(f.injection());
    for (const std::uint64_t code : codes) {
      if (fs.faulty_rows(code) != fs.golden(code).rows) ++dirty;
    }
  }
  const auto p1 = counters(1, 1, 1);
  const std::uint64_t classifications =
      p1.at("ced_extract_classifications_total");
  const std::uint64_t clean = p1.at("ced_extract_clean_classifications_total");
  EXPECT_EQ(classifications, faults.size() * codes.size());
  EXPECT_EQ(clean + dirty, classifications);
  EXPECT_GT(clean, 0u);
  EXPECT_GT(dirty, 0u);

  const auto serial = counters(3, 4, 1);
  EXPECT_EQ(counters(3, 4, 4), serial);
  EXPECT_LT(serial.at("ced_extract_clean_classifications_total"),
            serial.at("ced_extract_classifications_total"));
  EXPECT_GT(serial.at("ced_extract_inserts_total"), 0u);
  EXPECT_GT(serial.at("ced_extract_dominance_probes_total"), 0u);
  EXPECT_EQ(serial.at("ced_extract_compactions_total"), 0u);
}

// Byte-identity pin for the extract layer: a digest of every table (the
// sorted cases, every statistic, the strengthened/truncated flags and the
// truncation reason) of each small-suite machine at p = 4 under both
// semantics and at 1 and 3 shards, plus one strengthened (low degrade
// threshold) and one case-valve-truncated run. The digests were recorded
// before the golden step classes and the length-stratified case sets went
// in; any change to what extraction produces shows up here.
std::string tables_digest(const std::vector<DetectabilityTable>& tables) {
  Digest128 d;
  for (const DetectabilityTable& t : tables) {
    std::vector<ErroneousCase> cases = t.cases;
    std::sort(cases.begin(), cases.end(),
              [](const ErroneousCase& a, const ErroneousCase& b) {
                if (a.length != b.length) return a.length < b.length;
                return a.diff < b.diff;
              });
    d.absorb(static_cast<std::uint64_t>(t.latency));
    d.absorb(static_cast<std::uint64_t>(cases.size()));
    for (const ErroneousCase& ec : cases) {
      d.absorb(static_cast<std::uint64_t>(ec.length));
      for (int k = 0; k < ec.length; ++k) {
        d.absorb(ec.diff[static_cast<std::size_t>(k)]);
      }
    }
    d.absorb(static_cast<std::uint64_t>(t.num_paths));
    d.absorb(static_cast<std::uint64_t>(t.num_activations));
    d.absorb(static_cast<std::uint64_t>(t.num_loop_truncations));
    d.absorb(static_cast<std::uint64_t>(t.num_detectable_faults));
    d.absorb(std::uint64_t{t.strengthened ? 1u : 0u});
    d.absorb(std::uint64_t{t.truncated ? 1u : 0u});
    d.absorb(t.truncation_reason);
  }
  return d.hex();
}

TEST(Extract, TablesMatchPinnedDigests) {
  const std::map<std::string, std::string> pinned = {
      {"dk14 impl shards=1", "f24c8a374e81da1e539a2c13ce4621e4"},
      {"dk14 impl shards=3", "5581ec1f89ff831687da5b70d483e970"},
      {"dk14 mach shards=1", "c5f4bfc151056b33534cf25cc259a923"},
      {"dk14 mach shards=3", "93268923d9bc7c46495f2fbe2da82240"},
      {"dk16 impl shards=1", "0b597c2b689469204b2e5e8d11c606e4"},
      {"dk16 impl shards=3", "e615671fe32bbb49855420fb2e6dcd54"},
      {"dk16 mach shards=1", "f7eb91658548f6e4009383d39d9dfea5"},
      {"dk16 mach shards=3", "e4e2c989207116d30fb07be912d4f3af"},
      {"donfile impl shards=1", "d7c6f2c3f5ed61123f5c87a8bb4b7966"},
      {"donfile impl shards=3", "96568593bcd60cd7fc81fdaf91129b96"},
      {"donfile mach shards=1", "59f50c44e15d335c1a5e89225daa42f3"},
      {"donfile mach shards=3", "86bcba283ff828b2bd26bfc73a94989a"},
      {"s27 impl shards=1", "bea519dc40a687dd3680399be7ece57c"},
      {"s27 impl shards=3", "4052bf40d972d45f560a5fb228c1c83c"},
      {"s27 mach shards=1", "f03625756578e68658663d3768323b52"},
      {"s27 mach shards=3", "6e259188bbbce4258d2315ed4adbf004"},
      {"s386 degrade_threshold=64", "4f9f34d70044308bd235c36132f9dc23"},
      {"s386 impl shards=1", "6ef69108a7879ccef7a3a9a725469a18"},
      {"s386 impl shards=3", "526d1dc8f7365cc9539c98e9498bd374"},
      {"s386 mach shards=1", "7354a11474bc6e96f4a655ffe615d0b3"},
      {"s386 mach shards=3", "4fca9bfab04aac5f3f2768f2b2fe6152"},
      {"s386 max_cases=200", "f266127806f0e2f0a142b50004b61c30"},
      {"tav impl shards=1", "b8f2b650c2e0ea1d59ab5ec7f9944916"},
      {"tav impl shards=3", "2092ebadba27ee09f289ffd27128ba3a"},
      {"tav mach shards=1", "7b598e6f9d08b1678fb72b49b5c775a0"},
      {"tav mach shards=3", "899e9b68b09e932e357b9e120272248e"},
  };
  std::map<std::string, std::string> got;
  for (const std::string& name : benchdata::small_suite_names()) {
    const fsm::FsmCircuit c = fsm::synthesize_fsm(
        benchdata::suite_fsm(name), fsm::EncodingKind::kBinary, {});
    const auto faults = sim::enumerate_stuck_at(c.netlist);
    for (const DiffSemantics sem :
         {DiffSemantics::kImplementable, DiffSemantics::kMachineLevel}) {
      for (const int shards : {1, 3}) {
        ExtractOptions ex;
        ex.latency = kMaxLatency;
        ex.semantics = sem;
        ex.threads = shards;
        const auto tables =
            extract_cases_sharded(c, faults, ex, {.num_shards = shards});
        got[name + (sem == DiffSemantics::kImplementable ? " impl" : " mach") +
            " shards=" + std::to_string(shards)] = tables_digest(tables);
      }
    }
  }
  const fsm::FsmCircuit c = fsm::synthesize_fsm(
      benchdata::suite_fsm("s386"), fsm::EncodingKind::kBinary, {});
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions low;
  low.latency = 3;
  low.threads = 1;
  low.degrade_threshold = 64;
  const auto strengthened =
      extract_cases_sharded(c, faults, low, {.num_shards = 1});
  EXPECT_TRUE(strengthened.back().strengthened);
  got["s386 degrade_threshold=64"] = tables_digest(strengthened);
  ExtractOptions cut;
  cut.latency = 3;
  cut.threads = 3;
  cut.max_cases = 200;
  const auto truncated = extract_cases_sharded(c, faults, cut,
                                               {.num_shards = 3});
  EXPECT_TRUE(truncated.back().truncated);
  got["s386 max_cases=200"] = tables_digest(truncated);

  for (const auto& [what, digest] : got) {
    const auto it = pinned.find(what);
    EXPECT_TRUE(it != pinned.end() && it->second == digest)
        << "{\"" << what << "\", \"" << digest << "\"},";
  }
  EXPECT_EQ(got.size(), pinned.size());
}

}  // namespace
}  // namespace ced::core
