#include "core/pipeline.hpp"
#include "core/run.hpp"

#include <gtest/gtest.h>

#include "benchdata/handwritten.hpp"
#include "benchdata/suite.hpp"
#include "core/parity.hpp"
#include "kiss/kiss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ced::core {
namespace {

fsm::Fsm machine(const std::string& name) {
  return fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
}

TEST(Pipeline, ReportFieldsAreConsistent) {
  PipelineOptions opts;
  opts.latency = 2;
  const PipelineReport rep = ced::run_pipeline(machine("link_rx"), RunConfig::wrap(opts));
  EXPECT_EQ(rep.inputs, 1);
  EXPECT_EQ(rep.outputs, 3);
  EXPECT_EQ(rep.state_bits, 3);
  EXPECT_EQ(rep.latency, 2);
  EXPECT_GT(rep.orig_gates, 0u);
  EXPECT_GT(rep.orig_area, 0.0);
  EXPECT_GT(rep.num_faults, 0u);
  EXPECT_GE(rep.num_detectable_faults, 1u);
  EXPECT_LE(rep.num_detectable_faults, rep.num_faults);
  EXPECT_GT(rep.num_cases, 0u);
  EXPECT_EQ(rep.num_trees, static_cast<int>(rep.parities.size()));
  EXPECT_GT(rep.ced_gates, 0u);
  EXPECT_GT(rep.ced_area, 0.0);
  EXPECT_GE(rep.t_extract, 0.0);
  EXPECT_GE(rep.t_solve, 0.0);
}

TEST(Pipeline, SweepIsMonotoneAndShares) {
  const std::vector<int> ps{1, 2, 3};
  PipelineOptions opts;
  const auto reps = ced::run_latency_sweep(machine("vending"), ps, RunConfig::wrap(opts));
  ASSERT_EQ(reps.size(), 3u);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    EXPECT_EQ(reps[i].latency, ps[i]);
    EXPECT_EQ(reps[i].orig_gates, reps[0].orig_gates);
    EXPECT_EQ(reps[i].num_faults, reps[0].num_faults);
    if (i > 0) {
      EXPECT_LE(reps[i].num_trees, reps[i - 1].num_trees);
    }
  }
}

TEST(Pipeline, SolverKindsAllProduceValidCovers) {
  for (SolverKind kind :
       {SolverKind::kLpRounding, SolverKind::kGreedy, SolverKind::kExact}) {
    PipelineOptions opts;
    opts.latency = 2;
    opts.solver = kind;
    const PipelineReport rep = ced::run_pipeline(machine("traffic"), RunConfig::wrap(opts));
    EXPECT_GT(rep.num_trees, 0) << static_cast<int>(kind);
    // Every parity mask stays within the observable bits.
    const int n = rep.state_bits + rep.outputs;
    for (ParityFunc b : rep.parities) {
      EXPECT_NE(b, 0u);
      EXPECT_EQ(b >> n, 0u);
    }
  }
}

TEST(Pipeline, MachineLevelSemanticsSelectable) {
  PipelineOptions impl;
  impl.latency = 2;
  PipelineOptions ml = impl;
  ml.extract.semantics = DiffSemantics::kMachineLevel;
  const PipelineReport ri = ced::run_pipeline(machine("link_rx"), RunConfig::wrap(impl));
  const PipelineReport rm = ced::run_pipeline(machine("link_rx"), RunConfig::wrap(ml));
  // Machine-level tables are never harder than implementable ones.
  EXPECT_LE(rm.num_trees, ri.num_trees);
}

TEST(Pipeline, EncodingChoiceAffectsStateBits) {
  PipelineOptions onehot;
  onehot.latency = 1;
  onehot.encoding = fsm::EncodingKind::kOneHot;
  const PipelineReport rep = ced::run_pipeline(machine("traffic"), RunConfig::wrap(onehot));
  EXPECT_EQ(rep.state_bits, 3);  // 3 states one-hot
}

TEST(Pipeline, SweepAcceptsUnsortedLatencies) {
  const std::vector<int> ps{2, 1};
  PipelineOptions opts;
  const auto reps = ced::run_latency_sweep(machine("seq_detect"), ps, RunConfig::wrap(opts));
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0].latency, 2);
  EXPECT_EQ(reps[1].latency, 1);
  EXPECT_GE(reps[1].num_trees, reps[0].num_trees);
}

// Within a sweep the circuit and the CED options are fixed, so a latency
// whose parities equal the previous latency's reuses that report's CED
// cost instead of synthesizing again. The reused cost must equal a fresh
// synthesis, and the counter and the ced-synth spans must say which
// reports reused.
TEST(Pipeline, SweepReusesCedSynthesisOfRepeatedParities) {
  const std::vector<int> ps{1, 2, 3};
  std::uint64_t repeats_seen = 0;
  for (const std::string& name : benchdata::small_suite_names()) {
    const fsm::Fsm f = benchdata::suite_fsm(name);
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    const auto cfg = RunConfig::Builder()
                         .observe(obs::Sinks{&tracer, &metrics, 0})
                         .build();
    ASSERT_TRUE(cfg.has_value());
    const auto reps = ced::run_latency_sweep(f, ps, *cfg);
    ASSERT_EQ(reps.size(), ps.size()) << name;

    const PipelineOptions& opts = cfg->options();
    const fsm::FsmCircuit circuit =
        fsm::synthesize_fsm(f, opts.encoding, opts.synth);
    std::vector<std::string> want_attrs;
    std::uint64_t repeats = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      const auto cost = synthesize_ced(circuit, reps[i].parities, opts.ced)
                            .cost(opts.library);
      EXPECT_EQ(reps[i].ced_gates, cost.gates) << name << " p=" << ps[i];
      EXPECT_EQ(reps[i].ced_area, cost.area) << name << " p=" << ps[i];
      const bool repeat = i > 0 && reps[i].parities == reps[i - 1].parities;
      repeats += repeat ? 1 : 0;
      want_attrs.push_back(repeat ? "yes" : "no");
    }
    repeats_seen += repeats;
    EXPECT_EQ(metrics.snapshot().counters.at("ced_cedsynth_reused_total"),
              repeats)
        << name;
    std::vector<std::string> got_attrs;
    for (const obs::SpanRecord& s : tracer.snapshot()) {
      if (s.name != "ced-synth") continue;
      for (const auto& [k, v] : s.attrs) {
        if (k == "reused") got_attrs.push_back(v);
      }
    }
    EXPECT_EQ(got_attrs, want_attrs) << name;
  }
  // The suite must exercise the reuse path, not only fresh syntheses.
  EXPECT_GT(repeats_seen, 0u);
}

}  // namespace
}  // namespace ced::core
