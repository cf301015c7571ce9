#include "sim/compiled_sim.hpp"

#include <gtest/gtest.h>

#include <set>

#include "benchdata/handwritten.hpp"
#include "kiss/kiss.hpp"
#include "sim/faults.hpp"

namespace ced::sim {
namespace {

fsm::FsmCircuit circuit_for(const std::string& name) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
}

TEST(Faults, EnumerationSkipsConstants) {
  logic::Netlist n;
  const auto a = n.add_input("a");
  n.add_const(true);
  const auto g = n.add_gate(logic::GateType::kNot, {a});
  n.mark_output(g, "f");
  FaultListOptions opts;
  opts.collapse = false;
  const auto faults = enumerate_stuck_at(n, opts);
  // 2 nets (input + gate) x 2 polarities.
  EXPECT_EQ(faults.size(), 4u);
  for (const auto& f : faults) {
    EXPECT_NE(n.gate(f.net).type, logic::GateType::kConst1);
  }
}

TEST(Faults, CollapsingDropsControlledInputFaults) {
  logic::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g = n.add_gate(logic::GateType::kAnd, {a, b});
  n.mark_output(g, "f");
  const auto full = enumerate_stuck_at(n, FaultListOptions{false});
  const auto collapsed = enumerate_stuck_at(n, FaultListOptions{true});
  EXPECT_EQ(full.size(), 6u);
  // a/SA0 and b/SA0 collapse onto g/SA0 (single-fanout nets).
  EXPECT_EQ(collapsed.size(), 4u);
  for (const auto& f : collapsed) {
    if (f.net == a || f.net == b) {
      EXPECT_TRUE(f.stuck_value);
    }
  }
}

TEST(Faults, CollapsingPreservesDetectionEquivalence) {
  // Every dropped fault must be output-equivalent to some kept fault on
  // every input pattern.
  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto full = enumerate_stuck_at(c.netlist, FaultListOptions{false});
  const auto kept = enumerate_stuck_at(c.netlist, FaultListOptions{true});
  ASSERT_LT(kept.size(), full.size());

  const int vars = c.r() + c.s();
  auto signature = [&](const StuckAtFault& f) {
    std::vector<std::uint64_t> sig;
    const logic::Injection inj = f.injection();
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << vars); ++a) {
      sig.push_back(c.netlist.eval_single(a, &inj));
    }
    return sig;
  };
  std::set<std::vector<std::uint64_t>> kept_sigs;
  for (const auto& f : kept) kept_sigs.insert(signature(f));
  for (const auto& f : full) {
    EXPECT_TRUE(kept_sigs.count(signature(f)))
        << "dropped fault " << f.to_string() << " has no kept equivalent";
  }
}

TEST(FaultSim, AllInputsMatchesSingleEval) {
  const fsm::FsmCircuit c = circuit_for("vending");
  const CircuitSim sim(c);
  for (std::uint64_t code = 0; code < 4; ++code) {
    const auto rows = sim.simulate(code).rows;
    for (std::uint64_t a = 0; a < rows.size(); ++a) {
      EXPECT_EQ(rows[a], c.eval(a, code)) << "code " << code << " a " << a;
    }
  }
}

TEST(FaultSim, AllInputsMatchesSingleEvalWithFault) {
  const fsm::FsmCircuit c = circuit_for("arbiter");
  const auto faults = enumerate_stuck_at(c.netlist);
  ASSERT_FALSE(faults.empty());
  const CircuitSim sim(c);
  FaultSim fs(sim);
  // Spot-check a few faults across the list.
  for (std::size_t fi = 0; fi < faults.size(); fi += 7) {
    const logic::Injection inj = faults[fi].injection();
    fs.arm(inj);
    const auto rows = fs.faulty_rows(2);
    for (std::uint64_t a = 0; a < rows.size(); ++a) {
      EXPECT_EQ(rows[a], c.eval(a, 2, &inj));
    }
  }
}

TEST(FaultSim, WideInputMachineBatches) {
  // > 64 input combinations exercises the multi-batch path.
  const char* wide = R"(.i 7
.o 1
------- A B 1
------1 B A 0
------0 B B 1
.e
)";
  const fsm::Fsm f = fsm::Fsm::from_kiss(kiss::parse(wide));
  const fsm::FsmCircuit c = fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
  const auto rows = CircuitSim(c).simulate(0).rows;
  ASSERT_EQ(rows.size(), 128u);
  for (std::uint64_t a = 0; a < 128; ++a) {
    EXPECT_EQ(rows[a], c.eval(a, 0));
  }
}

TEST(FaultSim, GoldenCacheIsConsistent) {
  const fsm::FsmCircuit c = circuit_for("modulo5");
  CircuitSim cache(c);
  EXPECT_EQ(cache.find(1), nullptr);
  const std::uint64_t code = 1;
  cache.populate({&code, 1});
  const GoldenState* shared = cache.find(1);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(cache.find(1), shared);  // cached
  EXPECT_EQ(shared->rows, cache.simulate(1).rows);
  EXPECT_EQ(shared->nets, cache.simulate(1).nets);

  // A worker reads populated codes from the shared cache and simulates
  // every other code once into its private overlay.
  FaultSim worker(cache);
  EXPECT_EQ(&worker.golden(1), shared);
  const GoldenState& local = worker.golden(2);
  EXPECT_EQ(&worker.golden(2), &local);
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_EQ(local.rows, cache.simulate(2).rows);
}

TEST(FaultSim, ReachableCodesCoversStgReachable) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto codes = reachable_codes(c, c.enc.reset_code);
  // All 7 STG states are reachable; their codes must all appear.
  std::set<std::uint64_t> set(codes.begin(), codes.end());
  for (std::uint64_t code : c.enc.encoding.codes) {
    EXPECT_TRUE(set.count(code)) << code;
  }
}

TEST(FaultSim, ReachableCodesClosedUnderTransition) {
  const fsm::FsmCircuit c = circuit_for("seq_detect");
  const auto codes = reachable_codes(c, c.enc.reset_code);
  std::set<std::uint64_t> set(codes.begin(), codes.end());
  for (std::uint64_t code : codes) {
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << c.r()); ++a) {
      EXPECT_TRUE(set.count(c.next_state_of(c.eval(a, code))));
    }
  }
}

}  // namespace
}  // namespace ced::sim
