// Experiment: runtime scaling (implicit in §5's feasibility claim).
//
// google-benchmark microbenchmarks of the pipeline's stages as FSM size and
// the latency bound grow: detectability-table extraction, the LP solve, and
// randomized rounding + verification.

#include <benchmark/benchmark.h>

#include "benchdata/generator.hpp"
#include "core/algorithm1.hpp"
#include "core/extract.hpp"
#include "core/ilp.hpp"
#include "fsm/synthesize.hpp"
#include "lp/simplex.hpp"
#include "sim/compiled_sim.hpp"
#include "sim/faults.hpp"

namespace {

using namespace ced;

fsm::FsmCircuit make_circuit(int states) {
  benchdata::SyntheticSpec spec;
  spec.name = "scal";
  spec.inputs = 4;
  spec.states = states;
  spec.outputs = 4;
  spec.branches = 6;
  spec.self_loop_bias = 0.2;
  spec.seed = 42;
  return fsm::synthesize_fsm(benchdata::generate_fsm(spec),
                             fsm::EncodingKind::kBinary, {});
}

void BM_ExtractVsStates(benchmark::State& state) {
  const fsm::FsmCircuit c = make_circuit(static_cast<int>(state.range(0)));
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  core::ExtractOptions opts;
  opts.latency = 2;
  for (auto _ : state) {
    auto table = core::extract_cases(c, faults, opts);
    benchmark::DoNotOptimize(table.cases.size());
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_ExtractVsStates)->Arg(8)->Arg(16)->Arg(32)->Unit(
    benchmark::kMillisecond);

void BM_ExtractVsLatency(benchmark::State& state) {
  const fsm::FsmCircuit c = make_circuit(16);
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  core::ExtractOptions opts;
  opts.latency = static_cast<int>(state.range(0));
  std::size_t cases = 0;
  for (auto _ : state) {
    auto table = core::extract_cases(c, faults, opts);
    cases = table.cases.size();
    benchmark::DoNotOptimize(cases);
  }
  state.counters["cases"] = static_cast<double>(cases);
}
BENCHMARK(BM_ExtractVsLatency)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Unit(
    benchmark::kMillisecond);

void BM_LpSolve(benchmark::State& state) {
  const fsm::FsmCircuit c = make_circuit(16);
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  core::ExtractOptions eo;
  eo.latency = 2;
  const auto table = core::extract_cases(c, faults, eo);
  std::vector<std::uint32_t> rows;
  for (std::uint32_t i = 0;
       i < std::min<std::size_t>(static_cast<std::size_t>(state.range(0)),
                                 table.cases.size());
       ++i) {
    rows.push_back(i);
  }
  for (auto _ : state) {
    auto f = core::build_lp(table, rows, 4);
    auto res = lp::solve(f.problem);
    benchmark::DoNotOptimize(res.status);
  }
  state.counters["rows"] = static_cast<double>(rows.size());
}
BENCHMARK(BM_LpSolve)->Arg(16)->Arg(32)->Arg(64)->Unit(
    benchmark::kMillisecond);

void BM_RoundAndVerify(benchmark::State& state) {
  const fsm::FsmCircuit c = make_circuit(16);
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  core::ExtractOptions eo;
  eo.latency = 2;
  const auto table = core::extract_cases(c, faults, eo);
  core::Algorithm1Options opts;
  opts.iter = static_cast<int>(state.range(0));
  opts.row_rounds = 1;
  opts.repair = false;
  for (auto _ : state) {
    auto sol = core::solve_for_q(table, 6, opts);
    benchmark::DoNotOptimize(sol.has_value());
  }
}
BENCHMARK(BM_RoundAndVerify)->Arg(5)->Arg(20)->Arg(40)->Unit(
    benchmark::kMillisecond);

void BM_GreedyCover(benchmark::State& state) {
  const fsm::FsmCircuit c = make_circuit(static_cast<int>(state.range(0)));
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  core::ExtractOptions eo;
  eo.latency = 2;
  const auto table = core::extract_cases(c, faults, eo);
  for (auto _ : state) {
    auto sol = core::greedy_cover(table);
    benchmark::DoNotOptimize(sol.size());
  }
  state.counters["cases"] = static_cast<double>(table.cases.size());
}
BENCHMARK(BM_GreedyCover)->Arg(8)->Arg(16)->Arg(32)->Unit(
    benchmark::kMillisecond);

void BM_FaultSimTransition(benchmark::State& state) {
  const fsm::FsmCircuit c = make_circuit(32);
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  const std::uint64_t code = 3;
  sim::CircuitSim golden(c);
  golden.populate({&code, 1});
  sim::FaultSim fs(golden);
  std::size_t fi = 0;
  for (auto _ : state) {
    fs.arm(faults[fi % faults.size()].injection());
    const auto& rows = fs.faulty_rows(code);
    benchmark::DoNotOptimize(rows.data());
    ++fi;
  }
}
BENCHMARK(BM_FaultSimTransition)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
