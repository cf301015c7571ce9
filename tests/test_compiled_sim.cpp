// Differential tests of the compiled, cone-restricted simulator
// (sim/compiled_sim.hpp) and of the campaign's FaultSession built on it.
// The oracle is the reference interpreter logic::Netlist::eval with an
// Injection, driven through an input construction written independently of
// sim::fill_batch_inputs: every fault, at every state code (reachable or
// not), must yield byte-identical rows.

#include "sim/compiled_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <thread>

#include "benchdata/handwritten.hpp"
#include "benchdata/suite.hpp"
#include "core/parity_synth.hpp"
#include "kiss/kiss.hpp"
#include "sim/faults.hpp"
#include "sim/protected_machine.hpp"

namespace ced::sim {
namespace {

/// Reference rows of every (state code, input) pair at once — row
/// (code << r) | a — from the interpreter, 64 consecutive pairs per pass.
/// Packing pairs across state codes keeps the every-fault x every-code
/// comparison affordable on the wide-state suite machines.
std::vector<std::uint64_t> reference_table(const fsm::FsmCircuit& c,
                                           const logic::Injection* inj) {
  const int r = c.r();
  const int s = c.s();
  const std::uint64_t pairs = std::uint64_t{1} << (r + s);
  const auto& outputs = c.netlist.outputs();
  std::vector<std::uint64_t> rows(pairs, 0);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(r + s), 0);
  std::vector<std::uint64_t> values;
  for (std::uint64_t base = 0; base < pairs; base += 64) {
    // Variable v < r is input bit v, v >= r is state bit v - r: both are
    // bit v of the pair index (code << r) | a.
    for (int v = 0; v < r + s; ++v) {
      std::uint64_t w = 0;
      for (std::uint64_t t = 0; t < 64; ++t) {
        w |= (((base + t) >> v) & 1) << t;
      }
      words[static_cast<std::size_t>(v)] = w;
    }
    c.netlist.eval(words, values, inj);
    for (std::uint64_t t = 0; t < 64 && base + t < pairs; ++t) {
      std::uint64_t obs = 0;
      for (std::size_t o = 0; o < outputs.size(); ++o) {
        obs |= ((values[outputs[o]] >> t) & 1) << o;
      }
      rows[base + t] = obs;
    }
  }
  return rows;
}

/// The rows of state `code` in a reference table.
std::vector<std::uint64_t> rows_of(const std::vector<std::uint64_t>& table,
                                   int r, std::uint64_t code) {
  const auto first = table.begin() + static_cast<std::ptrdiff_t>(code << r);
  return {first, first + (std::ptrdiff_t{1} << r)};
}

/// Reference rows of one transition at `code`.
std::vector<std::uint64_t> reference_rows(const fsm::FsmCircuit& c,
                                          std::uint64_t code,
                                          const logic::Injection* inj) {
  return rows_of(reference_table(c, inj), c.r(), code);
}

/// Every stuck-at fault on every net (constants included — an injection
/// may target any net), both polarities.
std::vector<logic::Injection> all_injections(const logic::Netlist& nl) {
  std::vector<logic::Injection> out;
  for (std::uint32_t net = 0; net < nl.num_nets(); ++net) {
    out.push_back({net, 0});
    out.push_back({net, ~std::uint64_t{0}});
  }
  return out;
}

/// Compares golden and faulty rows for every injection at every s-bit
/// code, with only the reachable codes in the shared cache (so the others
/// exercise the private overlay). Returns the counters for sanity checks.
SimCounters expect_matches_reference(
    const fsm::FsmCircuit& c, std::span<const logic::Injection> injections) {
  CircuitSim shared(c);
  shared.populate_reachable(c.enc.reset_code);
  FaultSim fs(shared);
  const std::uint64_t num_codes = std::uint64_t{1} << c.s();
  const auto golden = reference_table(c, nullptr);
  for (std::uint64_t code = 0; code < num_codes; ++code) {
    EXPECT_EQ(fs.golden(code).rows, rows_of(golden, c.r(), code))
        << "golden code " << code;
  }
  for (const logic::Injection& inj : injections) {
    fs.arm(inj);
    const auto table = reference_table(c, &inj);
    for (std::uint64_t code = 0; code < num_codes; ++code) {
      const auto& rows = fs.faulty_rows(code);
      if (rows != rows_of(table, c.r(), code)) {
        ADD_FAILURE() << "net " << inj.net << " stuck-at "
                      << (inj.value_word != 0) << " code " << code;
        return fs.counters();
      }
      EXPECT_EQ(&fs.faulty_rows(code), &rows);  // memoized
    }
  }
  const SimCounters& k = fs.counters();
  EXPECT_EQ(k.batches_screened + k.batches_simulated,
            injections.size() * num_codes * shared.num_batches());
  return k;
}

/// Wraps a raw netlist (inputs: r primary then s state bits; outputs:
/// s next-state bits then the rest) as a circuit the simulator accepts.
fsm::FsmCircuit wrap(logic::Netlist nl, int r, int s) {
  fsm::FsmCircuit c;
  c.enc.num_inputs = r;
  c.enc.num_state_bits = s;
  c.enc.num_outputs = static_cast<int>(nl.num_outputs()) - s;
  c.netlist = std::move(nl);
  return c;
}

/// Seeded random netlist: constants, gates of every type with 1-4 fan-ins
/// drawn with repetition, and outputs drawn from every net (inputs and
/// repeats included).
fsm::FsmCircuit random_circuit(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  const int r = static_cast<int>(pick(9));      // 0 .. 8: partial batches too
  const int s = 1 + static_cast<int>(pick(4));  // 1 .. 4
  logic::Netlist nl;
  for (int i = 0; i < r; ++i) nl.add_input("i" + std::to_string(i));
  for (int i = 0; i < s; ++i) nl.add_input("q" + std::to_string(i));
  nl.add_const(false);
  nl.add_const(true);
  static constexpr logic::GateType kTypes[] = {
      logic::GateType::kBuf, logic::GateType::kNot,  logic::GateType::kAnd,
      logic::GateType::kOr,  logic::GateType::kNand, logic::GateType::kNor,
      logic::GateType::kXor, logic::GateType::kXnor};
  const int gates = 10 + static_cast<int>(pick(50));
  for (int g = 0; g < gates; ++g) {
    const logic::GateType t = kTypes[pick(8)];
    const std::size_t arity =
        (t == logic::GateType::kBuf || t == logic::GateType::kNot)
            ? 1
            : 1 + pick(4);
    std::vector<std::uint32_t> fanins;
    for (std::size_t k = 0; k < arity; ++k) {
      fanins.push_back(static_cast<std::uint32_t>(pick(nl.num_nets())));
    }
    nl.add_gate(t, std::move(fanins));
  }
  const int outs = s + 1 + static_cast<int>(pick(4));
  for (int o = 0; o < outs; ++o) {
    nl.mark_output(static_cast<std::uint32_t>(pick(nl.num_nets())),
                   "o" + std::to_string(o));
  }
  return wrap(std::move(nl), r, s);
}

fsm::FsmCircuit handwritten_circuit(const std::string& name) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
}

// ------------------------------------------------------- compiled netlist

TEST(CompiledSim, FullEvalMatchesInterpreter) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const fsm::FsmCircuit c = random_circuit(seed);
    const CompiledNetlist net(c.netlist);
    std::mt19937_64 rng(seed);
    std::vector<std::uint64_t> words(c.netlist.num_inputs());
    for (auto& w : words) w = rng();
    std::vector<std::uint64_t> want;
    c.netlist.eval(words, want);
    std::vector<std::uint64_t> got(net.num_nets());
    net.eval(words.data(), got.data());
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(CompiledSim, FanoutsAreDistinctAndConesTopological) {
  logic::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto x = nl.add_gate(logic::GateType::kXor, {a, a, b});  // repeat
  const auto y = nl.add_gate(logic::GateType::kAnd, {x, x});
  const auto z = nl.add_gate(logic::GateType::kOr, {b, y});
  nl.mark_output(z, "z");
  const CompiledNetlist net(nl);
  ASSERT_EQ(net.fanouts(a).size(), 1u);
  EXPECT_EQ(net.fanouts(a)[0], x);
  ASSERT_EQ(net.fanouts(x).size(), 1u);
  EXPECT_EQ(net.fanouts(b).size(), 2u);
  EXPECT_EQ(net.cone(a), (std::vector<std::uint32_t>{x, y, z}));
  EXPECT_EQ(net.cone(b), (std::vector<std::uint32_t>{x, y, z}));
  EXPECT_TRUE(net.cone(z).empty());
}

// --------------------------------------------------- differential: rows

TEST(CompiledSim, RandomNetlistsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const fsm::FsmCircuit c = random_circuit(seed);
    expect_matches_reference(c, all_injections(c.netlist));
  }
}

TEST(CompiledSim, HandwrittenMachinesMatchReference) {
  for (const auto& [name, kiss] : benchdata::handwritten_fsms()) {
    SCOPED_TRACE(name);
    const fsm::FsmCircuit c = handwritten_circuit(name);
    expect_matches_reference(c, all_injections(c.netlist));
  }
}

class CompiledSimSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(CompiledSimSuite, EveryFaultEveryCodeMatchesReference) {
  const fsm::FsmCircuit c = fsm::synthesize_fsm(
      benchdata::suite_fsm(GetParam()), fsm::EncodingKind::kBinary, {});
  std::vector<logic::Injection> injections;
  for (const StuckAtFault& f : enumerate_stuck_at(c.netlist)) {
    injections.push_back(f.injection());
  }
  const SimCounters k = expect_matches_reference(c, injections);
  EXPECT_GT(k.batches_screened, 0u);
  EXPECT_GT(k.batches_simulated, 0u);
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const auto& e : benchdata::mcnc_suite()) names.push_back(e.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Mcnc, CompiledSimSuite,
                         ::testing::ValuesIn(suite_names()),
                         [](const auto& info) { return info.param; });

// ------------------------------------------------------------- edge cases

TEST(CompiledSim, PartialBatchBelowSixInputs) {
  // r = 2: one batch whose upper 60 patterns repeat the 4 real inputs.
  logic::Netlist nl;
  const auto i0 = nl.add_input("i0");
  const auto i1 = nl.add_input("i1");
  const auto q0 = nl.add_input("q0");
  const auto g = nl.add_gate(logic::GateType::kAnd, {i0, i1});
  const auto h = nl.add_gate(logic::GateType::kXor, {g, q0});
  nl.mark_output(h, "d0");
  nl.mark_output(g, "out");
  const fsm::FsmCircuit c = wrap(std::move(nl), 2, 1);
  CircuitSim shared(c);
  EXPECT_EQ(shared.num_batches(), 1u);
  EXPECT_EQ(batch_valid_mask(2, 0), 0xFull);
  EXPECT_EQ(shared.simulate(0).rows.size(), 4u);
  expect_matches_reference(c, all_injections(c.netlist));
}

TEST(CompiledSim, FaultsOnPrimaryAndStateInputs) {
  const fsm::FsmCircuit c = handwritten_circuit("arbiter");
  CircuitSim shared(c);
  FaultSim fs(shared);
  const auto& inputs = c.netlist.inputs();
  std::vector<logic::Injection> injections;
  for (const std::uint32_t in : inputs) {
    injections.push_back({in, 0});
    injections.push_back({in, ~std::uint64_t{0}});
  }
  expect_matches_reference(c, injections);

  // A present-state bit stuck at the value it already has is screened in
  // every batch: the rows are the golden rows themselves.
  const std::uint32_t state0 = inputs[static_cast<std::size_t>(c.r())];
  fs.arm({state0, 0});
  const auto& rows = fs.faulty_rows(0);
  EXPECT_EQ(&rows, &fs.golden(0).rows);
  EXPECT_EQ(fs.counters().batches_simulated, 0u);
  EXPECT_EQ(fs.counters().batches_screened, shared.num_batches());
}

TEST(CompiledSim, FaultedNetIsAnOutputMarkedTwice) {
  logic::Netlist nl;
  const auto i0 = nl.add_input("i0");
  const auto i1 = nl.add_input("i1");
  const auto q0 = nl.add_input("q0");
  const auto g = nl.add_gate(logic::GateType::kOr, {i0, q0});
  const auto h = nl.add_gate(logic::GateType::kNand, {g, i1});
  nl.mark_output(g, "d0");   // next-state bit ...
  nl.mark_output(g, "o0");   // ... and a primary output on the same net
  nl.mark_output(h, "o1");
  nl.mark_output(i1, "o2");  // an input observed directly
  const fsm::FsmCircuit c = wrap(std::move(nl), 2, 1);
  expect_matches_reference(c, all_injections(c.netlist));

  CircuitSim shared(c);
  FaultSim fs(shared);
  fs.arm({g, ~std::uint64_t{0}});
  const auto& rows = fs.faulty_rows(0);
  for (std::uint64_t a = 0; a < rows.size(); ++a) {
    EXPECT_EQ(rows[a] & 0b11, 0b11u) << a;  // both copies of g read 1
  }
}

TEST(CompiledSim, RepeatedFaninGates) {
  logic::Netlist nl;
  const auto i0 = nl.add_input("i0");
  const auto i1 = nl.add_input("i1");
  const auto i2 = nl.add_input("i2");
  const auto q0 = nl.add_input("q0");
  const auto x = nl.add_gate(logic::GateType::kXor, {i0, i0, i1});
  const auto y = nl.add_gate(logic::GateType::kXnor, {x, x});
  const auto z = nl.add_gate(logic::GateType::kAnd, {i2, i2, q0, x});
  const auto w = nl.add_gate(logic::GateType::kNor, {y, z, z});
  nl.mark_output(w, "d0");
  nl.mark_output(z, "o0");
  nl.mark_output(y, "o1");
  const fsm::FsmCircuit c = wrap(std::move(nl), 3, 1);
  expect_matches_reference(c, all_injections(c.netlist));
}

TEST(CompiledSim, ReachableCodesMatchGoldenClosure) {
  const fsm::FsmCircuit c = handwritten_circuit("seq_detect");
  CircuitSim shared(c);
  const auto codes = shared.populate_reachable(c.enc.reset_code);
  EXPECT_EQ(codes, reachable_codes(c, c.enc.reset_code));
  for (const std::uint64_t code : codes) {
    ASSERT_NE(shared.find(code), nullptr);
    for (const std::uint64_t obs : shared.find(code)->rows) {
      EXPECT_TRUE(std::binary_search(codes.begin(), codes.end(),
                                     c.next_state_of(obs)));
    }
  }
}

TEST(CompiledSim, ConcurrentWorkersShareTheGoldenCache) {
  // The extraction fan-out: one shared cache, filled up front and then
  // only read, under several workers with private FaultSims and overlays.
  const fsm::FsmCircuit c = fsm::synthesize_fsm(
      benchdata::suite_fsm("s386"), fsm::EncodingKind::kBinary, {});
  CircuitSim shared(c);
  shared.populate_reachable(c.enc.reset_code);
  const auto faults = enumerate_stuck_at(c.netlist);
  const std::uint64_t num_codes = std::uint64_t{1} << c.s();

  std::vector<std::vector<std::vector<std::uint64_t>>> want(faults.size());
  FaultSim serial(shared);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    serial.arm(faults[i].injection());
    for (std::uint64_t code = 0; code < num_codes; ++code) {
      want[i].push_back(serial.faulty_rows(code));
    }
  }

  constexpr std::size_t kWorkers = 4;
  std::vector<std::size_t> mismatches(kWorkers, 0);
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&, w] {
      FaultSim fs(shared);
      for (std::size_t i = w; i < faults.size(); i += kWorkers) {
        fs.arm(faults[i].injection());
        for (std::uint64_t code = 0; code < num_codes; ++code) {
          if (fs.faulty_rows(code) != want[i][code]) ++mismatches[w];
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(mismatches[w], 0u) << "worker " << w;
  }
}

// ------------------------------------------------ campaign FaultSession

/// Checker verdict by single-pattern evaluation of the checker netlist.
bool reference_error(const core::CedHardware& hw, std::uint64_t input,
                     std::uint64_t code, std::uint64_t obs) {
  return hw.error_asserted(input, code, obs);
}

void expect_row_matches(const core::CedHardware& hw, const TransitionRow& row,
                        const std::vector<std::uint64_t>& want,
                        std::uint64_t code) {
  ASSERT_EQ(row.response, want) << "code " << code;
  for (std::uint64_t a = 0; a < want.size(); ++a) {
    ASSERT_EQ(row.error_at(a), reference_error(hw, a, code, want[a]))
        << "code " << code << " input " << a;
  }
}

struct Protected {
  fsm::FsmCircuit circuit;
  core::CedHardware hw;
};

Protected protect(fsm::FsmCircuit c) {
  Protected p{std::move(c), {}};
  // Single-bit parities on the low observable bits plus the full parity:
  // enough to give the checker a nontrivial verdict pattern.
  std::vector<core::ParityFunc> parities = {1, 2};
  parities.push_back((core::ParityFunc{1} << p.circuit.n()) - 1);
  p.hw = core::synthesize_ced(p.circuit, parities);
  return p;
}

TEST(CompiledSimSession, StuckAtRowsEqualFullResimulation) {
  for (const char* name : {"vending", "arbiter", "traffic"}) {
    SCOPED_TRACE(name);
    const Protected p = protect(handwritten_circuit(name));
    const ProtectedMachine pm(p.circuit, p.hw);
    FaultSession session(pm);
    const std::uint64_t num_codes = std::uint64_t{1} << p.circuit.s();
    for (const StuckAtFault& f : enumerate_stuck_at(p.circuit.netlist)) {
      const logic::Injection inj = f.injection();
      session.arm(&inj);
      for (std::uint64_t code = 0; code < num_codes; ++code) {
        expect_row_matches(p.hw, session.faulty_row(code),
                           reference_rows(p.circuit, code, &inj), code);
      }
    }
    EXPECT_GT(session.checker_batches_reused(), 0u);
  }
}

TEST(CompiledSimSession, SuiteStuckAtRowsEqualFullResimulation) {
  // r = 7: two batches per state, so reuse and re-evaluation mix per row.
  const Protected p = protect(fsm::synthesize_fsm(
      benchdata::suite_fsm("s386"), fsm::EncodingKind::kBinary, {}));
  const ProtectedMachine pm(p.circuit, p.hw);
  FaultSession session(pm);
  const auto faults = enumerate_stuck_at(p.circuit.netlist);
  for (std::size_t i = 0; i < faults.size(); i += 3) {
    const logic::Injection inj = faults[i].injection();
    session.arm(&inj);
    for (const std::uint64_t code : pm.reachable()) {
      expect_row_matches(p.hw, session.faulty_row(code),
                         reference_rows(p.circuit, code, &inj), code);
    }
  }
}

TEST(CompiledSimSession, FlipModelGoldenRowsEqualFullResimulation) {
  // Transient and adversarial flips run the fault-free logic from
  // corrupted codes: every code (reachable -> shared row, corrupted ->
  // private row) must match re-simulation, across re-arming.
  for (const char* name : {"vending", "link_rx"}) {
    SCOPED_TRACE(name);
    const Protected p = protect(handwritten_circuit(name));
    const ProtectedMachine pm(p.circuit, p.hw);
    FaultSession session(pm);
    const std::uint64_t num_codes = std::uint64_t{1} << p.circuit.s();
    for (int round = 0; round < 2; ++round) {
      session.arm(nullptr);
      for (const std::uint64_t c0 : pm.reachable()) {
        for (std::uint64_t mask = 0; mask < num_codes; ++mask) {
          const std::uint64_t code = c0 ^ mask;
          expect_row_matches(p.hw, session.golden_row(code),
                             reference_rows(p.circuit, code, nullptr), code);
        }
      }
    }
    EXPECT_THROW(session.faulty_row(pm.reachable().front()),
                 std::logic_error);
  }
}

// ------------------------------------ checker response-cone evaluation

/// Every checker verdict a session produces — faulty rows under every
/// stuck-at fault and fault-free rows, at every state code — against a
/// single-pattern evaluation of the whole checker netlist.
void expect_verdicts_match_full_checker(const fsm::FsmCircuit& c,
                                        const core::CedHardware& hw) {
  const ProtectedMachine pm(c, hw);
  FaultSession session(pm);
  const std::uint64_t num_codes = std::uint64_t{1} << c.s();
  const auto check = [&](const TransitionRow& row, std::uint64_t code,
                         const char* what) {
    for (std::uint64_t a = 0; a < pm.num_inputs(); ++a) {
      ASSERT_EQ(row.error_at(a), hw.error_asserted(a, code, row.response[a]))
          << what << " row, code " << code << " input " << a;
    }
  };
  for (const StuckAtFault& f : enumerate_stuck_at(c.netlist)) {
    const logic::Injection inj = f.injection();
    session.arm(&inj);
    for (std::uint64_t code = 0; code < num_codes; ++code) {
      check(session.faulty_row(code), code, "faulty");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  for (std::uint64_t code = 0; code < num_codes; ++code) {
    check(session.golden_row(code), code, "golden");
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(session.checker_cone_evals(), 0u);
  EXPECT_EQ(session.checker_gate_evals(),
            session.checker_cone_evals() * pm.checker_cone().size());
}

TEST(ProtectedMachine, ConeVerdictMatchesFullChecker) {
  struct Variant {
    const char* name;
    core::CedSynthOptions opts;
    std::size_t taps = 3;  ///< leading entries of {1, 2, full parity}
  };
  std::vector<Variant> variants(7);
  variants[0].name = "default";
  variants[1].name = "two_rail";
  variants[1].opts.two_rail = true;
  variants[2].name = "unoptimized";
  variants[2].opts.optimize = false;
  variants[3].name = "unfactored";
  variants[3].opts.factor = false;
  variants[4].name = "dc_unreachable off";
  variants[4].opts.dc_unreachable = false;
  variants[5].name = "single tap";
  variants[5].taps = 1;
  variants[6].name = "no taps";  // constant error net: the cone is empty
  variants[6].taps = 0;
  for (const char* circuit : {"vending", "arbiter", "traffic"}) {
    const fsm::FsmCircuit c = handwritten_circuit(circuit);
    for (const Variant& v : variants) {
      SCOPED_TRACE(std::string(circuit) + " / " + v.name);
      std::vector<core::ParityFunc> parities = {
          1, 2, (core::ParityFunc{1} << c.n()) - 1};
      parities.resize(v.taps);
      expect_verdicts_match_full_checker(
          c, core::synthesize_ced(c, parities, v.opts));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ProtectedMachine, ConeVerdictMatchesFullCheckerWhenErrorIsAResponseInput) {
  // The first output is 0 on every reachable transition (only the
  // unreachable state C raises it), and so is the high next-state bit (C
  // is never entered). Under a single tap on such a bit b_j the prediction
  // is constant 0, and optimization folds the comparator XOR(b_j, 0) down
  // to the observable input b_j itself: the error net has no cone gates.
  const fsm::FsmCircuit c = fsm::synthesize_fsm(
      fsm::Fsm::from_kiss(kiss::parse(".i 1\n.o 2\n.s 3\n.r A\n"
                                      "0 A A 00\n1 A B 01\n"
                                      "0 B A 01\n1 B B 00\n"
                                      "0 C A 10\n1 C B 11\n")),
      fsm::EncodingKind::kBinary, {});
  const auto obs = static_cast<std::size_t>(c.r() + c.s());
  int folded = 0;
  for (int bit = 0; bit < c.n(); ++bit) {
    SCOPED_TRACE("tap on bit " + std::to_string(bit));
    const std::vector<core::ParityFunc> parities = {
        core::ParityFunc{1} << bit};
    const core::CedHardware hw = core::synthesize_ced(c, parities);
    const auto& in = hw.checker.inputs();
    folded += std::find(in.begin() + static_cast<std::ptrdiff_t>(obs),
                        in.end(), hw.checker.outputs().back()) != in.end();
    expect_verdicts_match_full_checker(c, hw);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(folded, 2);

  // The same case built by hand: the error output is the response input
  // b0, on a circuit where faults do flip b0.
  const fsm::FsmCircuit v = handwritten_circuit("vending");
  const std::vector<core::ParityFunc> tap0 = {1};
  core::CedHardware hw = core::synthesize_ced(v, tap0);
  hw.checker = logic::Netlist{};
  for (int i = 0; i < v.r() + v.s() + v.n(); ++i) {
    hw.checker.add_input("x" + std::to_string(i));
  }
  const std::uint32_t b0 = hw.checker.inputs()[static_cast<std::size_t>(
      v.r() + v.s())];
  hw.checker.mark_output(b0, "compacted0");
  hw.checker.mark_output(hw.checker.add_const(false), "predicted0");
  hw.checker.mark_output(b0, "error");
  const ProtectedMachine pm(v, hw);
  EXPECT_TRUE(pm.checker_cone().empty());
  expect_verdicts_match_full_checker(v, hw);
}

TEST(ProtectedMachine, ConeVerdictMatchesFullCheckerAcrossBatches) {
  // r = 7: two batches per state, so cone-evaluated and reused batches mix
  // within a row; the two-rail comparator widens the cone.
  const fsm::FsmCircuit c = fsm::synthesize_fsm(
      benchdata::suite_fsm("s386"), fsm::EncodingKind::kBinary, {});
  core::CedSynthOptions opts;
  opts.two_rail = true;
  const std::vector<core::ParityFunc> parities = {
      3, (core::ParityFunc{1} << c.n()) - 1};
  const core::CedHardware hw = core::synthesize_ced(c, parities, opts);
  const ProtectedMachine pm(c, hw);
  FaultSession session(pm);
  const auto faults = enumerate_stuck_at(c.netlist);
  for (std::size_t i = 0; i < faults.size(); i += 5) {
    const logic::Injection inj = faults[i].injection();
    session.arm(&inj);
    for (const std::uint64_t code : pm.reachable()) {
      const TransitionRow& row = session.faulty_row(code);
      for (std::uint64_t a = 0; a < pm.num_inputs(); ++a) {
        ASSERT_EQ(row.error_at(a),
                  hw.error_asserted(a, code, row.response[a]))
            << "fault " << i << " code " << code << " input " << a;
      }
    }
  }
  EXPECT_GT(session.checker_cone_evals(), 0u);
  EXPECT_GT(session.checker_batches_reused(), 0u);
}

TEST(ProtectedMachine, ConeAndFrontierCoverEveryConeFanIn) {
  const Protected p = protect(handwritten_circuit("traffic"));
  const ProtectedMachine pm(p.circuit, p.hw);
  const CompiledNetlist net(p.hw.checker);
  const auto cone = pm.checker_cone();
  const auto frontier = pm.checker_frontier();
  ASSERT_TRUE(std::is_sorted(cone.begin(), cone.end()));
  ASSERT_TRUE(std::is_sorted(frontier.begin(), frontier.end()));
  EXPECT_LT(cone.size(), pm.checker_nets());
  EXPECT_FALSE(frontier.empty());  // the prediction logic feeds the cone
  const auto obs = net.inputs().subspan(
      static_cast<std::size_t>(p.hw.r + p.hw.s));
  const auto has = [](std::span<const std::uint32_t> v, std::uint32_t x) {
    return std::binary_search(v.begin(), v.end(), x);
  };
  for (const std::uint32_t g : cone) {
    for (const std::uint32_t f : net.fanins(g)) {
      EXPECT_TRUE(has(cone, f) || has(frontier, f) ||
                  std::find(obs.begin(), obs.end(), f) != obs.end())
          << "gate " << g << " reads net " << f;
    }
  }
  for (const std::uint32_t f : frontier) EXPECT_FALSE(has(cone, f));
  // The error output is the last checker output and lies in the cone.
  EXPECT_TRUE(has(cone, net.outputs().back()));
}

}  // namespace
}  // namespace ced::sim
