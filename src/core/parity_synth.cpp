#include "core/parity_synth.hpp"

#include <stdexcept>
#include <unordered_set>

#include "logic/factor.hpp"
#include "logic/opt.hpp"
#include "sim/compiled_sim.hpp"

namespace ced::core {

bool CedHardware::error_asserted(std::uint64_t input,
                                 std::uint64_t state_code,
                                 std::uint64_t observable) const {
  const std::uint64_t assignment =
      input | (state_code << r) | (observable << (r + s));
  const std::uint64_t outs = checker.eval_single(assignment);
  // Output order: q compacted, q predicted, [rail0, rail1,] error.
  const int error_index = 2 * q + (two_rail ? 2 : 0);
  return ((outs >> error_index) & 1) != 0;
}

CedHardware synthesize_ced(const fsm::FsmCircuit& circuit,
                           std::span<const ParityFunc> parities,
                           const CedSynthOptions& opts) {
  CedHardware hw;
  hw.parities.assign(parities.begin(), parities.end());
  hw.r = circuit.r();
  hw.s = circuit.s();
  hw.n = circuit.n();
  hw.q = static_cast<int>(parities.size());
  hw.hold_registers = 2 * parities.size();

  if (hw.r + hw.s + hw.n > 62) {
    throw std::invalid_argument("synthesize_ced: checker input space too wide");
  }

  logic::Netlist& nl = hw.checker;
  std::vector<std::uint32_t> in_nets, st_nets, obs_nets;
  for (int i = 0; i < hw.r; ++i) {
    in_nets.push_back(nl.add_input("in" + std::to_string(i)));
  }
  for (int i = 0; i < hw.s; ++i) {
    st_nets.push_back(nl.add_input("st" + std::to_string(i)));
  }
  for (int i = 0; i < hw.n; ++i) {
    obs_nets.push_back(nl.add_input("b" + std::to_string(i)));
  }

  logic::SynthContext ctx(nl, opts.synth);

  // --- Compaction: one XOR tree per parity function.
  std::vector<std::uint32_t> compact_nets;
  for (std::size_t l = 0; l < parities.size(); ++l) {
    std::vector<std::uint32_t> taps;
    for (int j = 0; j < hw.n; ++j) {
      if ((parities[l] >> j) & 1) taps.push_back(obs_nets[static_cast<std::size_t>(j)]);
    }
    const std::uint32_t net = ctx.xor_tree(std::move(taps));
    compact_nets.push_back(net);
  }

  // --- Prediction logic: parity of the fault-free response, as a function
  // of (input, present state).
  const int vars = hw.r + hw.s;
  std::vector<logic::SopSpec> specs(parities.size(), logic::SopSpec(vars));
  {
    sim::CircuitSim golden(circuit);
    std::unordered_set<std::uint64_t> reachable;
    for (std::uint64_t c : golden.populate_reachable(circuit.enc.reset_code)) {
      reachable.insert(c);
    }
    const std::uint64_t num_codes = std::uint64_t{1} << hw.s;
    const std::uint64_t num_inputs = std::uint64_t{1} << hw.r;
    for (std::uint64_t code = 0; code < num_codes; ++code) {
      const bool dc = opts.dc_unreachable && !reachable.count(code);
      if (dc) {
        for (auto& spec : specs) {
          for (std::uint64_t a = 0; a < num_inputs; ++a) {
            spec.dc.set(circuit.enc.pack(a, code));
          }
        }
        continue;
      }
      // Unreachable codes (kept as care points when !dc_unreachable) are
      // simulated on demand rather than cached.
      const sim::GoldenState* g = golden.find(code);
      sim::GoldenState unreached;
      if (g == nullptr) {
        unreached = golden.simulate(code);
        g = &unreached;
      }
      const auto& rows = g->rows;
      for (std::uint64_t a = 0; a < num_inputs; ++a) {
        const std::uint64_t alpha = circuit.enc.pack(a, code);
        for (std::size_t l = 0; l < parities.size(); ++l) {
          if (std::popcount(parities[l] & rows[a]) & 1) {
            specs[l].on.set(alpha);
          }
        }
      }
    }
  }

  std::vector<std::uint32_t> pred_vars = in_nets;
  pred_vars.insert(pred_vars.end(), st_nets.begin(), st_nets.end());
  std::vector<std::uint32_t> pred_nets;
  for (std::size_t l = 0; l < parities.size(); ++l) {
    logic::Cover cover =
        opts.minimizer == fsm::MinimizerKind::kExact
            ? logic::minimize_exact(specs[l])
            : (opts.minimizer == fsm::MinimizerKind::kNone
                   ? logic::cover_from_on_set(specs[l])
                   : logic::minimize_espresso(specs[l]));
    if (opts.factor) {
      pred_nets.push_back(logic::synthesize_factor(
          ctx, logic::factor_cover(cover), pred_vars));
    } else {
      pred_nets.push_back(ctx.sop(cover, pred_vars));
    }
  }

  // --- Comparator over the held values.
  for (std::size_t l = 0; l < compact_nets.size(); ++l) {
    nl.mark_output(compact_nets[l], "compact" + std::to_string(l));
  }
  for (std::size_t l = 0; l < pred_nets.size(); ++l) {
    nl.mark_output(pred_nets[l], "pred" + std::to_string(l));
  }
  if (opts.two_rail && !parities.empty()) {
    hw.two_rail = true;
    // Dual-rail pairs (compact_l, NOT pred_l): complementary exactly when
    // compact_l == pred_l. A tree of two-rail checker cells reduces them
    // to one pair; rails equal <=> some pair was non-complementary.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::size_t l = 0; l < compact_nets.size(); ++l) {
      pairs.emplace_back(compact_nets[l], ctx.inverted(pred_nets[l]));
    }
    while (pairs.size() > 1) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> next;
      for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
        const auto [a0, a1] = pairs[i];
        const auto [b0, b1] = pairs[i + 1];
        const std::uint32_t z1 = nl.add_gate(
            logic::GateType::kOr,
            {nl.add_gate(logic::GateType::kAnd, {a1, b1}),
             nl.add_gate(logic::GateType::kAnd, {a0, b0})});
        const std::uint32_t z0 = nl.add_gate(
            logic::GateType::kOr,
            {nl.add_gate(logic::GateType::kAnd, {a1, b0}),
             nl.add_gate(logic::GateType::kAnd, {a0, b1})});
        next.emplace_back(z0, z1);
      }
      if (pairs.size() % 2 == 1) next.push_back(pairs.back());
      pairs = std::move(next);
    }
    nl.mark_output(pairs[0].first, "rail0");
    nl.mark_output(pairs[0].second, "rail1");
    nl.mark_output(
        nl.add_gate(logic::GateType::kXnor, {pairs[0].first, pairs[0].second}),
        "error");
  } else {
    const std::uint32_t error_net = ctx.comparator(compact_nets, pred_nets);
    nl.mark_output(error_net, "error");
  }
  if (opts.optimize) {
    hw.checker = logic::optimize_netlist(hw.checker);
  }
  return hw;
}

}  // namespace ced::core
