#include "core/verify.hpp"

#include "core/rng.hpp"
#include "sim/compiled_sim.hpp"

namespace ced::core {
namespace {

struct WalkOutcome {
  std::size_t activations = 0;
  std::size_t violations = 0;
  int max_latency = 0;
  bool any_error = false;
};

/// Runs one input walk with an optional fault and scores detection latency.
WalkOutcome run_walk(const fsm::FsmCircuit& circuit, const CedHardware& hw,
                     const logic::Injection* inj, std::uint64_t start_state,
                     int steps, int bound, Rng& rng,
                     std::vector<std::string>* messages) {
  WalkOutcome out;
  const std::uint64_t input_mask =
      (std::uint64_t{1} << circuit.r()) - 1;
  std::uint64_t state = start_state;
  int pending = -1;  // transition index of the earliest undetected activation

  for (int t = 0; t < steps; ++t) {
    const std::uint64_t a = rng.next() & input_mask;
    const std::uint64_t obs = circuit.eval(a, state, inj);
    const bool err = hw.error_asserted(a, state, obs);

    if (inj != nullptr) {
      const std::uint64_t golden = circuit.eval(a, state);
      if (obs != golden && pending < 0) {
        pending = t;
        ++out.activations;
      }
    }

    if (err) {
      out.any_error = true;
      if (pending >= 0) {
        const int lat = t - pending + 1;
        out.max_latency = std::max(out.max_latency, lat);
        if (lat > bound) {
          ++out.violations;
          if (messages && messages->size() < 8) {
            messages->push_back("detection after " + std::to_string(lat) +
                                " transitions (bound " +
                                std::to_string(bound) + ")");
          }
        }
        pending = -1;
      }
      // System-level recovery: once the error signal fires, the machine is
      // restarted. Without this, later activations could begin at corrupted
      // state codes outside the enumerated (reachable) activation set.
      state = circuit.enc.reset_code;
      continue;
    }
    if (pending >= 0 && t - pending + 1 >= bound) {
      ++out.violations;
      if (messages && messages->size() < 8) {
        messages->push_back(
            "no detection within " + std::to_string(bound) +
            " transitions of activation at state code " +
            std::to_string(state));
      }
      pending = -1;
      state = circuit.enc.reset_code;
      continue;
    }

    state = circuit.next_state_of(obs);
  }
  return out;
}

}  // namespace

VerifyResult verify_bounded_detection(const fsm::FsmCircuit& circuit,
                                      const CedHardware& hw,
                                      std::span<const sim::StuckAtFault> faults,
                                      int latency_bound,
                                      const VerifyOptions& opts) {
  VerifyResult res;
  res.faults_total = faults.size();
  Rng rng(opts.seed);

  const auto reachable =
      sim::reachable_codes(circuit, circuit.enc.reset_code);

  // Fault-free runs: the error signal must stay silent.
  for (int w = 0; w < opts.fault_free_walks; ++w) {
    const std::uint64_t start =
        reachable[static_cast<std::size_t>(w) % reachable.size()];
    const auto out = run_walk(circuit, hw, nullptr, start, opts.walk_length,
                              latency_bound, rng, nullptr);
    if (out.any_error) {
      ++res.false_alarms;
      if (res.messages.size() < 8) {
        res.messages.push_back("false alarm in fault-free walk " +
                               std::to_string(w));
      }
    }
  }

  for (const auto& f : faults) {
    const logic::Injection inj = f.injection();
    bool activated = false;
    for (int w = 0; w < opts.walks; ++w) {
      const std::uint64_t start =
          reachable[(static_cast<std::size_t>(w) + f.net) % reachable.size()];
      const auto out = run_walk(circuit, hw, &inj, start, opts.walk_length,
                                latency_bound, rng, &res.messages);
      res.activations_checked += out.activations;
      res.violations += out.violations;
      res.max_latency_observed =
          std::max(res.max_latency_observed, out.max_latency);
      if (out.activations > 0) activated = true;
    }
    if (activated) ++res.faults_activated;
  }
  return res;
}

}  // namespace ced::core
