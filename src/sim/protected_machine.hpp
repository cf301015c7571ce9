#pragma once

// Cycle-accurate model of the full protected design of Fig. 3: the
// functional FSM netlist advancing its state register while the synthesized
// checker (parity compaction trees + prediction logic + comparator, built by
// core/parity_synth) watches every transition. The campaign engine
// (sim/campaign.hpp) drives this model under injected faults. The FSM side
// runs on the compiled simulator of sim/compiled_sim.hpp, 64 concrete input
// values per batch: faulty responses come from the screened, cone-restricted
// fault simulation over the golden net cache, and the checker netlist is
// evaluated only for batches whose faulty responses differ from golden — a
// batch that answers exactly like the fault-free machine reuses the golden
// checker-verdict word. That reuse is exact because the checker is a pure
// function of (input, present state, response).
//
// A ProtectedMachine holds the shared, immutable golden data (reachable
// set, golden net cache, fault-free response rows and checker verdicts),
// and each worker owns a FaultSession whose caches may grow into corrupted
// state codes the golden machine never visits. Sessions never write shared
// state, which is what lets the campaign fan units out with parallel_for
// and stay deterministic.

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/parity_synth.hpp"
#include "fsm/synthesize.hpp"
#include "sim/compiled_sim.hpp"

namespace ced::sim {

/// One state's fully-simulated transition row: the FSM response per input
/// plus the checker verdict per input, for a fixed injection context.
struct TransitionRow {
  std::vector<std::uint64_t> response;  ///< packed observable word per input
  std::vector<std::uint64_t> error;     ///< packed checker bits, 64 per word

  bool error_at(std::uint64_t input) const {
    return ((error[input >> 6] >> (input & 63)) & 1) != 0;
  }
};

/// Working buffers of one checker-netlist evaluation. `words` holds the
/// r + s + n checker input words of a batch; callers write the n
/// observable (FSM response) words at offset r + s.
struct CheckerScratch {
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> values;
};

/// Shared, immutable-after-construction view of the protected design: the
/// functional circuit and its golden net cache, the compiled checker, the
/// reachable state set, and the fault-free rows (response + checker
/// verdict) for every reachable state. Construction runs the golden
/// simulation once; afterwards the object is read-only and safe to share
/// across campaign workers.
class ProtectedMachine {
 public:
  ProtectedMachine(const fsm::FsmCircuit& circuit,
                   const core::CedHardware& hw);

  const fsm::FsmCircuit& circuit() const { return circuit_; }
  const core::CedHardware& hw() const { return hw_; }
  const CircuitSim& fsm() const { return fsm_; }
  const std::vector<std::uint64_t>& reachable() const { return reachable_; }
  std::uint64_t num_inputs() const {
    return std::uint64_t{1} << circuit_.r();
  }

  /// Fault-free row for a *reachable* state; nullptr for any other code
  /// (sessions fall back to their private caches for those).
  const TransitionRow* golden_row(std::uint64_t state_code) const;

  /// Buffers sized for checker_word().
  CheckerScratch scratch() const;
  /// Checker verdicts of batch `b` at `state_code` for the observable
  /// words already in `sc.words`: bit t is 1 iff the error output fires on
  /// input 64b + t (only valid inputs can be set).
  std::uint64_t checker_word(std::uint64_t state_code, std::uint64_t b,
                             CheckerScratch& sc) const;
  /// The fault-free row of a state from its golden simulation.
  TransitionRow fault_free_row(const GoldenState& g, std::uint64_t state_code,
                               CheckerScratch& sc) const;

 private:
  const fsm::FsmCircuit& circuit_;
  const core::CedHardware& hw_;
  CircuitSim fsm_;
  CompiledNetlist checker_;
  std::uint32_t error_net_ = 0;
  std::vector<std::uint64_t> reachable_;
  std::unordered_map<std::uint64_t, TransitionRow> golden_;
};

/// A worker's private simulation context. arm() selects the fault (or the
/// fault-free logic when `injection` is null — the transient-flip models
/// corrupt the state register, not the logic); faulty rows are memoized
/// per state code until the next arm(). Fault-free rows read through to
/// the shared ProtectedMachine for reachable codes and are simulated
/// privately for corrupted ones (where the checker verdict is genuinely
/// interesting: prediction don't-cares at unreachable codes mean the
/// fault-free logic can raise the error signal there); those survive
/// re-arming, so one session serves a whole shard of units.
class FaultSession {
 public:
  explicit FaultSession(const ProtectedMachine& pm);

  /// Makes `injection` the active fault (copied; null = none).
  void arm(const logic::Injection* injection);

  /// Row of the machine with the session's fault active. Requires an armed
  /// injection.
  const TransitionRow& faulty_row(std::uint64_t state_code);

  /// Row of the fault-free machine at `state_code` (any code, reachable or
  /// not). Used for divergence reference and for aged-out faults.
  const TransitionRow& golden_row(std::uint64_t state_code);

  const ProtectedMachine& machine() const { return pm_; }
  const SimCounters& sim_counters() const { return sim_.counters(); }
  /// Faulty batches that reused the golden checker-verdict word.
  std::uint64_t checker_batches_reused() const { return reused_; }

 private:
  const ProtectedMachine& pm_;
  FaultSim sim_;
  bool armed_ = false;
  std::unordered_map<std::uint64_t, const TransitionRow*> faulty_;
  std::deque<TransitionRow> owned_;
  std::unordered_map<std::uint64_t, TransitionRow> golden_local_;
  CheckerScratch scratch_;
  std::uint64_t reused_ = 0;
};

}  // namespace ced::sim
