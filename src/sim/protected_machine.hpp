#pragma once

// Cycle-accurate model of the full protected design of Fig. 3: the
// functional FSM netlist advancing its state register while the synthesized
// checker (parity compaction trees + prediction logic + comparator, built by
// core/parity_synth) watches every transition. The campaign engine
// (sim/campaign.hpp) drives this model under injected faults. The FSM side
// runs on the compiled simulator of sim/compiled_sim.hpp, 64 concrete input
// values per batch: faulty responses come from the screened, cone-restricted
// fault simulation over the golden net cache.
//
// Checker evaluation. The full checker netlist runs only where golden rows
// are built. A faulty batch whose responses equal golden reuses the golden
// checker-verdict word. A batch whose responses differ re-evaluates only the
// checker's *response cone*: the gates with a transitive fan-in from the n
// observable inputs (the compaction trees and the comparator). The nets
// outside the cone that a cone gate reads (the *frontier*: prediction-logic
// outputs, mostly) are recorded per batch on the golden row, so a faulty
// batch writes the frontier words and its n faulty response words, then
// evaluates the cone gates in ascending net id (topological) order. The
// error net may be an observable input itself (optimization folds a
// comparator against a constant-0 prediction down to a wire); it then
// counts as in the cone, possibly with no cone gates at all. When the
// error net lies outside the cone the cone is left empty and the verdict
// is the golden word.
//
// Exactness. A stuck-at fault in the FSM logic changes only the response;
// the checker itself is fault-free. Every checker gate outside the cone is
// a function of the (input, present state) words alone, and at the same
// state code those equal the golden machine's — so are the frontier words.
// Each cone gate is then recomputed from exactly the fan-in words a full
// evaluation would read, and the verdict equals the full checker's bit for
// bit (differential test: ProtectedMachine.ConeVerdictMatchesFullChecker).
//
// A ProtectedMachine holds the shared, immutable golden data (reachable
// set, golden net cache, fault-free response rows, checker verdicts and
// frontier words), and each worker owns a FaultSession whose caches may
// grow into corrupted state codes the golden machine never visits. Sessions
// never write shared state, which is what lets the campaign fan units out
// with parallel_for and stay deterministic.

#include <cstdint>
#include <deque>
#include <span>
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
  /// Fault-free rows only (empty on faulty rows): the word of each checker
  /// frontier net per batch, batch-major (checker_frontier().size() words
  /// per batch).
  std::vector<std::uint64_t> frontier;

  bool error_at(std::uint64_t input) const {
    return ((error[input >> 6] >> (input & 63)) & 1) != 0;
  }
};

/// Working buffers of one checker-netlist evaluation. `words` holds the
/// r + s + n checker input words of a batch; callers write the n
/// observable (FSM response) words at offset r + s. `values` holds one
/// word per checker net.
struct CheckerScratch {
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> values;
};

/// Shared, immutable-after-construction view of the protected design: the
/// functional circuit and its golden net cache, the compiled checker with
/// its response cone and frontier, the reachable state set, and the
/// fault-free rows (response + checker verdict + frontier words) for every
/// reachable state. Construction runs the golden simulation once;
/// afterwards the object is read-only and safe to share across campaign
/// workers.
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

  /// Buffers sized for the checker netlist.
  CheckerScratch scratch() const;
  /// The fault-free row of a state from its golden simulation: runs the
  /// full checker on every batch and records the frontier words.
  TransitionRow fault_free_row(const GoldenState& g, std::uint64_t state_code,
                               CheckerScratch& sc) const;
  /// Checker verdicts of batch `b` for the faulty observable words already
  /// in `sc.words` (offset r + s), at the state code whose fault-free row
  /// is `gold`: evaluates only the response cone over gold's frontier
  /// words. Bit t is 1 iff the error output fires on input 64b + t (only
  /// valid inputs can be set).
  std::uint64_t cone_checker_word(const TransitionRow& gold, std::uint64_t b,
                                  CheckerScratch& sc) const;

  std::uint32_t checker_nets() const { return checker_.num_nets(); }
  /// Checker gates with a transitive fan-in from the observable inputs,
  /// ascending net id; empty when the error net is neither among them nor
  /// an observable input.
  std::span<const std::uint32_t> checker_cone() const { return cone_; }
  /// Nets outside the cone (and not observable inputs) read by a cone
  /// gate, ascending net id.
  std::span<const std::uint32_t> checker_frontier() const {
    return frontier_;
  }

 private:
  const fsm::FsmCircuit& circuit_;
  const core::CedHardware& hw_;
  CircuitSim fsm_;
  CompiledNetlist checker_;
  std::uint32_t error_net_ = 0;
  /// The error net is a cone gate or an observable input.
  bool error_in_cone_ = false;
  std::vector<std::uint32_t> cone_;
  std::vector<std::uint32_t> frontier_;
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
  /// Faulty batches whose verdict came from a response-cone evaluation.
  std::uint64_t checker_cone_evals() const { return cone_evals_; }
  /// Checker gates evaluated by those cone evaluations.
  std::uint64_t checker_gate_evals() const {
    return cone_evals_ * pm_.checker_cone().size();
  }

 private:
  const ProtectedMachine& pm_;
  FaultSim sim_;
  bool armed_ = false;
  std::unordered_map<std::uint64_t, const TransitionRow*> faulty_;
  std::deque<TransitionRow> owned_;
  std::unordered_map<std::uint64_t, TransitionRow> golden_local_;
  CheckerScratch scratch_;
  std::uint64_t reused_ = 0;
  std::uint64_t cone_evals_ = 0;
};

}  // namespace ced::sim
