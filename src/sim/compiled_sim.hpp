#pragma once

// The one netlist simulator behind error analysis: extraction (core/extract),
// the §2 latency analysis, prediction-logic synthesis and the closed-loop
// campaign (sim/protected_machine) all read FSM transition rows from here.
//
// Layout. A logic::Netlist is compiled once into flat arrays in its own
// topological (net-id) order: one op code per net, a CSR fan-in array and a
// CSR fan-out array. Evaluation is 64-way pattern-parallel: one word per net,
// bit t = the net's value under input pattern t of a batch. Batch b of a
// state covers the concrete inputs 64b .. 64b+63 (see fill_batch_inputs).
//
// Golden net cache. The fault-free simulation of a state keeps every *net*
// word of every batch, not just the packed output rows. A CircuitSim holds
// the shared cache (filled up front, read-only during a fan-out); each
// worker's FaultSim adds a private overlay for codes outside it.
//
// Screen, then cone. A fault's rows are built batch by batch from the golden
// nets. If the faulted net's golden word already equals the stuck word, the
// batch is the golden batch and nothing is simulated (screened). Otherwise
// only the fault's precomputed fan-out cone is re-evaluated, event-driven:
// starting from the golden words, a gate is evaluated only when one of its
// fan-ins changed, and the walk stops once no change is pending. Only
// outputs whose word changed are patched into the rows. Every word equals
// what a full logic::Netlist::eval with the same injection computes (the
// differential oracle in tests/test_compiled_sim.cpp).

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "fsm/synthesize.hpp"
#include "logic/netlist.hpp"

namespace ced::obs {
class MetricsShard;
}

namespace ced::sim {

/// Fills the r input words and s present-state words of batch `batch` at
/// `state_code`: pattern t is concrete input 64*batch + t, so input bit
/// i < 6 is a fixed stripe and bits >= 6 are constant within the batch.
/// (With r < 6 the upper patterns repeat inputs 0 .. 2^r-1.)
void fill_batch_inputs(int r, int s, std::uint64_t state_code,
                       std::uint64_t batch, std::uint64_t* words);

/// Mask of the patterns of `batch` that are real inputs (< 2^r).
inline std::uint64_t batch_valid_mask(int r, std::uint64_t batch) {
  const std::uint64_t left = (std::uint64_t{1} << r) - 64 * batch;
  return left >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << left) - 1;
}

/// A logic::Netlist compiled into flat arrays in topological order.
class CompiledNetlist {
 public:
  explicit CompiledNetlist(const logic::Netlist& nl);

  std::uint32_t num_nets() const {
    return static_cast<std::uint32_t>(op_.size());
  }
  std::size_t num_inputs() const { return inputs_.size(); }
  /// Input nets in declaration order: input i takes `input_words[i]`.
  std::span<const std::uint32_t> inputs() const { return inputs_; }
  std::span<const std::uint32_t> outputs() const { return outputs_; }
  std::span<const std::uint32_t> fanins(std::uint32_t net) const {
    return {fanin_.data() + fanin_start_[net],
            fanin_start_[net + 1] - fanin_start_[net]};
  }
  /// Distinct gates reading `net`, ascending.
  std::span<const std::uint32_t> fanouts(std::uint32_t net) const {
    return {fanout_.data() + fanout_start_[net],
            fanout_start_[net + 1] - fanout_start_[net]};
  }

  /// Word of gate `net` from the words of its fan-ins; `value(f)` returns
  /// the current word of net f. (An input's word comes from its batch.)
  template <class Value>
  std::uint64_t eval_gate(std::uint32_t net, const Value& value) const;

  /// Evaluates every net: input i takes `input_words[i]`, and `values`
  /// (num_nets() words) receives the word of each net.
  void eval(const std::uint64_t* input_words, std::uint64_t* values) const;

  /// Transitive fan-out cone of `net` (excluding `net` itself), ascending
  /// net id — a topological order.
  std::vector<std::uint32_t> cone(std::uint32_t net) const;

 private:
  std::vector<logic::GateType> op_;
  std::vector<std::uint32_t> fanin_start_, fanin_;
  std::vector<std::uint32_t> fanout_start_, fanout_;
  std::vector<std::uint32_t> outputs_;
  std::vector<std::uint32_t> inputs_;
};

/// Fault-free simulation of one present state.
struct GoldenState {
  /// Every net word of every batch, batch-major: nets[b * num_nets + net].
  std::vector<std::uint64_t> nets;
  /// Packed observable word (next-state bits then outputs) per input.
  std::vector<std::uint64_t> rows;
};

/// Per-worker simulation counters (write-only diagnostics).
struct SimCounters {
  std::uint64_t batches_screened = 0;   ///< faulty batches equal to golden
  std::uint64_t batches_simulated = 0;  ///< faulty batches cone-evaluated
  std::uint64_t cone_gate_evals = 0;    ///< gates evaluated inside cones
};

/// Folds `c` into the ced_sim_* counters of `ms` (once per shard, so the
/// hot loops only bump plain members).
void record_counters(obs::MetricsShard& ms, const SimCounters& c);

/// The compiled FSM netlist plus the shared golden net cache. Fill the
/// cache (populate / populate_reachable) before a fan-out; afterwards the
/// object is read-only and safe to share across workers.
class CircuitSim {
 public:
  explicit CircuitSim(const fsm::FsmCircuit& circuit);

  const fsm::FsmCircuit& circuit() const { return circuit_; }
  const CompiledNetlist& netlist() const { return net_; }
  int r() const { return r_; }
  /// Number of 64-input batches covering the 2^r inputs.
  std::uint64_t num_batches() const { return batches_; }

  /// The batched netlist-simulation loop: the fault-free nets and rows of
  /// every input at `state_code`.
  GoldenState simulate(std::uint64_t state_code) const;

  /// Simulates every given code into the shared cache.
  void populate(std::span<const std::uint64_t> state_codes);
  /// Explores the fault-free machine from `reset_code` over every input,
  /// caching each reached state; returns the reached codes, ascending.
  std::vector<std::uint64_t> populate_reachable(std::uint64_t reset_code);

  /// Shared cache lookup; nullptr when `state_code` was never populated.
  const GoldenState* find(std::uint64_t state_code) const;

 private:
  const GoldenState& cached(std::uint64_t state_code);

  const fsm::FsmCircuit& circuit_;
  CompiledNetlist net_;
  int r_ = 0, s_ = 0;
  std::uint64_t batches_ = 0;
  std::unordered_map<std::uint64_t, GoldenState> cache_;
};

/// A worker's fault simulator over a shared CircuitSim: a private golden
/// overlay for codes outside the shared cache, the armed fault's cone, its
/// memoized faulty rows, and the scratch of the event-driven evaluation.
/// Never writes shared state.
class FaultSim {
 public:
  explicit FaultSim(const CircuitSim& shared);

  /// Golden state of any code: the shared entry when populated, else a
  /// private overlay entry (faulty walks reach codes the golden machine
  /// never visits).
  const GoldenState& golden(std::uint64_t state_code);

  /// Makes `inj` the active fault: precomputes its fan-out cone and drops
  /// the previous fault's memoized rows.
  void arm(const logic::Injection& inj);

  /// Rows of the armed fault at `state_code`, memoized until the next
  /// arm(). When no batch differs from golden this is golden().rows.
  const std::vector<std::uint64_t>& faulty_rows(std::uint64_t state_code);

  /// Screens, and if needed cone-evaluates, the armed fault on batch `b` of
  /// `g`. Returns true iff some output word differs from golden; then
  /// output_word() and patch_rows() describe the faulty batch.
  bool simulate_batch(const GoldenState& g, std::uint64_t b);
  /// Word of output `o` in the batch last passed to simulate_batch.
  std::uint64_t output_word(const GoldenState& g, std::uint64_t b,
                            std::size_t o) const;
  /// XORs the changed output bits of that batch into `rows` (the 64 rows
  /// of the batch, starting at input 64b; only valid inputs are written).
  void patch_rows(const GoldenState& g, std::uint64_t b,
                  std::uint64_t* rows) const;

  const SimCounters& counters() const { return counters_; }

 private:
  bool changed(std::uint32_t net) const { return stamp_[net] == epoch_; }

  const CircuitSim& shared_;
  std::unordered_map<std::uint64_t, GoldenState> overlay_;

  logic::Injection inj_;
  std::vector<std::uint32_t> cone_;
  /// Outputs in the cone or on the faulted net: (output index, net).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cone_outputs_;
  std::unordered_map<std::uint64_t, const std::vector<std::uint64_t>*> memo_;
  std::deque<std::vector<std::uint64_t>> owned_;

  // Event-driven scratch: stamp_[net] == epoch_ marks a net whose word in
  // value_ differs from golden; pending_[net] == epoch_ marks a gate with a
  // changed fan-in. A new epoch per batch clears both in O(1).
  std::vector<std::uint64_t> value_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> pending_;
  std::uint32_t epoch_ = 0;

  SimCounters counters_;
};

/// State codes reachable in the fault-free circuit from `reset_code` under
/// every input sequence, ascending.
std::vector<std::uint64_t> reachable_codes(const fsm::FsmCircuit& c,
                                           std::uint64_t reset_code);

template <class Value>
std::uint64_t CompiledNetlist::eval_gate(std::uint32_t net,
                                         const Value& value) const {
  using logic::GateType;
  const std::uint32_t* f = fanin_.data() + fanin_start_[net];
  const std::uint32_t* const end = fanin_.data() + fanin_start_[net + 1];
  std::uint64_t v = 0;
  switch (op_[net]) {
    case GateType::kInput:
    case GateType::kConst0:
      return 0;
    case GateType::kConst1:
      return ~std::uint64_t{0};
    case GateType::kBuf:
      return value(*f);
    case GateType::kNot:
      return ~value(*f);
    case GateType::kAnd:
    case GateType::kNand:
      v = ~std::uint64_t{0};
      for (; f != end; ++f) v &= value(*f);
      return op_[net] == GateType::kNand ? ~v : v;
    case GateType::kOr:
    case GateType::kNor:
      for (; f != end; ++f) v |= value(*f);
      return op_[net] == GateType::kNor ? ~v : v;
    case GateType::kXor:
    case GateType::kXnor:
      for (; f != end; ++f) v ^= value(*f);
      return op_[net] == GateType::kXnor ? ~v : v;
  }
  return 0;
}

}  // namespace ced::sim
