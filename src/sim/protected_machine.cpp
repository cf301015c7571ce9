#include "sim/protected_machine.hpp"

#include <stdexcept>

namespace ced::sim {

ProtectedMachine::ProtectedMachine(const fsm::FsmCircuit& circuit,
                                   const core::CedHardware& hw)
    : circuit_(circuit), hw_(hw), fsm_(circuit), checker_(hw.checker) {
  if (hw.r != circuit.r() || hw.s != circuit.s() || hw.n != circuit.n()) {
    throw std::invalid_argument(
        "ProtectedMachine: checker interface does not match the circuit");
  }
  if (checker_.num_inputs() != static_cast<std::size_t>(hw.r + hw.s + hw.n)) {
    throw std::invalid_argument(
        "ProtectedMachine: checker inputs are not r + s + n");
  }
  // Output order: q compacted, q predicted, [rail0, rail1,] error.
  error_net_ = checker_.outputs()[static_cast<std::size_t>(
      2 * hw.q + (hw.two_rail ? 2 : 0))];
  reachable_ = fsm_.populate_reachable(circuit.enc.reset_code);
  CheckerScratch sc = scratch();
  for (const std::uint64_t code : reachable_) {
    golden_.emplace(code, fault_free_row(*fsm_.find(code), code, sc));
  }
}

const TransitionRow* ProtectedMachine::golden_row(
    std::uint64_t state_code) const {
  const auto it = golden_.find(state_code);
  return it == golden_.end() ? nullptr : &it->second;
}

CheckerScratch ProtectedMachine::scratch() const {
  CheckerScratch sc;
  sc.words.assign(checker_.num_inputs(), 0);
  sc.values.assign(checker_.num_nets(), 0);
  return sc;
}

std::uint64_t ProtectedMachine::checker_word(std::uint64_t state_code,
                                             std::uint64_t b,
                                             CheckerScratch& sc) const {
  fill_batch_inputs(hw_.r, hw_.s, state_code, b, sc.words.data());
  checker_.eval(sc.words.data(), sc.values.data());
  return sc.values[error_net_] & batch_valid_mask(hw_.r, b);
}

TransitionRow ProtectedMachine::fault_free_row(const GoldenState& g,
                                               std::uint64_t state_code,
                                               CheckerScratch& sc) const {
  const std::uint32_t nets = fsm_.netlist().num_nets();
  const auto outputs = fsm_.netlist().outputs();
  const auto obs = static_cast<std::size_t>(hw_.r + hw_.s);
  TransitionRow row;
  row.response = g.rows;
  row.error.resize(fsm_.num_batches());
  for (std::uint64_t b = 0; b < fsm_.num_batches(); ++b) {
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      sc.words[obs + o] = g.nets[b * nets + outputs[o]];
    }
    row.error[b] = checker_word(state_code, b, sc);
  }
  return row;
}

FaultSession::FaultSession(const ProtectedMachine& pm)
    : pm_(pm), sim_(pm.fsm()), scratch_(pm.scratch()) {}

void FaultSession::arm(const logic::Injection* injection) {
  armed_ = injection != nullptr;
  if (armed_) sim_.arm(*injection);
  faulty_.clear();
  owned_.clear();
}

const TransitionRow& FaultSession::faulty_row(std::uint64_t state_code) {
  if (const auto it = faulty_.find(state_code); it != faulty_.end()) {
    return *it->second;
  }
  if (!armed_) {
    throw std::logic_error("FaultSession: faulty_row without an injection");
  }
  const GoldenState& g = sim_.golden(state_code);
  const TransitionRow& gold = golden_row(state_code);
  const auto obs = static_cast<std::size_t>(pm_.hw().r + pm_.hw().s);
  const std::size_t n = pm_.fsm().netlist().outputs().size();
  TransitionRow* row = nullptr;
  for (std::uint64_t b = 0; b < pm_.fsm().num_batches(); ++b) {
    if (!sim_.simulate_batch(g, b)) {
      ++reused_;  // responses equal golden: so does the checker verdict
      continue;
    }
    if (row == nullptr) row = &owned_.emplace_back(gold);
    sim_.patch_rows(g, b, row->response.data() + b * 64);
    for (std::size_t o = 0; o < n; ++o) {
      scratch_.words[obs + o] = sim_.output_word(g, b, o);
    }
    row->error[b] = pm_.checker_word(state_code, b, scratch_);
  }
  const TransitionRow* out = row != nullptr ? row : &gold;
  faulty_.emplace(state_code, out);
  return *out;
}

const TransitionRow& FaultSession::golden_row(std::uint64_t state_code) {
  if (const TransitionRow* shared = pm_.golden_row(state_code)) {
    return *shared;
  }
  auto it = golden_local_.find(state_code);
  if (it == golden_local_.end()) {
    it = golden_local_
             .emplace(state_code,
                      pm_.fault_free_row(sim_.golden(state_code), state_code,
                                         scratch_))
             .first;
  }
  return it->second;
}

}  // namespace ced::sim
