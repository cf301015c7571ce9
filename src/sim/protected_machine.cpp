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

  // Response cone (gates reachable from the observable inputs) and its
  // frontier (the other nets those gates read).
  const auto obs = static_cast<std::size_t>(hw.r + hw.s);
  std::vector<char> inside(checker_.num_nets(), 0);
  for (std::size_t o = 0; o < static_cast<std::size_t>(hw.n); ++o) {
    const std::uint32_t in = checker_.inputs()[obs + o];
    inside[in] = 1;
    for (const std::uint32_t g : checker_.cone(in)) inside[g] = 1;
  }
  std::vector<char> on_frontier(checker_.num_nets(), 0);
  for (std::uint32_t id = 0; id < checker_.num_nets(); ++id) {
    if (!inside[id] || checker_.fanins(id).empty()) continue;
    cone_.push_back(id);
    for (const std::uint32_t f : checker_.fanins(id)) {
      if (!inside[f]) on_frontier[f] = 1;
    }
  }
  for (std::uint32_t id = 0; id < checker_.num_nets(); ++id) {
    if (on_frontier[id]) frontier_.push_back(id);
  }
  // `inside` counts the observable inputs too: optimization can fold the
  // comparator down to a wire, leaving an observable input as the error
  // net. An error net outside the cone never sees the response: every
  // verdict is the golden one, and there is nothing to evaluate.
  error_in_cone_ = inside[error_net_] != 0;
  if (!error_in_cone_) {
    cone_.clear();
    frontier_.clear();
  }

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

TransitionRow ProtectedMachine::fault_free_row(const GoldenState& g,
                                               std::uint64_t state_code,
                                               CheckerScratch& sc) const {
  const std::uint32_t nets = fsm_.netlist().num_nets();
  const auto outputs = fsm_.netlist().outputs();
  const auto obs = static_cast<std::size_t>(hw_.r + hw_.s);
  TransitionRow row;
  row.response = g.rows;
  row.error.resize(fsm_.num_batches());
  row.frontier.resize(fsm_.num_batches() * frontier_.size());
  for (std::uint64_t b = 0; b < fsm_.num_batches(); ++b) {
    fill_batch_inputs(hw_.r, hw_.s, state_code, b, sc.words.data());
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      sc.words[obs + o] = g.nets[b * nets + outputs[o]];
    }
    checker_.eval(sc.words.data(), sc.values.data());
    row.error[b] = sc.values[error_net_] & batch_valid_mask(hw_.r, b);
    std::uint64_t* fr = row.frontier.data() + b * frontier_.size();
    for (std::size_t k = 0; k < frontier_.size(); ++k) {
      fr[k] = sc.values[frontier_[k]];
    }
  }
  return row;
}

std::uint64_t ProtectedMachine::cone_checker_word(const TransitionRow& gold,
                                                  std::uint64_t b,
                                                  CheckerScratch& sc) const {
  if (!error_in_cone_) return gold.error[b];
  std::uint64_t* const values = sc.values.data();
  const std::uint64_t* fr = gold.frontier.data() + b * frontier_.size();
  for (std::size_t k = 0; k < frontier_.size(); ++k) {
    values[frontier_[k]] = fr[k];
  }
  const auto obs = static_cast<std::size_t>(hw_.r + hw_.s);
  for (std::size_t o = 0; o < static_cast<std::size_t>(hw_.n); ++o) {
    values[checker_.inputs()[obs + o]] = sc.words[obs + o];
  }
  const auto value = [values](std::uint32_t f) { return values[f]; };
  for (const std::uint32_t g : cone_) {
    values[g] = checker_.eval_gate(g, value);
  }
  return values[error_net_] & batch_valid_mask(hw_.r, b);
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
    if (row == nullptr) {
      row = &owned_.emplace_back(
          TransitionRow{gold.response, gold.error, {}});
    }
    sim_.patch_rows(g, b, row->response.data() + b * 64);
    for (std::size_t o = 0; o < n; ++o) {
      scratch_.words[obs + o] = sim_.output_word(g, b, o);
    }
    row->error[b] = pm_.cone_checker_word(gold, b, scratch_);
    ++cone_evals_;
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
