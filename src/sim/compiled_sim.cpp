#include "sim/compiled_sim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_set>

#include "obs/metrics.hpp"

namespace ced::sim {

void fill_batch_inputs(int r, int s, std::uint64_t state_code,
                       std::uint64_t batch, std::uint64_t* words) {
  static constexpr std::uint64_t kStripe[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  const std::uint64_t base = batch * 64;
  for (int i = 0; i < r; ++i) {
    if (i < 6) {
      words[i] = kStripe[i];
    } else {
      words[i] = ((base >> i) & 1) ? ~std::uint64_t{0} : 0;
    }
  }
  for (int b = 0; b < s; ++b) {
    words[r + b] = ((state_code >> b) & 1) ? ~std::uint64_t{0} : 0;
  }
}

void record_counters(obs::MetricsShard& ms, const SimCounters& c) {
  ms.add("ced_sim_batches_screened_total", c.batches_screened);
  ms.add("ced_sim_batches_simulated_total", c.batches_simulated);
  ms.add("ced_sim_cone_gate_evals_total", c.cone_gate_evals);
}

// --------------------------------------------------------- CompiledNetlist

CompiledNetlist::CompiledNetlist(const logic::Netlist& nl) {
  const auto n = static_cast<std::uint32_t>(nl.num_nets());
  op_.resize(n);
  fanin_start_.resize(n + 1);
  for (std::uint32_t id = 0; id < n; ++id) {
    const logic::Gate& g = nl.gate(id);
    op_[id] = g.type;
    fanin_start_[id] = static_cast<std::uint32_t>(fanin_.size());
    fanin_.insert(fanin_.end(), g.fanins.begin(), g.fanins.end());
  }
  fanin_start_[n] = static_cast<std::uint32_t>(fanin_.size());

  // Fan-out CSR: each consumer listed once per driver even when it reads
  // the driver on several pins; filled in consumer order, so ascending.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> last(n, kNone);
  std::vector<std::uint32_t> count(n + 1, 0);
  for (std::uint32_t id = 0; id < n; ++id) {
    for (const std::uint32_t f : fanins(id)) {
      if (last[f] != id) {
        last[f] = id;
        ++count[f];
      }
    }
  }
  fanout_start_.assign(n + 1, 0);
  for (std::uint32_t id = 0; id < n; ++id) {
    fanout_start_[id + 1] = fanout_start_[id] + count[id];
  }
  fanout_.resize(fanout_start_[n]);
  std::vector<std::uint32_t> fill(fanout_start_.begin(),
                                  fanout_start_.end() - 1);
  std::fill(last.begin(), last.end(), kNone);
  for (std::uint32_t id = 0; id < n; ++id) {
    for (const std::uint32_t f : fanins(id)) {
      if (last[f] != id) {
        last[f] = id;
        fanout_[fill[f]++] = id;
      }
    }
  }
  outputs_ = nl.outputs();
  inputs_ = nl.inputs();
}

void CompiledNetlist::eval(const std::uint64_t* input_words,
                           std::uint64_t* values) const {
  const auto value = [values](std::uint32_t f) { return values[f]; };
  std::size_t next_input = 0;
  for (std::uint32_t id = 0; id < num_nets(); ++id) {
    values[id] = op_[id] == logic::GateType::kInput
                     ? input_words[next_input++]
                     : eval_gate(id, value);
  }
}

std::vector<std::uint32_t> CompiledNetlist::cone(std::uint32_t net) const {
  std::vector<char> seen(num_nets(), 0);
  std::vector<std::uint32_t> out;
  std::vector<std::uint32_t> stack{net};
  while (!stack.empty()) {
    const std::uint32_t at = stack.back();
    stack.pop_back();
    for (const std::uint32_t g : fanouts(at)) {
      if (seen[g]) continue;
      seen[g] = 1;
      out.push_back(g);
      stack.push_back(g);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// -------------------------------------------------------------- CircuitSim

CircuitSim::CircuitSim(const fsm::FsmCircuit& circuit)
    : circuit_(circuit), net_(circuit.netlist), r_(circuit.r()),
      s_(circuit.s()), batches_(((std::uint64_t{1} << r_) + 63) / 64) {
  if (net_.num_inputs() != static_cast<std::size_t>(r_ + s_)) {
    throw std::invalid_argument(
        "CircuitSim: netlist inputs do not match the r + s interface");
  }
  if (circuit.n() > 64) {
    throw std::invalid_argument("CircuitSim: more than 64 observable bits");
  }
}

GoldenState CircuitSim::simulate(std::uint64_t state_code) const {
  const std::uint32_t n = net_.num_nets();
  const std::uint64_t num_inputs = std::uint64_t{1} << r_;
  const auto outputs = net_.outputs();
  GoldenState g;
  g.nets.resize(batches_ * n);
  g.rows.assign(num_inputs, 0);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(r_ + s_));
  for (std::uint64_t b = 0; b < batches_; ++b) {
    fill_batch_inputs(r_, s_, state_code, b, words.data());
    std::uint64_t* values = g.nets.data() + b * n;
    net_.eval(words.data(), values);
    const std::uint64_t base = b * 64;
    const std::uint64_t in_batch =
        std::min<std::uint64_t>(64, num_inputs - base);
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      const std::uint64_t w = values[outputs[o]];
      for (std::uint64_t t = 0; t < in_batch; ++t) {
        g.rows[base + t] |= ((w >> t) & 1) << o;
      }
    }
  }
  return g;
}

const GoldenState& CircuitSim::cached(std::uint64_t state_code) {
  auto it = cache_.find(state_code);
  if (it == cache_.end()) {
    it = cache_.emplace(state_code, simulate(state_code)).first;
  }
  return it->second;
}

void CircuitSim::populate(std::span<const std::uint64_t> state_codes) {
  for (const std::uint64_t code : state_codes) cached(code);
}

std::vector<std::uint64_t> CircuitSim::populate_reachable(
    std::uint64_t reset_code) {
  std::vector<std::uint64_t> order;
  std::unordered_set<std::uint64_t> seen{reset_code};
  std::vector<std::uint64_t> stack{reset_code};
  while (!stack.empty()) {
    const std::uint64_t code = stack.back();
    stack.pop_back();
    order.push_back(code);
    for (const std::uint64_t obs : cached(code).rows) {
      const std::uint64_t next = circuit_.next_state_of(obs);
      if (seen.insert(next).second) stack.push_back(next);
    }
  }
  std::sort(order.begin(), order.end());
  return order;
}

const GoldenState* CircuitSim::find(std::uint64_t state_code) const {
  const auto it = cache_.find(state_code);
  return it == cache_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------- FaultSim

FaultSim::FaultSim(const CircuitSim& shared)
    : shared_(shared),
      value_(shared.netlist().num_nets(), 0),
      stamp_(shared.netlist().num_nets(), 0),
      pending_(shared.netlist().num_nets(), 0) {}

const GoldenState& FaultSim::golden(std::uint64_t state_code) {
  if (const GoldenState* g = shared_.find(state_code)) return *g;
  auto it = overlay_.find(state_code);
  if (it == overlay_.end()) {
    it = overlay_.emplace(state_code, shared_.simulate(state_code)).first;
  }
  return it->second;
}

void FaultSim::arm(const logic::Injection& inj) {
  const CompiledNetlist& net = shared_.netlist();
  if (inj.net >= net.num_nets()) {
    throw std::invalid_argument("FaultSim: injection on an unknown net");
  }
  inj_ = inj;
  cone_ = net.cone(inj.net);
  cone_outputs_.clear();
  const auto outputs = net.outputs();
  for (std::size_t o = 0; o < outputs.size(); ++o) {
    const std::uint32_t at = outputs[o];
    if (at == inj.net || std::binary_search(cone_.begin(), cone_.end(), at)) {
      cone_outputs_.emplace_back(static_cast<std::uint32_t>(o), at);
    }
  }
  memo_.clear();
  owned_.clear();
}

bool FaultSim::simulate_batch(const GoldenState& g, std::uint64_t b) {
  const CompiledNetlist& net = shared_.netlist();
  const std::uint64_t* gold = g.nets.data() + b * net.num_nets();
  // Screen: the fault forces a word the net already carries.
  if (gold[inj_.net] == inj_.value_word) {
    ++counters_.batches_screened;
    return false;
  }
  ++counters_.batches_simulated;
  if (++epoch_ == 0) {  // wrapped: old stamps could alias the new epoch
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(pending_.begin(), pending_.end(), 0);
    epoch_ = 1;
  }
  std::size_t outstanding = 0;
  const auto touch = [&](std::uint32_t changed_net, std::uint64_t word) {
    value_[changed_net] = word;
    stamp_[changed_net] = epoch_;
    for (const std::uint32_t g2 : net.fanouts(changed_net)) {
      if (pending_[g2] != epoch_) {
        pending_[g2] = epoch_;
        ++outstanding;
      }
    }
  };
  const auto value = [&](std::uint32_t f) {
    return changed(f) ? value_[f] : gold[f];
  };
  touch(inj_.net, inj_.value_word);
  for (const std::uint32_t id : cone_) {
    if (outstanding == 0) break;  // the frontier matches golden again
    if (pending_[id] != epoch_) continue;
    --outstanding;
    ++counters_.cone_gate_evals;
    const std::uint64_t v = net.eval_gate(id, value);
    if (v != gold[id]) touch(id, v);
  }
  for (const auto& [o, at] : cone_outputs_) {
    if (changed(at)) return true;
  }
  return false;
}

std::uint64_t FaultSim::output_word(const GoldenState& g, std::uint64_t b,
                                    std::size_t o) const {
  const CompiledNetlist& net = shared_.netlist();
  const std::uint32_t at = net.outputs()[o];
  return changed(at) ? value_[at] : g.nets[b * net.num_nets() + at];
}

void FaultSim::patch_rows(const GoldenState& g, std::uint64_t b,
                          std::uint64_t* rows) const {
  const CompiledNetlist& net = shared_.netlist();
  const std::uint64_t* gold = g.nets.data() + b * net.num_nets();
  const std::uint64_t valid = batch_valid_mask(shared_.r(), b);
  for (const auto& [o, at] : cone_outputs_) {
    if (!changed(at)) continue;
    for (std::uint64_t d = (value_[at] ^ gold[at]) & valid; d != 0;
         d &= d - 1) {
      rows[std::countr_zero(d)] ^= std::uint64_t{1} << o;
    }
  }
}

const std::vector<std::uint64_t>& FaultSim::faulty_rows(
    std::uint64_t state_code) {
  if (const auto it = memo_.find(state_code); it != memo_.end()) {
    return *it->second;
  }
  const GoldenState& g = golden(state_code);
  std::vector<std::uint64_t>* rows = nullptr;
  for (std::uint64_t b = 0; b < shared_.num_batches(); ++b) {
    if (!simulate_batch(g, b)) continue;
    if (rows == nullptr) rows = &owned_.emplace_back(g.rows);
    patch_rows(g, b, rows->data() + b * 64);
  }
  const std::vector<std::uint64_t>* out = rows != nullptr ? rows : &g.rows;
  memo_.emplace(state_code, out);
  return *out;
}

std::vector<std::uint64_t> reachable_codes(const fsm::FsmCircuit& c,
                                           std::uint64_t reset_code) {
  CircuitSim sim(c);
  return sim.populate_reachable(reset_code);
}

}  // namespace ced::sim
