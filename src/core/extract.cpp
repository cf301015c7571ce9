#include "core/extract.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/digest.hpp"
#include "common/parallel.hpp"
#include "core/case_set.hpp"
#include "obs/metrics.hpp"
#include "sim/compiled_sim.hpp"

namespace ced::core {
namespace {

/// One state of the enumerated walk: the fault-free (reference) machine's
/// state and the faulty machine's state. Under kImplementable semantics the
/// reference is re-anchored to the faulty register every step, so good ==
/// bad throughout.
struct Pair {
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  bool operator==(const Pair&) const = default;
};

struct PairHash {
  std::size_t operator()(const Pair& p) const {
    return static_cast<std::size_t>((p.good * 0x9e3779b97f4a7c15ull) ^ p.bad);
  }
};

/// Distinct single-step behaviours from one pair under one fault: inputs
/// are grouped into classes by (difference word, successor pair).
struct StepClass {
  std::uint64_t diff = 0;
  Pair next;

  bool operator<(const StepClass& o) const {
    if (diff != o.diff) return diff < o.diff;
    if (next.good != o.next.good) return next.good < o.next.good;
    return next.bad < o.next.bad;
  }
  bool operator==(const StepClass&) const = default;
};

struct StepClassHash {
  std::size_t operator()(const StepClass& c) const {
    return static_cast<std::size_t>((c.diff * 0x9e3779b97f4a7c15ull) ^
                                    PairHash{}(c.next));
  }
};

using StepClassSet = FlatSet<StepClass, StepClassHash>;

/// Groups the 2^r inputs of one (golden, faulty) row pair into their
/// distinct step classes, ascending — the order the DFS visits them in.
/// The inputs collapse into a handful of classes, so they are deduplicated
/// through `seen` (reused across calls) and only the distinct classes are
/// sorted.
std::vector<StepClass> step_classes(const std::vector<std::uint64_t>& golden,
                                    const std::vector<std::uint64_t>& faulty,
                                    const fsm::FsmCircuit& c,
                                    DiffSemantics semantics,
                                    StepClassSet& seen) {
  seen.reset();
  StepClass prev;
  for (std::size_t a = 0; a < golden.size(); ++a) {
    StepClass cls;
    cls.diff = golden[a] ^ faulty[a];
    cls.next.bad = c.next_state_of(faulty[a]);
    cls.next.good = semantics == DiffSemantics::kMachineLevel
                        ? c.next_state_of(golden[a])
                        : cls.next.bad;  // re-anchor to the real register
    if (a > 0 && cls == prev) continue;  // neighbouring inputs often agree
    prev = cls;
    seen.insert(cls);
  }
  std::vector<StepClass> classes(seen.begin(), seen.end());
  std::sort(classes.begin(), classes.end());
  return classes;
}

/// Canonical form of a path's difference sequence: the sorted set of its
/// distinct nonzero step words. Coverage (exists step with odd overlap)
/// only depends on this set.
ErroneousCase canonicalize(const std::uint64_t* diffs, int len) {
  ErroneousCase ec;
  std::array<std::uint64_t, kMaxLatency> tmp{};
  int n = 0;
  for (int k = 0; k < len; ++k) {
    if (diffs[k] != 0) tmp[static_cast<std::size_t>(n++)] = diffs[k];
  }
  // Insertion sort: n <= kMaxLatency (tiny), and it avoids std::sort's
  // large inlined thresholds that trip -Warray-bounds on small arrays.
  for (int i = 1; i < n; ++i) {
    const std::uint64_t v = tmp[static_cast<std::size_t>(i)];
    int j = i;
    while (j > 0 && tmp[static_cast<std::size_t>(j - 1)] > v) {
      tmp[static_cast<std::size_t>(j)] = tmp[static_cast<std::size_t>(j - 1)];
      --j;
    }
    tmp[static_cast<std::size_t>(j)] = v;
  }
  int m = 0;
  for (int k = 0; k < n; ++k) {
    if (k == 0 || tmp[static_cast<std::size_t>(k)] !=
                      tmp[static_cast<std::size_t>(k - 1)]) {
      ec.diff[static_cast<std::size_t>(m++)] = tmp[static_cast<std::size_t>(k)];
    }
  }
  ec.length = static_cast<std::uint8_t>(m);
  return ec;
}

/// One worker's extraction sub-layer counts (see register_counters),
/// bumped as plain members in the hot loops and folded once per shard.
struct ExtractCounters {
  std::uint64_t classifications = 0;
  std::uint64_t clean_classifications = 0;
  std::uint64_t inserts = 0;
  std::uint64_t dominance_probes = 0;
  std::uint64_t compactions = 0;
};

/// `sink` is a MetricsShard or a MetricsRegistry.
template <class Sink>
void add_counters(Sink& sink, const ExtractCounters& c) {
  sink.add("ced_extract_classifications_total", c.classifications);
  sink.add("ced_extract_clean_classifications_total",
           c.clean_classifications);
  sink.add("ced_extract_inserts_total", c.inserts);
  sink.add("ced_extract_dominance_probes_total", c.dominance_probes);
  sink.add("ced_extract_compactions_total", c.compactions);
}

/// One extraction worker: walks one shard of the fault list through a
/// private FaultSim (one armed fault at a time, golden rows from the shared
/// pre-populated cache) into private per-latency case sets. Its budget
/// valves are private too, so what a shard extracts is a pure function of
/// its fault block and the options, never of the other shards or of
/// timing. So are its counters, which makes them equal at any thread count
/// for a fixed shard partition.
class ShardWorker {
 public:
  ShardWorker(const fsm::FsmCircuit& circuit, const ExtractOptions& opts,
              const sim::CircuitSim& shared_golden,
              std::span<const std::uint64_t> activation_codes, int num_shards)
      : circuit_(circuit), opts_(opts), sim_(shared_golden),
        activation_codes_(activation_codes),
        tables_(static_cast<std::size_t>(opts.latency)),
        sets_(static_cast<std::size_t>(opts.latency)),
        compact_threshold_(static_cast<std::size_t>(opts.latency),
                           kCompactStart),
        max_words_(static_cast<std::size_t>(opts.latency), kMaxLatency),
        // Per-worker share of the degradation threshold so K workers
        // together hold at most ~degrade_threshold live cases. A single
        // shard keeps the exact serial threshold.
        degrade_threshold_(
            num_shards <= 1
                ? opts.degrade_threshold
                : std::max<std::size_t>(
                      opts.degrade_threshold /
                          static_cast<std::size_t>(num_shards),
                      1024)) {}

  void run(std::span<const sim::StuckAtFault> faults) {
    for (const auto& f : faults) {
      if (stopped()) break;
      sim_.arm(f.injection());
      classes_.clear();
      dirty_.clear();
      bool detectable = false;
      for (std::uint64_t c : activation_codes_) {
        if (stopped()) break;
        check_deadline();
        for (const auto& cls : classes_of(Pair{c, c})) {
          if (cls.diff == 0) continue;  // fault dormant: not an activation
          detectable = true;
          for (auto& t : tables_) ++t.num_activations;
          diffs_[0] = cls.diff;
          record(1);
          // The path's states are those reached by erroneous transitions
          // ("starting from the first erroneous state", §2): h1, h2, ...
          // The activation state c is not part of the loop-detection set.
          path_states_[0] = cls.next;
          descend(cls.next, 1);
        }
      }
      if (detectable) {
        for (auto& t : tables_) ++t.num_detectable_faults;
      }
    }
  }

  /// Per-latency local statistics; a table a valve froze reports
  /// `truncated` with the reason.
  const std::vector<DetectabilityTable>& tables() const { return tables_; }
  std::vector<CaseSet>& sets() { return sets_; }
  const sim::SimCounters& sim_counters() const { return sim_.counters(); }
  const ExtractCounters& counters() const { return counters_; }
  bool truncated() const {
    return std::any_of(tables_.begin(), tables_.end(),
                       [](const DetectabilityTable& t) { return t.truncated; });
  }

 private:
  bool stopped() const { return stop_; }

  /// Step classes of `pair` under the current fault, classified once per
  /// fault: the DFS revisits the same few pairs along many paths. Where the
  /// fault changes no row of a state the walk is in (faulty_rows returns
  /// that state's golden rows, and the reference machine is in the same
  /// state), the classes are the fault-free ones for every fault, so they
  /// come from golden_classes() instead of the 2^r-input classifier.
  const std::vector<StepClass>& classes_of(const Pair& pair) {
    auto [it, fresh] = classes_.try_emplace(pair, nullptr);
    if (fresh) {
      ++counters_.classifications;
      const std::vector<std::uint64_t>& faulty = sim_.faulty_rows(pair.bad);
      const std::vector<std::uint64_t>& golden = sim_.golden(pair.good).rows;
      if (pair.good == pair.bad && &faulty == &golden) {
        ++counters_.clean_classifications;
        it->second = &golden_classes(pair.good, golden);
      } else {
        it->second = &dirty_.emplace_back(step_classes(
            golden, faulty, circuit_, opts_.semantics, seen_));
      }
    }
    return *it->second;
  }

  /// The fault-free step classes of state `code` (every difference word
  /// 0, successor pair (h, h) with h the golden next state), computed once
  /// per worker. They do not depend on the semantics: the two machines
  /// agree on every row.
  const std::vector<StepClass>& golden_classes(
      std::uint64_t code, const std::vector<std::uint64_t>& rows) {
    auto [it, fresh] = golden_classes_.try_emplace(code);
    if (fresh) {
      it->second = step_classes(rows, rows, circuit_, opts_.semantics, seen_);
    }
    return it->second;
  }

  bool frozen(std::size_t t) const { return tables_[t].truncated; }

  /// Freezes table t: it accepts no further cases and keeps the rows
  /// found so far (first reason wins). Once every table is frozen the
  /// walk stops.
  void freeze(std::size_t t, const std::string& reason) {
    if (!tables_[t].truncated) {
      tables_[t].truncated = true;
      tables_[t].truncation_reason = reason;
    }
    stop_ = std::all_of(
        tables_.begin(), tables_.end(),
        [](const DetectabilityTable& x) { return x.truncated; });
  }

  /// Extends the current path from `pair` at step index `depth`
  /// (diffs_[0..depth-1] and path_states_[0..depth-1] are filled).
  void descend(const Pair& pair, int depth) {
    // depth < latency <= kMaxLatency; the second test only tells the
    // compiler so (recursive inlining otherwise trips -Warray-bounds).
    if (depth == opts_.latency || depth >= kMaxLatency || stopped()) return;
    if ((++tick_ & 1023u) == 0) check_deadline();
    for (const auto& cls : classes_of(pair)) {
      if (stopped()) return;
      diffs_[static_cast<std::size_t>(depth)] = cls.diff;
      record(depth + 1);
      bool loop = false;
      for (int i = 0; i < depth; ++i) {
        if (path_states_[static_cast<std::size_t>(i)] == cls.next) {
          loop = true;
          break;
        }
      }
      if (loop) {
        // The pair repeats: longer bounds gain no further alternatives
        // along this path; the truncated case is their requirement too.
        for (auto& t : tables_) ++t.num_loop_truncations;
        const ErroneousCase ec = canonicalize(diffs_.data(), depth + 1);
        for (int p = depth + 2; p <= opts_.latency; ++p) {
          ++tables_[static_cast<std::size_t>(p - 1)].num_paths;
          insert(ec, p);
        }
      } else if (!extensions_redundant(depth + 1)) {
        path_states_[static_cast<std::size_t>(depth)] = cls.next;
        descend(cls.next, depth + 1);
      }
    }
  }

  /// Subtree prune: extensions of the current prefix (of length `len`)
  /// would be recorded into tables len+1..p, each as a superset of the
  /// prefix's word set. If every one of those tables already requires the
  /// prefix set itself or a subset of it, all extensions are dominated rows
  /// there and the subtree contributes nothing. (Workers only see their own
  /// cases, so this prunes less under sharding — the pruned rows are
  /// dominated ones, which the deterministic merge compacts away anyway.)
  bool extensions_redundant(int len) {
    if (len + 1 > opts_.latency) return false;  // no extensions anyway
    const ErroneousCase prefix = canonicalize(diffs_.data(), len);
    for (int t = len + 1; t <= opts_.latency; ++t) {
      const auto& set = sets_[static_cast<std::size_t>(t - 1)];
      ++counters_.dominance_probes;
      if (!set.contains(prefix) &&
          !dominated(prefix, set, &counters_.dominance_probes)) {
        return false;
      }
    }
    return true;
  }

  /// Records the current path prefix of length `len` as a complete case of
  /// the latency-`len` table.
  void record(int len) {
    ++tables_[static_cast<std::size_t>(len - 1)].num_paths;
    insert(canonicalize(diffs_.data(), len), len);
  }

  /// Cooperative wall-clock check: on expiry, every still-open table is
  /// frozen with its partial contents and the DFS unwinds.
  void check_deadline() {
    if (stopped() || !opts_.deadline.armed() || !opts_.deadline.expired()) {
      return;
    }
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      freeze(t, "wall-clock budget exhausted during extraction");
    }
  }

  /// Applies a set-size change to the live-case counter.
  void credit_cases(std::int64_t before, std::int64_t after) {
    live_cases_ += after - before;
  }

  void insert(ErroneousCase ec, int latency) {
    const auto t = static_cast<std::size_t>(latency - 1);
    if (frozen(t)) return;
    auto& set = sets_[t];
    ec = strengthen(ec, max_words_[t]);
    ++counters_.inserts;
    if (dominated(ec, set, &counters_.dominance_probes)) return;
    const auto before = static_cast<std::int64_t>(set.size());
    set.insert(ec);
    credit_cases(before, static_cast<std::int64_t>(set.size()));
    auto& threshold = compact_threshold_[t];
    if (set.size() > threshold) {
      const auto pre = static_cast<std::int64_t>(set.size());
      ++counters_.compactions;
      compact(set);
      credit_cases(pre, static_cast<std::int64_t>(set.size()));
      threshold = std::max<std::size_t>(2 * set.size(), kCompactStart);
    }
    while (set.size() > degrade_threshold_ && max_words_[t] > 1) {
      // Degrade: strengthen every case of this table to fewer words and
      // rebuild the subset-minimal antichain.
      --max_words_[t];
      tables_[t].strengthened = true;
      const auto pre = static_cast<std::int64_t>(set.size());
      ++counters_.compactions;
      strengthen(set, max_words_[t]);
      credit_cases(pre, static_cast<std::int64_t>(set.size()));
      threshold = std::max<std::size_t>(2 * set.size(), kCompactStart);
    }
    if (static_cast<std::size_t>(live_cases_) > opts_.max_cases) {
      // Recoverable truncation (the old behaviour threw here): compact the
      // set first; if the shard's count still overflows, keep the
      // subset-minimal cases found so far and freeze the table.
      const auto pre = static_cast<std::int64_t>(set.size());
      ++counters_.compactions;
      compact(set);
      credit_cases(pre, static_cast<std::int64_t>(set.size()));
      if (static_cast<std::size_t>(live_cases_) > opts_.max_cases) {
        freeze(
            t, "erroneous-case limit (" + std::to_string(opts_.max_cases) +
                   ") exceeded; table holds the cases found so far");
      }
    }
  }

  static constexpr std::size_t kCompactStart = 1u << 17;

  const fsm::FsmCircuit& circuit_;
  const ExtractOptions& opts_;
  sim::FaultSim sim_;
  StepClassSet seen_;  ///< step_classes' dedupe table, reused
  /// Fault-free step classes per state code, shared by every fault
  /// (node-based, so the pointers in classes_ stay valid).
  std::unordered_map<std::uint64_t, std::vector<StepClass>> golden_classes_;
  /// Step classes of the current fault's dirty pairs.
  std::deque<std::vector<StepClass>> dirty_;
  /// Step classes per pair under the current fault: into golden_classes_
  /// or dirty_.
  std::unordered_map<Pair, const std::vector<StepClass>*, PairHash> classes_;
  std::span<const std::uint64_t> activation_codes_;
  bool stop_ = false;            ///< every table frozen, or deadline hit
  std::int64_t live_cases_ = 0;  ///< cases across sets_ (inserts - compactions)
  std::vector<DetectabilityTable> tables_;  ///< local statistics only
  std::vector<CaseSet> sets_;
  std::vector<std::size_t> compact_threshold_;
  std::vector<int> max_words_;
  const std::size_t degrade_threshold_;
  std::uint32_t tick_ = 0;
  ExtractCounters counters_;
  std::array<std::uint64_t, kMaxLatency> diffs_{};
  std::array<Pair, kMaxLatency + 1> path_states_{};
};

/// Fills the shared golden model with every activation code and returns
/// the codes: the reachable ones, or all 2^s under !restrict_to_reachable.
/// Filled up front, the cache is read-only during the fan-out; faulty
/// walks reaching other codes go through each worker's private overlay.
std::vector<std::uint64_t> populate_activations(sim::CircuitSim& golden,
                                                const ExtractOptions& opts) {
  const fsm::FsmCircuit& circuit = golden.circuit();
  if (opts.restrict_to_reachable) {
    return golden.populate_reachable(circuit.enc.reset_code);
  }
  std::vector<std::uint64_t> codes;
  for (std::uint64_t c = 0; c <= circuit.state_mask(); ++c) {
    codes.push_back(c);
  }
  golden.populate(codes);
  return codes;
}

}  // namespace

DetectabilityTable extract_cases(const fsm::FsmCircuit& circuit,
                                 std::span<const sim::StuckAtFault> faults,
                                 const ExtractOptions& opts) {
  ShardedExtractOptions sharding;
  sharding.num_shards =
      resolve_checkpoint_shards(resolve_threads(opts.threads), faults.size());
  return std::move(extract_cases_sharded(circuit, faults, opts, sharding).back());
}

// ------------------------------------------------- checkpointed extraction

namespace {

bool case_less(const ErroneousCase& a, const ErroneousCase& b) {
  if (a.length != b.length) return a.length < b.length;
  return a.diff < b.diff;
}

/// A computed shard's checkpoint: the worker's local statistics plus its
/// private sets, compacted to the subset-minimal antichain and sorted.
/// Within-shard compaction only removes rows the global merge would remove
/// anyway, so the final antichain is unchanged.
ExtractShard shard_from_worker(ShardWorker& worker, std::uint32_t index,
                               std::uint32_t num_shards,
                               std::size_t shard_faults) {
  ExtractShard sh;
  sh.index = index;
  sh.num_shards = num_shards;
  sh.tables = worker.tables();
  auto& sets = worker.sets();
  for (std::size_t t = 0; t < sh.tables.size(); ++t) {
    DetectabilityTable& table = sh.tables[t];
    table.num_faults = shard_faults;
    compact(sets[t]);
    table.cases = sets[t].cases();
    sets[t].clear();
    std::sort(table.cases.begin(), table.cases.end(), case_less);
  }
  return sh;
}

bool shard_truncated(const ExtractShard& sh) {
  for (const auto& t : sh.tables) {
    if (t.truncated) return true;
  }
  return false;
}

}  // namespace

void register_counters(obs::MetricsRegistry& reg) {
  add_counters(reg, ExtractCounters{});
}

int resolve_checkpoint_shards(int requested, std::size_t num_faults) {
  const int n = requested >= 1 ? requested : kDefaultCheckpointShards;
  if (num_faults == 0) return 1;
  return static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(n), num_faults));
}

std::string extraction_digest(const fsm::FsmCircuit& circuit,
                              std::span<const sim::StuckAtFault> faults,
                              const ExtractOptions& opts, int num_shards) {
  Digest128 d;
  d.absorb(std::uint64_t{1});  // digest schema version; bump on change
  d.absorb(static_cast<std::uint64_t>(kMaxLatency));
  // Circuit: interface sizes, state encoding, and the full netlist — the
  // netlist is the reference implementation, so hashing it covers every
  // synthesis option that could change behaviour.
  d.absorb(static_cast<std::uint64_t>(circuit.r()));
  d.absorb(static_cast<std::uint64_t>(circuit.s()));
  d.absorb(static_cast<std::uint64_t>(circuit.o()));
  d.absorb(circuit.enc.reset_code);
  d.absorb(static_cast<std::uint64_t>(circuit.enc.encoding.num_bits));
  for (const std::uint64_t c : circuit.enc.encoding.codes) d.absorb(c);
  const logic::Netlist& net = circuit.netlist;
  d.absorb(net.num_nets());
  for (std::uint32_t g = 0; g < net.num_nets(); ++g) {
    const logic::Gate& gate = net.gate(g);
    d.absorb(static_cast<std::uint64_t>(gate.type));
    d.absorb(gate.fanins.size());
    for (const std::uint32_t f : gate.fanins) {
      d.absorb(static_cast<std::uint64_t>(f));
    }
  }
  d.absorb(net.num_outputs());
  for (const std::uint32_t o : net.outputs()) {
    d.absorb(static_cast<std::uint64_t>(o));
  }
  // Fault model.
  d.absorb(faults.size());
  for (const auto& f : faults) {
    d.absorb((static_cast<std::uint64_t>(f.net) << 1) |
             (f.stuck_value ? 1u : 0u));
  }
  // Result-shaping extraction options + the shard partition. Budget valves
  // (deadline, max_cases) are excluded: truncated results are never cached.
  d.absorb(static_cast<std::uint64_t>(opts.latency));
  d.absorb(static_cast<std::uint64_t>(opts.semantics));
  d.absorb(std::uint64_t{opts.restrict_to_reachable ? 1u : 0u});
  d.absorb(opts.degrade_threshold);
  d.absorb(static_cast<std::uint64_t>(num_shards));
  return d.hex();
}

std::vector<DetectabilityTable> extract_cases_sharded(
    const fsm::FsmCircuit& circuit, std::span<const sim::StuckAtFault> faults,
    const ExtractOptions& opts, const ShardedExtractOptions& sharding,
    const ExtractCheckpointHooks& hooks) {
  if (opts.latency < 1 || opts.latency > kMaxLatency) {
    throw std::invalid_argument("extract_cases: latency out of range");
  }
  if (circuit.n() > 64) {
    throw std::invalid_argument("extract_cases: more than 64 observable bits");
  }
  const auto num_tables = static_cast<std::size_t>(opts.latency);
  const int num_shards =
      resolve_checkpoint_shards(sharding.num_shards, faults.size());
  const auto bounds = shard_bounds(faults.size(), num_shards);

  // Phase 1: collect checkpointed shards; list the rest.
  std::vector<ExtractShard> shards(static_cast<std::size_t>(num_shards));
  std::vector<char> present(static_cast<std::size_t>(num_shards), 0);
  std::vector<std::uint32_t> missing;
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(num_shards); ++s) {
    ExtractShard& sh = shards[s];
    if (hooks.load &&
        hooks.load(s, static_cast<std::uint32_t>(num_shards), sh) &&
        sh.index == s &&
        sh.num_shards == static_cast<std::uint32_t>(num_shards) &&
        sh.tables.size() == num_tables && !shard_truncated(sh)) {
      present[s] = 1;
    } else {
      sh = ExtractShard{};
      missing.push_back(s);
    }
  }
  if (opts.obs.metrics != nullptr) {
    register_counters(*opts.obs.metrics);
    opts.obs.metrics->add(
        "ced_extract_shards_resumed_total",
        static_cast<std::uint64_t>(static_cast<std::size_t>(num_shards) -
                                   missing.size()));
  }

  // Phase 2: compute (up to the quota) the missing shards, in index order.
  // Each shard runs with PRIVATE valves, so its content is a pure function
  // of (circuit, fault block, opts, num_shards) — never of timing or of the
  // other shards — which is what makes checkpoints replayable.
  std::size_t allowed = missing.size();
  if (sharding.max_new_shards > 0) {
    allowed = std::min<std::size_t>(
        allowed, static_cast<std::size_t>(sharding.max_new_shards));
  }
  const std::size_t skipped = missing.size() - allowed;
  // A shard that is not saved keeps its worker's raw sets until the merge
  // below, which compacts and sorts anyway; only a checkpoint is
  // materialized on its own.
  std::vector<std::vector<CaseSet>> unsaved(
      static_cast<std::size_t>(num_shards));
  if (allowed > 0) {
    sim::CircuitSim golden(circuit);
    const std::vector<std::uint64_t> activation_codes =
        populate_activations(golden, opts);

    parallel_for(resolve_threads(opts.threads), allowed, [&](std::size_t i) {
      const std::uint32_t s = missing[i];
      obs::ScopedSpan span(opts.obs, "extract-shard");
      span.attr("shard", static_cast<std::uint64_t>(s));
      ShardWorker worker(circuit, opts, golden, activation_codes, num_shards);
      const std::size_t begin = bounds[s];
      const std::size_t end = bounds[s + 1];
      span.attr("faults", static_cast<std::uint64_t>(end - begin));
      worker.run(faults.subspan(begin, end - begin));
      const DetectabilityTable& deep = worker.tables().back();
      span.attr("activations", static_cast<std::uint64_t>(deep.num_activations));
      span.attr("paths", static_cast<std::uint64_t>(deep.num_paths));
      if (opts.obs.metrics != nullptr) {
        obs::MetricsShard mshard(opts.obs.metrics);
        mshard.add("ced_extract_shards_total");
        mshard.add("ced_extract_shards_computed_total");
        sim::record_counters(mshard, worker.sim_counters());
        add_counters(mshard, worker.counters());
      }
      // Only complete shards become checkpoints; a valve-tripped shard
      // keeps its partial cases in this run's (truncated) result but is
      // recomputed from scratch on resume.
      ExtractShard& sh = shards[s];
      if (hooks.save && !worker.truncated()) {
        sh = shard_from_worker(worker, s,
                               static_cast<std::uint32_t>(num_shards),
                               end - begin);
        hooks.save(sh);
      } else {
        sh.tables = worker.tables();
        unsaved[s] = std::move(worker.sets());
      }
      present[s] = 1;
    });
  }

  // Phase 3: deterministic merge in fixed shard order — identical to a
  // fresh full run whenever every shard is present and complete.
  std::vector<DetectabilityTable> tables(num_tables);
  for (int p = 1; p <= opts.latency; ++p) {
    const auto t = static_cast<std::size_t>(p - 1);
    DetectabilityTable& table = tables[t];
    table.num_bits = circuit.n();
    table.latency = p;
    table.num_faults = faults.size();
    CaseSet merged;
    bool first = true;
    for (int s = 0; s < num_shards; ++s) {
      if (!present[static_cast<std::size_t>(s)]) continue;
      const DetectabilityTable& lt =
          shards[static_cast<std::size_t>(s)].tables[t];
      if (auto& sets = unsaved[static_cast<std::size_t>(s)]; !sets.empty()) {
        if (first) {
          merged = std::move(sets[t]);  // the union starts as this set
        } else {
          sets[t].for_each(
              [&](const ErroneousCase& ec) { merged.insert(ec); });
        }
        sets[t].clear();
      }
      merged.insert(lt.cases.begin(), lt.cases.end());
      first = false;
      table.num_activations += lt.num_activations;
      table.num_paths += lt.num_paths;
      table.num_loop_truncations += lt.num_loop_truncations;
      table.strengthened = table.strengthened || lt.strengthened;
      if (p == 1) table.num_detectable_faults += lt.num_detectable_faults;
      if (lt.truncated) {
        table.truncated = true;
        if (table.truncation_reason.empty()) {
          table.truncation_reason = lt.truncation_reason;
        }
      }
    }
    compact(merged);
    table.cases = merged.cases();
    std::sort(table.cases.begin(), table.cases.end(), case_less);
    if (skipped > 0) {
      table.truncated = true;
      if (table.truncation_reason.empty()) {
        table.truncation_reason =
            "checkpoint quota: " + std::to_string(skipped) + " of " +
            std::to_string(num_shards) +
            " shards left for a later run; re-run with --resume to continue";
      }
    }
  }
  for (int p = 2; p <= opts.latency; ++p) {
    tables[static_cast<std::size_t>(p - 1)].num_detectable_faults =
        tables[0].num_detectable_faults;
  }
  return tables;
}

}  // namespace ced::core
