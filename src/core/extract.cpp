#include "core/extract.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/digest.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "sim/compiled_sim.hpp"

namespace ced::core {
namespace {

/// Flat open-addressing hash set: the items live in a dense vector, and a
/// power-of-two slot table (at most half full) maps hashes to positions.
/// Insert-only, and iteration follows insertion order — both users are
/// order-blind: case sets are compacted and/or sorted before any table
/// sees them, and step classes are sorted.
template <class T, class Hash>
class FlatSet {
 public:
  std::size_t size() const { return items_.size(); }
  typename std::vector<T>::const_iterator begin() const {
    return items_.begin();
  }
  typename std::vector<T>::const_iterator end() const { return items_.end(); }

  bool contains(const T& x) const {
    return !slots_.empty() && slots_[probe(x, hash(x))] != 0;
  }

  /// Adds `x`; false when it was already present.
  bool insert(const T& x) {
    if (2 * (items_.size() + 1) > slots_.size()) {
      rehash(std::max<std::size_t>(16, 2 * slots_.size()));
    }
    const std::uint64_t h = hash(x);
    const std::size_t i = probe(x, h);
    if (slots_[i] != 0) return false;
    items_.push_back(x);
    slots_[i] = (h & ~kIndex) | items_.size();
    return true;
  }

  template <class It>
  void insert(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  void reserve(std::size_t n) {
    items_.reserve(n);
    if (2 * n > slots_.size()) rehash(std::bit_ceil(2 * n));
  }

  /// Empties the set, keeping its capacity.
  void reset() {
    items_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
  }

  /// Empties the set and releases its memory.
  void clear() {
    items_ = {};
    slots_ = {};
  }

 private:
  /// Low 32 bits of a slot: item position + 1 (0 = empty); high 32 bits:
  /// the hash's high half, which filters most mismatches without touching
  /// the item.
  static constexpr std::uint64_t kIndex = 0xffffffffull;

  static std::uint64_t hash(const T& x) {
    std::uint64_t h = Hash{}(x);
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }

  /// The slot holding `x`, or the empty slot where it would go.
  std::size_t probe(const T& x, std::uint64_t h) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint64_t slot = slots_[i];
      if (slot == 0 || ((slot >> 32) == (h >> 32) &&
                        items_[(slot & kIndex) - 1] == x)) {
        return i;
      }
    }
  }

  void rehash(std::size_t capacity) {
    slots_.assign(capacity, 0);
    const std::size_t mask = capacity - 1;
    for (std::size_t k = 0; k < items_.size(); ++k) {
      const std::uint64_t h = hash(items_[k]);
      std::size_t i = h & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = (h & ~kIndex) | (k + 1);
    }
  }

  std::vector<T> items_;
  std::vector<std::uint64_t> slots_;
};

using CaseSet = FlatSet<ErroneousCase, ErroneousCaseHash>;

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

/// True if some nonempty proper subset of ec's word set is already a
/// case: that case implies ec (odd overlap with the subset's word is odd
/// overlap with ec's), making ec a redundant row.
bool dominated(const ErroneousCase& ec, const CaseSet& set) {
  const unsigned full = (1u << ec.length) - 1;
  for (unsigned mask = 1; mask < full; ++mask) {
    ErroneousCase sub;
    int m = 0;
    for (int k = 0; k < ec.length; ++k) {
      if ((mask >> k) & 1) {
        sub.diff[static_cast<std::size_t>(m++)] =
            ec.diff[static_cast<std::size_t>(k)];
      }
    }
    sub.length = static_cast<std::uint8_t>(m);
    if (set.contains(sub)) return true;
  }
  return false;
}

/// Rebuilds a set keeping only subset-minimal cases.
void compact(CaseSet& set) {
  CaseSet kept;
  kept.reserve(set.size());
  for (const auto& ec : set) {
    if (!dominated(ec, set)) kept.insert(ec);
  }
  set = std::move(kept);
}

/// Strengthens a case to its `k` smallest difference words (sound: it
/// only removes detection alternatives).
ErroneousCase strengthen(const ErroneousCase& ec, int k) {
  if (ec.length <= k) return ec;
  ErroneousCase s;
  s.length = static_cast<std::uint8_t>(k);
  for (int i = 0; i < k; ++i) {
    s.diff[static_cast<std::size_t>(i)] = ec.diff[static_cast<std::size_t>(i)];
  }
  return s;
}

/// One extraction worker: walks one shard of the fault list through a
/// private FaultSim (one armed fault at a time, golden rows from the shared
/// pre-populated cache) into private per-latency case sets. Its budget
/// valves are private too, so what a shard extracts is a pure function of
/// its fault block and the options, never of the other shards or of
/// timing.
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
  bool truncated() const {
    return std::any_of(tables_.begin(), tables_.end(),
                       [](const DetectabilityTable& t) { return t.truncated; });
  }

 private:
  bool stopped() const { return stop_; }

  /// Step classes of `pair` under the current fault, classified once per
  /// fault: the DFS revisits the same few pairs along many paths.
  const std::vector<StepClass>& classes_of(const Pair& pair) {
    auto [it, fresh] = classes_.try_emplace(pair);
    if (fresh) {
      it->second = step_classes(sim_.golden(pair.good).rows,
                                sim_.faulty_rows(pair.bad), circuit_,
                                opts_.semantics, seen_);
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
    if (depth == opts_.latency || stopped()) return;
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
      if (!set.contains(prefix) && !dominated(prefix, set)) return false;
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
    if (dominated(ec, set)) return;
    const auto before = static_cast<std::int64_t>(set.size());
    set.insert(ec);
    credit_cases(before, static_cast<std::int64_t>(set.size()));
    auto& threshold = compact_threshold_[t];
    if (set.size() > threshold) {
      const auto pre = static_cast<std::int64_t>(set.size());
      compact(set);
      credit_cases(pre, static_cast<std::int64_t>(set.size()));
      threshold = std::max<std::size_t>(2 * set.size(), kCompactStart);
    }
    while (set.size() > degrade_threshold_ && max_words_[t] > 1) {
      // Degrade: strengthen every case of this table to fewer words and
      // rebuild the subset-minimal antichain.
      --max_words_[t];
      tables_[t].strengthened = true;
      CaseSet rebuilt;
      rebuilt.reserve(set.size());
      for (const auto& c : set) rebuilt.insert(strengthen(c, max_words_[t]));
      compact(rebuilt);
      const auto pre = static_cast<std::int64_t>(set.size());
      set = std::move(rebuilt);
      credit_cases(pre, static_cast<std::int64_t>(set.size()));
      threshold = std::max<std::size_t>(2 * set.size(), kCompactStart);
    }
    if (static_cast<std::size_t>(live_cases_) > opts_.max_cases) {
      // Recoverable truncation (the old behaviour threw here): compact the
      // set first; if the shard's count still overflows, keep the
      // subset-minimal cases found so far and freeze the table.
      const auto pre = static_cast<std::int64_t>(set.size());
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
  /// Step classes per pair under the current fault (node-based, so
  /// references stay valid while deeper DFS levels add pairs).
  std::unordered_map<Pair, std::vector<StepClass>, PairHash> classes_;
  std::span<const std::uint64_t> activation_codes_;
  bool stop_ = false;            ///< every table frozen, or deadline hit
  std::int64_t live_cases_ = 0;  ///< cases across sets_ (inserts - compactions)
  std::vector<DetectabilityTable> tables_;  ///< local statistics only
  std::vector<CaseSet> sets_;
  std::vector<std::size_t> compact_threshold_;
  std::vector<int> max_words_;
  const std::size_t degrade_threshold_;
  std::uint32_t tick_ = 0;
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
    table.cases.assign(sets[t].begin(), sets[t].end());
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
    for (int s = 0; s < num_shards; ++s) {
      if (!present[static_cast<std::size_t>(s)]) continue;
      const DetectabilityTable& lt =
          shards[static_cast<std::size_t>(s)].tables[t];
      merged.insert(lt.cases.begin(), lt.cases.end());
      if (auto& sets = unsaved[static_cast<std::size_t>(s)]; !sets.empty()) {
        merged.insert(sets[t].begin(), sets[t].end());
        sets[t].clear();
      }
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
    table.cases.assign(merged.begin(), merged.end());
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
