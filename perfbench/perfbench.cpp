// The repository benchmark harness (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--spans-out FILE]
//
// Workloads: protect-s1488, resolve-warm, prove-s1488, serve-mix. Every
// job drives the library through its public entry points only
// (ced::run_latency_sweep / ced::RunConfig, storage::StoreArchive,
// sim::run_campaign, serve::Server / serve::Client). With --trace 1 the
// harness re-runs the workload with the sweep split into one call per
// layer, records spans around those calls from here (plus the program's
// existing extract-shard / solve-q / lp-solve spans), checks that the split
// run answers byte-identically, and reports per-layer metrics.
//
// The last line of stdout is one JSON record: correctness verdict, job
// counts, every metric, and the host record. perfbench/run.py turns it
// into the benchmark's result line.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchdata/suite.hpp"
#include "common/cpu.hpp"
#include "common/exec.hpp"
#include "common/parallel.hpp"
#include "core/coverkernel.hpp"
#include "core/pipeline.hpp"
#include "core/run.hpp"
#include "fsm/synthesize.hpp"
#include "kiss/kiss.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/campaign.hpp"
#include "sim/faults.hpp"
#include "storage/store.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace fs = std::filesystem;
using namespace ced;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_str(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a over the parity masks of every latency, in order: the pinned
/// fingerprint of a sweep's answer.
std::string parity_digest(const std::vector<std::vector<std::uint64_t>>& ps) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto eat = [&h](std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& p : ps) {
    eat(p.size());
    for (const std::uint64_t m : p) eat(m);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ------------------------------------------------------------ JSON output

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// ------------------------------------------------------------ host record

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string host_json(int threads) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string s = "{";
  s += "\"nproc\":" + std::to_string(nproc);
  s += ",\"affinity_cpus\":" + std::to_string(affinity_cpus());
  s += ",\"cpu_model\":" + json_str(cpu_model());
  s += ",\"simd\":" + json_str(to_string(simd_level()));
  s += ",\"compiler\":" + json_str(PERFBENCH_COMPILER);
  s += ",\"cxx_flags\":" + json_str(PERFBENCH_CXX_FLAGS);
  s += ",\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE);
  s += ",\"threads\":" + std::to_string(threads);
  return s + "}";
}

/// Peak resident memory since the last reset_peak_rss(): VmHWM, with the
/// process-lifetime ru_maxrss as the fallback.
double process_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPU seconds (user + system, all threads) this process has used.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Returns retained free heap memory to the system, then resets VmHWM to
/// the current resident set (Linux clear_refs), so a peak read later covers
/// only what ran after this call.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// ------------------------------------------------------------ inputs

const benchdata::SuiteEntry& suite_entry(const std::string& name) {
  for (const auto& e : benchdata::mcnc_suite()) {
    if (e.name == name) return e;
  }
  throw std::invalid_argument("unknown suite machine " + name);
}

/// The s1488 instance for a seed: the Table-1 suite machine, with its
/// states renamed for seeds other than 0 (same order, so the same encoding,
/// circuit and answers). Fresh s1488-profile SyntheticSpec draws vary 1.5x
/// in extraction time and 4x in solve time from seed to seed, and even an
/// output-column permutation moves q's area by ±3%; neither fits a
/// run-to-run bound, so the s1488 workloads vary only names (and, in
/// resolve-warm, the Algorithm-1 seeds), and the pinned references hold for
/// every seed.
fsm::Fsm s1488_machine(std::uint64_t seed) {
  const fsm::Fsm base = benchdata::generate_fsm(suite_entry("s1488").spec);
  if (seed == 0) return base;
  kiss::Kiss2 k = base.to_kiss();
  const std::string tag = "r" + std::to_string(mix64(seed) % 1000003) + "_";
  for (auto& t : k.transitions) {
    t.current = tag + t.current;
    t.next = tag + t.next;
  }
  if (!k.reset_state.empty()) k.reset_state = tag + k.reset_state;
  return fsm::Fsm::from_kiss(k);
}

/// A machine with the structural profile of a suite entry: the suite
/// machine itself at seed 0 and k == 0, otherwise a fresh SyntheticSpec
/// draw seeded by (seed, profile, k).
benchdata::SyntheticSpec profile_spec(const std::string& profile,
                                      std::uint64_t seed, std::uint64_t k) {
  benchdata::SyntheticSpec spec = suite_entry(profile).spec;
  if (seed != 0 || k != 0) {
    spec.seed = mix64(mix64(seed) ^ hash_str(profile) ^ mix64(k + 1));
    spec.name = profile + "_v" + std::to_string(spec.seed % 1000000007);
  }
  return spec;
}

// ------------------------------------------------------------ checks

/// Independent scalar Statement-4 check: a row is covered when one of its
/// step difference words has odd overlap with some parity. Returns the
/// number of uncovered rows.
std::size_t uncovered_rows(const core::DetectabilityTable& table,
                           const std::vector<std::uint64_t>& parities) {
  std::size_t bad = 0;
  for (const auto& ec : table.cases) {
    bool covered = false;
    for (int k = 0; k < ec.length && !covered; ++k) {
      const std::uint64_t w = ec.diff[static_cast<std::size_t>(k)];
      for (const std::uint64_t beta : parities) {
        if (__builtin_popcountll(w & beta) & 1) {
          covered = true;
          break;
        }
      }
    }
    if (!covered) ++bad;
  }
  return bad;
}

/// The check for a latency-p scheme of a sweep: it must cover the p table,
/// unless it covers a complete (neither strengthened nor truncated) table
/// of a smaller latency, which makes it a valid p scheme too (detecting
/// earlier is allowed). That case arises when a strengthened p table, a
/// conservative stand-in, is answered with the lower latency's cover.
std::size_t scheme_uncovered(const std::vector<core::DetectabilityTable>& tables,
                             int p, const std::vector<std::uint64_t>& parities) {
  if (p < 1 || static_cast<std::size_t>(p) > tables.size()) return 1;
  const std::size_t own =
      uncovered_rows(tables[static_cast<std::size_t>(p - 1)], parities);
  for (int lower = 1; own > 0 && lower < p; ++lower) {
    const auto& t = tables[static_cast<std::size_t>(lower - 1)];
    if (!t.strengthened && !t.truncated && uncovered_rows(t, parities) == 0) {
      return 0;
    }
  }
  return own;
}

// Pinned references for the suite s1488 (every seed: the s1488 workloads
// only rename its states) at T-independent settings; see README.md.
constexpr std::size_t kPinS1488Faults = 2662;
constexpr std::size_t kPinS1488CasesP3 = 181134;
// The store-backed sweep extracts in the fixed 16-shard checkpoint
// partition, whose heavy shard crosses the degrade threshold at p=3: its
// p=3 table is the strengthened one.
constexpr std::size_t kPinS1488StoredCasesP3 = 67097;
constexpr int kPinS1488Q[3] = {8, 8, 8};
constexpr const char* kPinS1488Digest = "767b4594618aba4b";
constexpr std::uint64_t kPinCampaignUnits = 2662;
constexpr std::uint64_t kPinCampaignActivations = 1915460;

// ------------------------------------------------------------ tracing

/// In-memory span log: name, start, end, parent, job id. Harness spans are
/// opened around layer calls; the program's own spans are imported from
/// its obs::Tracer afterwards.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int job = -1;
    int parent = -1;
    double t0 = 0.0, t1 = 0.0;
  };

  SpanLog() : epoch_(Clock::now()) {}

  double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  int open(const std::string& name, int job, int parent) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, job, parent, at(Clock::now()), -1.0});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    const double t = at(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t;
  }
  int add(const std::string& name, int job, int parent, double t0,
          double t1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, job, parent, t0, t1});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Imports the program's spans named in `names` as children of `parent`.
  void import(const obs::Tracer& tracer, const std::set<std::string>& names,
              int job, int parent) {
    const double off = at(tracer.epoch());
    for (const auto& r : tracer.snapshot()) {
      if (names.count(r.name) == 0) continue;
      add(r.name, job, parent, off + r.start_s, off + r.start_s + r.dur_s);
    }
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    for (const auto& s : spans()) {
      out << "{\"name\":" << json_str(s.name) << ",\"job\":" << s.job
          << ",\"parent\":" << s.parent << ",\"start_s\":" << json_num(s.t0)
          << ",\"end_s\":" << json_num(s.t1) << "}\n";
    }
  }

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII harness span (no-op without a log).
class Scope {
 public:
  Scope(SpanLog* log, const std::string& name, int job, int parent = -1)
      : log_(log), id_(log ? log->open(name, job, parent) : -1) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }
  void end() {
    if (log_ != nullptr && id_ >= 0 && !ended_) log_->close(id_);
    ended_ = true;
  }

 private:
  SpanLog* log_;
  int id_;
  bool ended_ = false;
};

/// Length of the union of [t0, t1) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur0 = 0.0, cur1 = -1e300;
  for (const auto& [a, b] : iv) {
    if (a > cur1) {
      if (cur1 > cur0) total += cur1 - cur0;
      cur0 = a;
      cur1 = b;
    } else {
      cur1 = std::max(cur1, b);
    }
  }
  if (cur1 > cur0) total += cur1 - cur0;
  return total;
}

/// Per-layer accumulation for one traced job: counts are summed, span
/// self times are derived from the log afterwards.
using Counts = std::map<std::string, double>;

// ------------------------------------------------------------ the split sweep

struct Scheme {
  int latency = 0;
  std::vector<std::uint64_t> parities;
  double ced_area = 0.0, orig_area = 0.0;
  bool degraded = false;

  bool same_answer(const Scheme& o) const {
    return latency == o.latency && parities == o.parities &&
           ced_area == o.ced_area && orig_area == o.orig_area;
  }
};

Scheme scheme_of(const core::PipelineReport& r) {
  Scheme s;
  s.latency = r.latency;
  s.parities = r.parities;
  s.ced_area = r.ced_area;
  s.orig_area = r.orig_area;
  s.degraded = r.resilience.degraded();
  return s;
}

std::vector<Scheme> schemes_of(const std::vector<core::PipelineReport>& rs) {
  std::vector<Scheme> out;
  for (const auto& r : rs) out.push_back(scheme_of(r));
  return out;
}

struct SplitResult {
  std::vector<Scheme> schemes;
  std::vector<core::DetectabilityTable> tables;
  std::size_t faults = 0;
  bool table_hit = false;
};

/// The latency sweep as one call per layer, mirroring
/// core::run_latency_sweep_impl: synth, fault enumeration, extraction (or a
/// store load), then per latency condense, solve and CED synthesis. Without
/// an archive extraction uses the partition run_pipeline uses (one shard per
/// thread) with no hooks. `log` null = untraced.
SplitResult split_sweep(const fsm::Fsm& f, const std::vector<int>& ps,
                        const core::PipelineOptions& opts,
                        storage::StoreArchive* archive, SpanLog* log, int job,
                        int parent, Counts& c) {
  const ScopedExecPolicy exec_scope(opts.exec);
  const int threads = resolve_threads(opts.exec.threads);
  const core::Deadline deadline = core::Deadline::from(opts.budget);
  SplitResult out;

  std::optional<fsm::FsmCircuit> circuit;
  {
    Scope s(log, "fsm.synth", job, parent);
    circuit.emplace(fsm::synthesize_fsm(f, opts.encoding, opts.synth));
  }
  const logic::AreaReport orig = logic::measure_area(
      circuit->netlist, opts.library, static_cast<std::size_t>(circuit->s()));
  c["logic.gates"] += static_cast<double>(orig.gates);

  std::vector<sim::StuckAtFault> faults;
  {
    Scope s(log, "sim.enumerate", job, parent);
    faults = sim::enumerate_stuck_at(circuit->netlist, opts.faults);
  }
  out.faults = faults.size();
  c["sim.faults"] += static_cast<double>(faults.size());

  obs::Tracer tracer(1 << 16);
  const obs::Sinks sinks{log ? &tracer : nullptr, nullptr, 0};
  core::ExtractOptions ex = opts.extract;
  ex.latency = *std::max_element(ps.begin(), ps.end());
  ex.deadline = deadline;
  ex.threads = opts.exec.threads;
  ex.obs = sinks;  // the program's extract-shard spans, when traced

  core::ShardedExtractOptions sharding;
  core::ExtractCheckpointHooks hooks;
  std::string key;
  std::mutex write_mu;
  double shard_write_s = 0.0;
  if (archive != nullptr) {
    sharding.num_shards =
        core::resolve_checkpoint_shards(opts.checkpoint_shards, faults.size());
    key = core::extraction_digest(*circuit, faults, ex, sharding.num_shards);
    {
      Scope s(log, "storage.load", job, parent);
      out.tables = archive->load_tables(key);
    }
    out.table_hit = !out.tables.empty();
    c["storage.table_loads"] += 1;
    c["storage.table_hits"] += out.table_hit ? 1 : 0;
    hooks.save = [&](const core::ExtractShard& sh) {
      const auto t0 = Clock::now();
      archive->store_shard(key, sh);
      const double dt = seconds_since(t0);
      std::lock_guard<std::mutex> lock(write_mu);
      shard_write_s += dt;
    };
  } else {
    sharding.num_shards = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(threads),
        std::max<std::size_t>(1, faults.size())));
  }
  if (!out.table_hit) {
    Scope s(log, "extract", job, parent);
    out.tables =
        core::extract_cases_sharded(*circuit, faults, ex, sharding, hooks);
    s.end();
    if (log) log->import(tracer, {"extract-shard"}, job, s.id());
    const core::DetectabilityTable& deep = out.tables.back();
    c["extract.cases"] += static_cast<double>(deep.cases.size());
    c["extract.activations"] += static_cast<double>(deep.num_activations);
    c["extract.paths"] += static_cast<double>(deep.num_paths);
    c["extract.loop_truncations"] +=
        static_cast<double>(deep.num_loop_truncations);
    if (archive != nullptr) {
      c["storage.shard_write_s"] += shard_write_s;
      Scope w(log, "storage.write", job, parent);
      archive->store_tables(key, out.tables);
      archive->drop_shards(key);
    }
  }
  const bool any_truncated =
      std::any_of(out.tables.begin(), out.tables.end(),
                  [](const core::DetectabilityTable& t) { return t.truncated; });

  std::vector<core::ParityFunc> warm;
  int prev_p = 0;
  for (const int p : ps) {
    const core::DetectabilityTable& table =
        out.tables[static_cast<std::size_t>(p - 1)];
    std::optional<core::CondensedTable> cond;
    {
      Scope s(log, "condense", job, parent);
      if (opts.condense && !table.cases.empty()) {
        cond.emplace(core::condense_table(table));
      }
    }
    const core::DetectabilityTable& solve_on =
        cond && cond->removed > 0 ? cond->table : table;
    c["condense.rows_in"] += static_cast<double>(table.cases.size());
    c["condense.rows_kept"] += static_cast<double>(solve_on.cases.size());

    core::PipelineOptions sopts = opts;
    sopts.condense = false;  // condensed above, as its own layer
    sopts.obs = sinks;
    core::Algorithm1Stats stats;
    core::ResilienceReport res;
    const std::size_t before = log ? tracer.snapshot().size() : 0;
    Scope s(log, "solve", job, parent);
    std::vector<core::ParityFunc> parities = core::select_parities_resilient(
        solve_on, sopts, deadline, &stats, warm, res);
    const bool ascending = warm.empty() || p >= prev_p;
    if (ascending && !any_truncated && !warm.empty() &&
        warm.size() < parities.size()) {
      parities = warm;
    }
    s.end();
    if (log) {
      const auto all = tracer.snapshot();
      const double off = log->at(tracer.epoch());
      for (std::size_t i = before; i < all.size(); ++i) {
        const auto& r = all[i];
        if (r.name == "lp-solve") {
          log->add("lp.solve", job, s.id(), off + r.start_s,
                   off + r.start_s + r.dur_s);
        } else if (r.name == "solve-q") {
          c["solve.q_probes"] += 1;
          for (const auto& [k, v] : r.attrs) {
            if (k == "cover" && v == "yes") c["solve.feasible_probes"] += 1;
          }
        }
      }
    }
    c["solve.roundings"] += stats.roundings;
    c["solve.repairs"] += stats.repairs;
    c["kernel.case_evals"] += static_cast<double>(stats.kernel_case_evals);
    c["lp.solves"] += stats.lp_solves;
    c["lp.pivots"] += stats.lp_iterations;
    c["lp.phase1_pivots"] += stats.lp_phase1_iterations;
    c["lp.refactorizations"] += stats.lp_refactorizations;
    c["lp.warm_attempts"] += stats.lp_warm_attempts;
    c["lp.warm_hits"] += stats.lp_warm_hits;

    core::CedHardware hw;
    {
      Scope cs(log, "cedsynth", job, parent);
      hw = core::synthesize_ced(*circuit, parities, opts.ced);
    }
    const logic::AreaReport cost = hw.cost(opts.library);
    c["cedsynth.gates"] += static_cast<double>(cost.gates);

    Scheme sch;
    sch.latency = p;
    sch.parities = parities;
    sch.ced_area = cost.area;
    sch.orig_area = orig.area;
    sch.degraded = res.degraded() || table.truncated;
    out.schemes.push_back(sch);
    warm = parities;
    prev_p = p;
  }
  return out;
}

// ------------------------------------------------------------ per-layer report

/// Every per-layer metric name with its unit. Layers a workload does not
/// run report 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"fsm.synth_s", "s"},
      {"logic.gates", "count"},
      {"sim.faults", "count"},
      {"sim.enumerate_s", "s"},
      {"extract.s", "s"},
      {"extract.cases_per_s", "1/s"},
      {"extract.activations", "count"},
      {"extract.paths", "count"},
      {"extract.loop_truncations", "count"},
      {"extract.cases", "count"},
      {"extract.shard_s.max", "s"},
      {"extract.shard_s.mean", "s"},
      {"extract.shard_balance", "ratio"},
      {"extract.busy_wall", "ratio"},
      {"condense.s", "s"},
      {"condense.rows_kept_ratio", "ratio"},
      {"solve.s", "s"},
      {"solve.q_probes", "count"},
      {"solve.feasible_probe_ratio", "ratio"},
      {"solve.roundings", "count"},
      {"solve.repairs", "count"},
      {"kernel.case_evals", "count"},
      {"kernel.case_evals_per_s", "1/s"},
      {"lp.s", "s"},
      {"lp.solves", "count"},
      {"lp.pivots", "count"},
      {"lp.phase1_pivots", "count"},
      {"lp.refactorizations", "count"},
      {"lp.warm_hit_ratio", "ratio"},
      {"cedsynth.s", "s"},
      {"cedsynth.gates", "count"},
      {"storage.load_s", "s"},
      {"storage.write_s", "s"},
      {"storage.table_hit_ratio", "ratio"},
      {"campaign.s", "s"},
      {"campaign.units", "count"},
      {"campaign.activations", "count"},
      {"campaign.activations_per_s", "1/s"},
      {"serve.rtt_s.p50", "s"},
      {"serve.server_s.p50", "s"},
      {"serve.overhead_s", "s"},
      {"serve.warm_hit_ratio", "ratio"},
      {"serve.dedup_joins", "count"},
      {"serve.overload_rejections", "count"},
      {"trace.overhead_frac", "ratio"},
      {"trace.unattributed_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

/// Derives one traced job's per-layer values from its spans and counts.
/// Times are self times: a span's duration minus the part of it covered by
/// its children. `job_span` is the job's root span.
Counts layer_values(const SpanLog& log, int job, int job_span,
                    const Counts& c) {
  const auto spans = log.spans();
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].job == job && spans[i].parent >= 0) {
      children[spans[i].parent].push_back({spans[i].t0, spans[i].t1});
    }
  }
  Counts v;
  std::vector<double> shard_s;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.job != job || static_cast<int>(i) == job_span) continue;
    const double dur = s.t1 - s.t0;
    const auto ch = children.find(static_cast<int>(i));
    const double self =
        dur - (ch == children.end() ? 0.0 : union_length(ch->second));
    if (s.name == "fsm.synth") v["fsm.synth_s"] += dur;
    if (s.name == "sim.enumerate") v["sim.enumerate_s"] += dur;
    if (s.name == "extract") v["extract.s"] += dur;
    if (s.name == "extract-shard") shard_s.push_back(dur);
    if (s.name == "condense") v["condense.s"] += dur;
    if (s.name == "solve") v["solve.s"] += self;
    if (s.name == "lp.solve") v["lp.s"] += dur;
    if (s.name == "cedsynth") v["cedsynth.s"] += dur;
    if (s.name == "storage.load") v["storage.load_s"] += dur;
    if (s.name == "storage.write") v["storage.write_s"] += dur;
    if (s.name == "campaign") v["campaign.s"] += dur;
  }
  const auto get = [&c](const char* k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  v["storage.write_s"] += get("storage.shard_write_s");
  for (const char* k :
       {"logic.gates", "sim.faults", "extract.cases", "extract.activations",
        "extract.paths", "extract.loop_truncations", "solve.q_probes",
        "solve.roundings", "solve.repairs", "kernel.case_evals", "lp.solves",
        "lp.pivots", "lp.phase1_pivots", "lp.refactorizations",
        "cedsynth.gates", "campaign.units", "campaign.activations"}) {
    v[k] = get(k);
  }
  if (c.count("peak_rss_mb")) v["peak_rss_mb"] = get("peak_rss_mb");
  if (v["extract.s"] > 0) {
    v["extract.cases_per_s"] = v["extract.cases"] / v["extract.s"];
  }
  if (!shard_s.empty()) {
    const double mx = *std::max_element(shard_s.begin(), shard_s.end());
    const double mn = mean(shard_s);
    v["extract.shard_s.max"] = mx;
    v["extract.shard_s.mean"] = mn;
    v["extract.shard_balance"] = mx > 0 ? mn / mx : 0.0;
    const double threads = get("threads");
    if (v["extract.s"] > 0 && threads > 0) {
      v["extract.busy_wall"] =
          std::accumulate(shard_s.begin(), shard_s.end(), 0.0) /
          (threads * v["extract.s"]);
    }
  }
  if (get("condense.rows_in") > 0) {
    v["condense.rows_kept_ratio"] =
        get("condense.rows_kept") / get("condense.rows_in");
  }
  if (get("solve.q_probes") > 0) {
    v["solve.feasible_probe_ratio"] =
        get("solve.feasible_probes") / get("solve.q_probes");
  }
  if (v["solve.s"] > 0) {
    v["kernel.case_evals_per_s"] = v["kernel.case_evals"] / v["solve.s"];
  }
  if (get("lp.warm_attempts") > 0) {
    v["lp.warm_hit_ratio"] = get("lp.warm_hits") / get("lp.warm_attempts");
  }
  if (get("storage.table_loads") > 0) {
    v["storage.table_hit_ratio"] =
        get("storage.table_hits") / get("storage.table_loads");
  }
  if (v["campaign.s"] > 0) {
    v["campaign.activations_per_s"] =
        v["campaign.activations"] / v["campaign.s"];
  }
  // Time inside the job span not covered by any layer span.
  if (job_span >= 0) {
    const auto& js = spans[static_cast<std::size_t>(job_span)];
    const auto ch = children.find(job_span);
    v["trace.unattributed_s"] =
        (js.t1 - js.t0) -
        (ch == children.end() ? 0.0 : union_length(ch->second));
  }
  return v;
}

// ------------------------------------------------------------ run context

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::string spans_out;
};

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  Metrics metrics;
  std::vector<double> job_s;
  /// CPU seconds (all threads) per job; serve-mix: per request, over the
  /// whole closed loop.
  std::vector<double> job_cpu_s;
  double timed_s = 0.0;
  /// CPU seconds (all threads) per set-up repetition.
  std::vector<double> setup_s;
  std::vector<double> q_values;
  std::vector<double> area_pct;
  std::map<std::string, std::string> facts;
  /// Peak RSS during the timed jobs (see timed_loop; serve-mix: during its
  /// closed loop). What set-up left resident counts; the checks that
  /// follow are the benchmark's own work.
  double peak_rss_mb = 0.0;

  void problem(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

struct Ctx {
  Args args;
  int threads = 1;
  fs::path dir;  ///< private scratch directory of this run
  SpanLog log;
};

/// Runs `job` until the timed window has elapsed and at least `min_jobs`
/// jobs ran; records per-job seconds.
/// Freed memory is returned before each job, so each job's peak resident
/// memory is what it needs on its own, as in a fresh process; the median
/// over jobs is reported.
template <typename Job>
void timed_loop(Ctx& ctx, Outcome& o, std::size_t min_jobs, Job&& job) {
  const auto start = Clock::now();
  std::vector<double> peaks;
  std::size_t i = 0;
  while (i < min_jobs || seconds_since(start) < ctx.args.seconds) {
    reset_peak_rss();
    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    const bool ok = job(i);
    o.job_s.push_back(seconds_since(t0));
    o.job_cpu_s.push_back(process_cpu_s() - c0);
    peaks.push_back(process_peak_rss_mb());
    ++o.attempted;
    if (!ok) ++o.failed;
    ++i;
  }
  o.timed_s = seconds_since(start);
  o.peak_rss_mb = median(peaks);
}

void add_quality(Outcome& o, const std::vector<Scheme>& schemes) {
  for (const auto& s : schemes) {
    o.q_values.push_back(static_cast<double>(s.parities.size()));
    o.area_pct.push_back(s.orig_area > 0 ? 100.0 * s.ced_area / s.orig_area
                                         : 0.0);
  }
}

/// Records per-layer metrics over the traced jobs that ran the layer: means
/// of per-job counts and ratios (identical per job for deterministic jobs),
/// and per-job times as medians when the jobs are alike or as means when
/// they mix job kinds (serve-mix's warm and cold requests).
void finish_layers(Outcome& o, const std::vector<Counts>& jobs,
                   double overhead_frac, bool alike_jobs = true) {
  for (const auto& [name, unit] : layer_metric_units()) {
    std::vector<double> xs;
    for (const auto& j : jobs) {
      const auto it = j.find(name);
      if (it != j.end()) xs.push_back(it->second);
    }
    const bool by_median = alike_jobs && unit == "s";
    o.set(name, by_median ? median(xs) : mean(xs), unit);
  }
  o.set("trace.overhead_frac", overhead_frac, "ratio");
}

core::PipelineOptions sweep_options(int threads, std::optional<std::uint64_t> seed,
                                    core::ExtractArchive* archive) {
  RunConfig::Builder b;
  b.threads(threads);
  if (seed) b.seed(*seed);
  if (archive != nullptr) b.archive(archive);
  const Result<RunConfig> cfg = b.build();
  if (!cfg) throw std::runtime_error(cfg.status().message);
  return cfg->options();
}

const std::vector<int> kSweep = {1, 2, 3};

// ------------------------------------------------------------ protect-s1488

void protect_s1488(Ctx& ctx, Outcome& o) {
  // Set-up is only input generation here: repeat it for a steady median.
  std::optional<fsm::Fsm> f;
  for (int r = 0; r < 25; ++r) {
    const double cpu0 = process_cpu_s();
    f.emplace(s1488_machine(ctx.args.seed));
    o.setup_s.push_back(process_cpu_s() - cpu0);
  }
  const RunConfig cfg = RunConfig::wrap(sweep_options(ctx.threads, {}, nullptr));
  const auto sweep = [&]() {
    return schemes_of(ced::run_latency_sweep(*f, kSweep, cfg));
  };

  std::vector<std::vector<Scheme>> answers;
  if (!ctx.args.trace) {
    timed_loop(ctx, o, 2, [&](std::size_t) {
      answers.push_back(sweep());
      return true;
    });
  } else {
    const auto t0 = Clock::now();
    answers.push_back(sweep());
    o.job_s.push_back(seconds_since(t0));
    o.attempted = 1;
  }

  // The split run: reference tables for the cover check, and the answer
  // it must reproduce byte for byte.
  std::vector<Counts> layer_jobs;
  std::vector<double> traced_s;
  SplitResult split;
  const int traced_jobs = ctx.args.trace ? 2 : 1;
  for (int j = 0; j < traced_jobs; ++j) {
    Counts c;
    c["threads"] = ctx.threads;
    SpanLog* log = ctx.args.trace ? &ctx.log : nullptr;
    reset_peak_rss();
    const auto t0 = Clock::now();
    Scope job(log, "job", j);
    split = split_sweep(*f, kSweep, cfg.options(), nullptr, log, j, job.id(), c);
    job.end();
    traced_s.push_back(seconds_since(t0));
    c["peak_rss_mb"] = process_peak_rss_mb();
    if (log) layer_jobs.push_back(layer_values(ctx.log, j, job.id(), c));
  }

  const std::vector<Scheme>& first = answers.front();
  std::vector<std::vector<std::uint64_t>> masks;
  for (const auto& s : first) masks.push_back(s.parities);
  std::size_t bad_jobs = 0;
  for (const auto& a : answers) {
    bool ok = a.size() == kSweep.size();
    for (std::size_t i = 0; ok && i < a.size(); ++i) {
      ok = !a[i].degraded && a[i].same_answer(first[i]) &&
           scheme_uncovered(split.tables, a[i].latency, a[i].parities) == 0;
    }
    if (!ok) ++bad_jobs;
  }
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (!split.schemes[i].same_answer(first[i])) {
      o.problem("split run differs from run_latency_sweep at p=" +
                std::to_string(first[i].latency));
      bad_jobs = answers.size();
    }
  }
  if (bad_jobs > 0) o.problem(std::to_string(bad_jobs) + " job(s) failed checks");
  const std::string digest = parity_digest(masks);
  o.facts["faults"] = std::to_string(split.faults);
  o.facts["cases_p3"] = std::to_string(split.tables.back().cases.size());
  std::string qs;
  for (const auto& s : first) qs += std::to_string(s.parities.size()) + " ";
  o.facts["q"] = qs;
  o.facts["parity_digest"] = digest;
  {
    bool pin_ok = split.faults == kPinS1488Faults &&
                  split.tables.back().cases.size() == kPinS1488CasesP3 &&
                  digest == kPinS1488Digest;
    for (std::size_t i = 0; i < first.size(); ++i) {
      pin_ok = pin_ok && static_cast<int>(first[i].parities.size()) ==
                             kPinS1488Q[i];
    }
    if (!pin_ok) {
      o.problem("pinned s1488 references do not match");
      bad_jobs = answers.size();
    }
  }
  if (!ctx.args.trace) {
    o.failed = std::min(answers.size(), bad_jobs);
    for (const auto& a : answers) add_quality(o, a);
  } else {
    o.failed = bad_jobs > 0 ? 1 : 0;
    finish_layers(o, layer_jobs,
                  median(traced_s) / o.job_s.front() - 1.0);
  }
}

// ------------------------------------------------------------ resolve-warm

void resolve_warm(Ctx& ctx, Outcome& o) {
  // Set-up: the machine and a store filled by one cold sweep. Done twice in
  // separate stores for a steadier set-up time; the second one is used.
  std::optional<fsm::Fsm> f;
  std::unique_ptr<storage::ArtifactStore> store;
  std::unique_ptr<storage::StoreArchive> archive;
  obs::MetricsRegistry store_metrics;
  const int setups = ctx.args.trace ? 1 : 2;
  for (int r = 0; r < setups; ++r) {
    const double cpu0 = process_cpu_s();
    f.emplace(s1488_machine(ctx.args.seed));
    archive.reset();
    store = std::make_unique<storage::ArtifactStore>(
        ctx.dir / ("store" + std::to_string(r)));
    archive = std::make_unique<storage::StoreArchive>(*store);
    const RunConfig cfg =
        RunConfig::wrap(sweep_options(ctx.threads, {}, archive.get()));
    const auto reps = ced::run_latency_sweep(*f, kSweep, cfg);
    o.setup_s.push_back(process_cpu_s() - cpu0);
    for (const auto& r2 : reps) {
      if (r2.resilience.degraded()) o.problem("set-up sweep degraded");
    }
  }
  store->set_sinks(obs::Sinks{nullptr, &store_metrics, 0});

  const auto job_seed = [&](std::size_t i) {
    return mix64(ctx.args.seed * 1000003ull + i) | 1ull;
  };
  const auto warm_sweep = [&](std::size_t i) {
    const RunConfig cfg = RunConfig::wrap(
        sweep_options(ctx.threads, job_seed(i), archive.get()));
    return ced::run_latency_sweep(*f, kSweep, cfg);
  };

  std::vector<std::vector<core::PipelineReport>> answers;
  const std::size_t untraced_jobs = ctx.args.trace ? 4 : 8;
  if (!ctx.args.trace) {
    timed_loop(ctx, o, untraced_jobs, [&](std::size_t i) {
      answers.push_back(warm_sweep(i));
      return true;
    });
  } else {
    for (std::size_t i = 0; i < untraced_jobs; ++i) {
      const auto t0 = Clock::now();
      answers.push_back(warm_sweep(i));
      o.job_s.push_back(seconds_since(t0));
      ++o.attempted;
    }
  }
  const auto writes = store_metrics.snapshot().counters;
  const auto w = writes.find("ced_store_writes_total");
  if (w != writes.end() && w->second > 0) {
    o.problem("warm jobs wrote to the store (table miss)");
  }

  // Reference tables straight from the store for the cover check.
  const std::string key = answers.front().front().extraction_key;
  const auto tables = archive->load_tables(key);
  if (tables.size() != kSweep.size()) {
    o.problem("stored tables missing for key " + key);
  }
  std::size_t bad = 0;
  for (std::size_t j = 0; j < answers.size(); ++j) {
    const auto& a = answers[j];
    std::string why = a.size() == kSweep.size() && tables.size() == kSweep.size()
                          ? ""
                          : "wrong number of reports";
    for (std::size_t i = 0; why.empty() && i < a.size(); ++i) {
      const std::string at = " at p=" + std::to_string(a[i].latency);
      if (a[i].resilience.degraded()) {
        why = "degraded" + at + ": " + a[i].resilience.status.message;
      } else if (a[i].extraction_key != key) {
        why = "table key differs" + at;
      } else if (const std::size_t u =
                     scheme_uncovered(tables, a[i].latency, a[i].parities)) {
        why = std::to_string(u) + " uncovered rows" + at;
      }
    }
    if (!why.empty()) {
      if (bad == 0) o.problem("job " + std::to_string(j) + ": " + why);
      ++bad;
    }
  }
  if (!tables.empty()) {
    o.facts["cases_p3"] = std::to_string(tables.back().cases.size());
    if (tables.back().cases.size() != kPinS1488StoredCasesP3) {
      o.problem("stored p=3 case count does not match the pin");
      bad = answers.size();
    }
  }
  if (bad > 0) o.problem(std::to_string(bad) + " job(s) failed checks");

  if (!ctx.args.trace) {
    o.failed = std::max(o.failed, std::min(bad, answers.size()));
    for (const auto& a : answers) add_quality(o, schemes_of(a));
    return;
  }
  // Traced: eight split jobs with the seeds of untraced jobs 0..7; the
  // first four must reproduce the untraced answers exactly.
  std::vector<Counts> layer_jobs;
  std::vector<double> traced_s;
  for (int j = 0; j < 8; ++j) {
    Counts c;
    c["threads"] = ctx.threads;
    reset_peak_rss();
    const auto t0 = Clock::now();
    Scope job(&ctx.log, "job", j);
    const SplitResult split = split_sweep(
        *f, kSweep,
        sweep_options(ctx.threads, job_seed(static_cast<std::size_t>(j)),
                      archive.get()),
        archive.get(), &ctx.log, j, job.id(), c);
    job.end();
    traced_s.push_back(seconds_since(t0));
    c["peak_rss_mb"] = process_peak_rss_mb();
    layer_jobs.push_back(layer_values(ctx.log, j, job.id(), c));
    if (static_cast<std::size_t>(j) < answers.size()) {
      const auto ref = schemes_of(answers[static_cast<std::size_t>(j)]);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (!split.schemes[i].same_answer(ref[i])) {
          o.problem("split run differs from run_latency_sweep (job " +
                    std::to_string(j) + ")");
          bad = answers.size();
        }
      }
    }
  }
  o.failed = std::min(bad, o.attempted);
  finish_layers(o, layer_jobs, median(traced_s) / median(o.job_s) - 1.0);
}

// ------------------------------------------------------------ prove-s1488

void prove_s1488(Ctx& ctx, Outcome& o) {
  struct Setup {
    fsm::FsmCircuit circuit;
    std::vector<sim::StuckAtFault> faults;
    core::CedHardware hw;
    Scheme scheme;
  };
  std::optional<Setup> su;
  const int setups = ctx.args.trace ? 1 : 2;
  for (int r = 0; r < setups; ++r) {
    const double cpu0 = process_cpu_s();
    const fsm::Fsm f = s1488_machine(ctx.args.seed);
    core::PipelineOptions popts = sweep_options(ctx.threads, {}, nullptr);
    popts.latency = 2;
    const auto rep = ced::run_pipeline(f, RunConfig::wrap(popts));
    fsm::FsmCircuit circuit =
        fsm::synthesize_fsm(f, popts.encoding, popts.synth);
    auto faults = sim::enumerate_stuck_at(circuit.netlist, popts.faults);
    core::CedHardware hw = core::synthesize_ced(circuit, rep.parities, popts.ced);
    su.emplace(Setup{std::move(circuit), std::move(faults), std::move(hw),
                     scheme_of(rep)});
    o.setup_s.push_back(process_cpu_s() - cpu0);
  }
  if (su->scheme.degraded) o.problem("set-up scheme degraded");

  sim::CampaignOptions copts;
  copts.model = sim::FaultModel::kStuckAt;
  copts.policy = sim::CampaignPolicy::kExhaustive;
  copts.latency_bound = 2;
  copts.threads = ctx.threads;
  const auto campaign = [&]() {
    return sim::run_campaign(su->circuit, su->hw, su->faults, copts);
  };
  const auto check = [&](const sim::CampaignReport& r) {
    bool ok = !r.truncated && r.hard_guarantee() && r.bound_holds() &&
              r.num_units == su->faults.size() && r.activations > 0;
    ok = ok && r.num_units == kPinCampaignUnits &&
         r.activations == kPinCampaignActivations;
    return ok;
  };

  std::vector<sim::CampaignReport> reports;
  if (!ctx.args.trace) {
    timed_loop(ctx, o, 2, [&](std::size_t) {
      reports.push_back(campaign());
      return check(reports.back()) &&
             reports.back().verdicts == reports.front().verdicts;
    });
    add_quality(o, {su->scheme});
  } else {
    const auto t0 = Clock::now();
    reports.push_back(campaign());
    o.job_s.push_back(seconds_since(t0));
    o.attempted = 1;
    if (!check(reports.back())) o.failed = 1;
    Counts c;
    reset_peak_rss();
    const auto t1 = Clock::now();
    Scope job(&ctx.log, "job", 0);
    sim::CampaignReport traced;
    {
      Scope s(&ctx.log, "campaign", 0, job.id());
      traced = campaign();
    }
    job.end();
    const double traced_s = seconds_since(t1);
    c["peak_rss_mb"] = process_peak_rss_mb();
    c["sim.faults"] = static_cast<double>(su->faults.size());
    c["campaign.units"] = static_cast<double>(traced.num_units);
    c["campaign.activations"] = static_cast<double>(traced.activations);
    if (!(traced.verdicts == reports.front().verdicts)) {
      o.problem("traced campaign differs from the untraced one");
      o.failed = 1;
    }
    finish_layers(o, {layer_values(ctx.log, 0, job.id(), c)},
                  traced_s / o.job_s.front() - 1.0);
  }
  const auto& r = reports.front();
  o.facts["units"] = std::to_string(r.num_units);
  o.facts["activations"] = std::to_string(r.activations);
  o.facts["late"] = std::to_string(r.detected_late);
  o.facts["silent"] = std::to_string(r.silent_escape);
  o.facts["truncated"] = r.truncated ? "yes" : "no";
  if (!check(r)) o.problem("campaign verdict fails the checks or the pins");
}

// ------------------------------------------------------------ serve-mix

const std::vector<std::string> kServeProfiles = {"cse", "sse", "s386", "tma",
                                                 "keyb"};

struct Served {
  int machine = 0;
  serve::Code code = serve::Code::kOk;
  bool cached = false;
  std::vector<std::uint64_t> parities;
  bool transport_ok = true;
  double rtt_s = 0.0;
};

serve::Request protect_request(const std::string& kiss, std::size_t id) {
  serve::Request req;
  req.op = "protect";
  req.id = std::to_string(id);
  req.kiss = kiss;
  req.latency = 2;
  return req;
}

void serve_mix(Ctx& ctx, Outcome& o) {
  // Machines: the warm pool (kPoolPerProfile per profile) followed by fresh
  // machines, one per cold request of the stream; `stream` holds indices.
  constexpr std::size_t kStream = 8000;
  constexpr std::uint64_t kPoolPerProfile = 4;
  std::vector<std::string> kiss;
  std::vector<int> stream;
  std::string sock;
  std::unique_ptr<serve::Server> server;
  std::mt19937_64 rng(mix64(ctx.args.seed ^ 0x5e57e));
  const int setups = ctx.args.trace ? 1 : 3;
  for (int r = 0; r < setups; ++r) {
    const double cpu0 = process_cpu_s();
    if (server) server->drain();
    server.reset();
    kiss.clear();
    stream.clear();
    rng.seed(mix64(ctx.args.seed ^ 0x5e57e));
    for (std::uint64_t k = 0; k < kPoolPerProfile; ++k) {
      for (const auto& p : kServeProfiles) {
        kiss.push_back(
            benchdata::generate_kiss(profile_spec(p, ctx.args.seed, k)));
      }
    }
    const int pool = static_cast<int>(kiss.size());
    // Balanced, seeded order: warm requests walk reshuffled passes over the
    // pool, cold requests reshuffled passes over the profiles.
    std::vector<int> warm_order, cold_order;
    for (std::size_t i = 0; i < kStream; ++i) {
      if (i % 4 == 3) {
        if (cold_order.empty()) {
          for (int p = 0; p < static_cast<int>(kServeProfiles.size()); ++p) {
            cold_order.push_back(p);
          }
          std::shuffle(cold_order.begin(), cold_order.end(), rng);
        }
        const auto& p = kServeProfiles[static_cast<std::size_t>(cold_order.back())];
        cold_order.pop_back();
        stream.push_back(static_cast<int>(kiss.size()));
        kiss.push_back(benchdata::generate_kiss(
            profile_spec(p, ctx.args.seed, kPoolPerProfile + i)));
      } else {
        if (warm_order.empty()) {
          for (int m = 0; m < pool; ++m) warm_order.push_back(m);
          std::shuffle(warm_order.begin(), warm_order.end(), rng);
        }
        stream.push_back(warm_order.back());
        warm_order.pop_back();
      }
    }
    const fs::path sdir = ctx.dir / ("serve" + std::to_string(r));
    fs::create_directories(sdir);
    serve::ServerOptions sopts;
    sock = (sdir / "sock").string();
    sopts.unix_socket = sock;
    sopts.store_dir = (sdir / "store").string();
    sopts.workers = ctx.threads;
    sopts.queue_depth = 4 * ctx.threads;
    sopts.threads_per_request = 1;
    server = std::make_unique<serve::Server>(sopts);
    const Status st = server->start();
    if (!st.ok()) throw std::runtime_error("server start: " + st.message);
    // Serve the pool once, T requests at a time, so repeats are warm hits.
    std::vector<std::thread> warmers;
    std::atomic<int> warm_next{0}, warm_fail{0};
    for (int t = 0; t < ctx.threads; ++t) {
      warmers.emplace_back([&] {
        serve::ClientOptions copts;
        copts.unix_socket = sock;
        serve::Client client(copts);
        for (int m = warm_next++; m < pool; m = warm_next++) {
          const auto resp = client.call(
              protect_request(kiss[static_cast<std::size_t>(m)], m));
          if (!resp || resp->code != serve::Code::kOk) ++warm_fail;
        }
      });
    }
    for (auto& t : warmers) t.join();
    if (warm_fail > 0) o.problem("warm-pool requests failed");
    o.setup_s.push_back(process_cpu_s() - cpu0);
  }
  const int pool_size =
      static_cast<int>(kPoolPerProfile * kServeProfiles.size());

  // Closed loop: T clients, each sends its next request after the reply.
  const obs::MetricsSnapshot before = server->metrics().snapshot();
  reset_peak_rss();
  const double cpu0 = process_cpu_s();
  std::vector<Served> served(kStream);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (int t = 0; t < ctx.threads; ++t) {
    clients.emplace_back([&] {
      serve::ClientOptions copts;
      copts.unix_socket = sock;
      serve::Client client(copts);
      while (!stop.load()) {
        const std::size_t i = next.fetch_add(1);
        if (i >= kStream) break;
        Served& s = served[i];
        s.machine = stream[i];
        const auto t0 = Clock::now();
        const auto resp = client.call(
            protect_request(kiss[static_cast<std::size_t>(s.machine)], i));
        s.rtt_s = seconds_since(t0);
        if (!resp) {
          s.transport_ok = false;
        } else {
          s.code = resp->code;
          s.cached = resp->cached;
          s.parities = resp->parities;
        }
        if (seconds_since(start) >= ctx.args.seconds) stop.store(true);
      }
    });
  }
  for (auto& t : clients) t.join();
  o.timed_s = seconds_since(start);
  o.peak_rss_mb = process_peak_rss_mb();
  const std::size_t n = std::min(next.load(), kStream);
  o.job_cpu_s.push_back((process_cpu_s() - cpu0) /
                        static_cast<double>(std::max<std::size_t>(n, 1)));
  served.resize(n);
  const auto snap = server->metrics().snapshot();
  server->drain();
  server.reset();

  // Direct answers, after the timed phase: ced::run_pipeline on every
  // distinct machine served, with a store so the tables can be re-read for
  // the cover check.
  std::set<int> distinct;
  for (const auto& s : served) distinct.insert(s.machine);
  const std::vector<int> machines(distinct.begin(), distinct.end());
  storage::ArtifactStore direct_store(ctx.dir / "direct");
  storage::StoreArchive direct_archive(direct_store);
  std::map<int, Scheme> direct;
  std::map<int, std::size_t> direct_uncovered;
  std::mutex mu;
  std::atomic<std::size_t> claim{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < ctx.threads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t k = claim.fetch_add(1);
        if (k >= machines.size()) break;
        const int m = machines[k];
        const fsm::Fsm f = fsm::Fsm::from_kiss(kiss::parse(kiss[static_cast<std::size_t>(m)]));
        core::PipelineOptions popts = sweep_options(1, {}, &direct_archive);
        popts.latency = 2;
        const auto rep = ced::run_pipeline(f, RunConfig::wrap(popts));
        const auto tables = direct_archive.load_tables(rep.extraction_key);
        const std::size_t bad = scheme_uncovered(tables, 2, rep.parities);
        std::lock_guard<std::mutex> lock(mu);
        direct[m] = scheme_of(rep);
        direct_uncovered[m] = bad;
      }
    });
  }
  for (auto& t : workers) t.join();

  std::vector<double> rtt;
  std::size_t cached = 0;
  for (const auto& s : served) {
    ++o.attempted;
    rtt.push_back(s.rtt_s);
    o.job_s.push_back(s.rtt_s);
    const Scheme& d = direct[s.machine];
    const bool ok = s.transport_ok && s.code == serve::Code::kOk &&
                    !d.degraded && s.parities == d.parities &&
                    direct_uncovered[s.machine] == 0;
    if (!ok) ++o.failed;
    if (s.cached) ++cached;
    if (!ctx.args.trace) add_quality(o, {d});
  }
  if (o.failed > 0) {
    o.problem(std::to_string(o.failed) + " served answer(s) failed checks");
  }
  o.facts["requests"] = std::to_string(n);
  o.facts["warm_hits"] = std::to_string(cached);
  o.facts["distinct_machines"] = std::to_string(machines.size());
  if (!ctx.args.trace) return;

  // Traced: serve-layer metrics from the loop above, then the first
  // requests of the stream replayed in-process, split into layer calls
  // (the warm path: synth, fault list, scheme load; the cold path: the
  // split sweep against a store, then the scheme write), once untraced and
  // once traced.
  // Serve counters and the request-time histogram of the timed phase only
  // (the warm-pool requests of set-up are subtracted).
  const auto counter = [&](const char* k) {
    const auto get = [k](const obs::MetricsSnapshot& m) {
      const auto it = m.counters.find(k);
      return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    return get(snap) - get(before);
  };
  double server_p50 = 0.0, server_mean = 0.0;
  const auto h = snap.histograms.find("ced_serve_request_seconds");
  const auto h0 = before.histograms.find("ced_serve_request_seconds");
  if (h != snap.histograms.end() && h->second.total > 0) {
    obs::Histogram hist = h->second;
    if (h0 != before.histograms.end()) {
      for (std::size_t b = 0; b < hist.counts.size() &&
                              b < h0->second.counts.size(); ++b) {
        hist.counts[b] -= h0->second.counts[b];
      }
      hist.sum -= h0->second.sum;
      hist.total -= h0->second.total;
    }
    if (hist.total == 0) hist.total = 1;
    server_mean = hist.sum / static_cast<double>(hist.total);
    // Linear interpolation inside the bucket holding the median.
    const double target = 0.5 * static_cast<double>(hist.total);
    double seen = 0.0, lo = 0.0;
    for (std::size_t b = 0; b < hist.counts.size(); ++b) {
      const double hi = b < hist.edges.size() ? hist.edges[b] : lo * 2;
      const double cnt = static_cast<double>(hist.counts[b]);
      if (seen + cnt >= target && cnt > 0) {
        server_p50 = lo + (hi - lo) * (target - seen) / cnt;
        break;
      }
      seen += cnt;
      lo = hi;
    }
  }

  constexpr std::size_t kReplay = 24;
  std::vector<double> run_s[2];
  std::vector<Counts> layer_jobs;
  for (int traced = 0; traced < 2; ++traced) {
    storage::ArtifactStore rstore(ctx.dir / ("replay" + std::to_string(traced)));
    storage::StoreArchive rarchive(rstore);
    SpanLog* log = traced ? &ctx.log : nullptr;
    std::vector<int> order;
    for (int m = 0; m < pool_size; ++m) order.push_back(m);
    for (std::size_t i = 0; i < std::min(kReplay, served.size()); ++i) {
      order.push_back(served[i].machine);
    }
    for (std::size_t j = 0; j < order.size(); ++j) {
      const int m = order[j];
      Counts c;
      c["threads"] = 1;
      const auto t0 = Clock::now();
      const int jid = static_cast<int>(j);
      Scope job(log, "job", jid);
      core::PipelineOptions popts = sweep_options(1, {}, &rarchive);
      popts.latency = 2;
      const fsm::Fsm f =
          fsm::Fsm::from_kiss(kiss::parse(kiss[static_cast<std::size_t>(m)]));
      std::optional<fsm::FsmCircuit> circuit;
      {
        Scope s(log, "fsm.synth", jid, job.id());
        circuit.emplace(fsm::synthesize_fsm(f, popts.encoding, popts.synth));
      }
      std::vector<sim::StuckAtFault> faults;
      {
        Scope s(log, "sim.enumerate", jid, job.id());
        faults = sim::enumerate_stuck_at(circuit->netlist, popts.faults);
      }
      core::ExtractOptions ex = popts.extract;
      ex.latency = 2;
      const std::string key = core::extraction_digest(
          *circuit, faults, ex,
          core::resolve_checkpoint_shards(0, faults.size()));
      const std::string name = storage::scheme_name(key, 2, "lp");
      const auto load = [&] {
        Scope s(log, "storage.load", jid, job.id());
        return storage::load_scheme(rstore, name);
      };
      const Result<storage::SchemeArtifact> hit = load();
      std::vector<std::uint64_t> answer;
      if (hit) {
        answer = hit->parities;
      } else {
        const SplitResult split =
            split_sweep(f, {2}, popts, &rarchive, log, jid, job.id(), c);
        answer = split.schemes.front().parities;
        storage::SchemeArtifact art;
        art.latency = 2;
        art.parities = answer;
        Scope s(log, "storage.write", jid, job.id());
        storage::store_scheme(rstore, name, art);
      }
      job.end();
      if (answer != direct[m].parities) {
        o.problem("replayed answer differs from ced::run_pipeline");
        o.failed = std::max<std::size_t>(o.failed, 1);
      }
      if (j >= static_cast<std::size_t>(pool_size)) {
        run_s[traced].push_back(seconds_since(t0));
        if (log) layer_jobs.push_back(layer_values(ctx.log, jid, job.id(), c));
      }
    }
  }
  const double untraced_total =
      std::accumulate(run_s[0].begin(), run_s[0].end(), 0.0);
  const double traced_total =
      std::accumulate(run_s[1].begin(), run_s[1].end(), 0.0);
  finish_layers(o, layer_jobs,
                untraced_total > 0 ? traced_total / untraced_total - 1.0 : 0.0,
                /*alike_jobs=*/false);
  o.set("peak_rss_mb", o.peak_rss_mb, "MB");
  o.set("serve.rtt_s.p50", median(rtt), "s");
  o.set("serve.server_s.p50", server_p50, "s");
  o.set("serve.overhead_s", mean(rtt) - server_mean, "s");
  const double warm = counter("ced_serve_warm_hits_total");
  const double cold = counter("ced_serve_cold_misses_total");
  o.set("serve.warm_hit_ratio", warm + cold > 0 ? warm / (warm + cold) : 0.0,
        "ratio");
  o.set("serve.dedup_joins", counter("ced_serve_dedup_joins_total"), "count");
  o.set("serve.overload_rejections",
        counter("ced_serve_overload_rejections_total"), "count");
}

// ------------------------------------------------------------ main

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() != "0";
    else if (k == "--workdir") a.workdir = val();
    else if (k == "--spans-out") a.spans_out = val();
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Ctx ctx;
  try {
    ctx.args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  ctx.threads = std::min(4, affinity_cpus());

  const std::map<std::string, void (*)(Ctx&, Outcome&)> workloads = {
      {"protect-s1488", protect_s1488},
      {"resolve-warm", resolve_warm},
      {"prove-s1488", prove_s1488},
      {"serve-mix", serve_mix},
  };
  const auto wl = workloads.find(ctx.args.workload);
  if (wl == workloads.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 ctx.args.workload.c_str());
    return 2;
  }

  // Private scratch directory, removed at exit.
  fs::create_directories(ctx.args.workdir);
  std::string tmpl = (fs::path(ctx.args.workdir) / "runXXXXXX").string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::perror("perfbench: mkdtemp");
    return 2;
  }
  ctx.dir = tmpl;

  Outcome o;
  int rc = 0;
  try {
    wl->second(ctx, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 3;
  }
  std::error_code ec;
  fs::remove_all(ctx.dir, ec);
  if (rc != 0) return rc;
  if (ctx.args.trace) ctx.log.write(ctx.args.spans_out);

  if (!ctx.args.trace) {
    o.set("setup_s", median(o.setup_s), "s");
    o.set("job_cpu_s.p50", median(o.job_cpu_s), "s");
    o.set("success_frac",
          o.attempted ? 1.0 - static_cast<double>(o.failed) /
                                  static_cast<double>(o.attempted)
                      : 0.0,
          "ratio");
    o.set("parity_trees", mean(o.q_values), "count");
    o.set("ced_area_pct", mean(o.area_pct), "%");
  }
  const double failed_frac =
      o.attempted ? static_cast<double>(o.failed) / static_cast<double>(o.attempted)
                  : 1.0;
  if (o.failed > 0) o.correct = false;

  // Human-readable lines, then the JSON record as the last line.
  std::printf("workload %s seed %llu trace %d threads %d\n",
              ctx.args.workload.c_str(),
              static_cast<unsigned long long>(ctx.args.seed),
              ctx.args.trace ? 1 : 0, ctx.threads);
  for (const auto& p : o.problems) std::printf("  CHECK FAILED: %s\n", p.c_str());
  std::string rec = "{\"correct\":" + std::string(o.correct ? "true" : "false");
  rec += ",\"attempted\":" + std::to_string(o.attempted);
  rec += ",\"failed\":" + std::to_string(o.failed);
  rec += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : o.metrics) {
    rec += (first ? "" : ",") + json_str(name) + ":{\"value\":" +
           json_num(m.value) + ",\"unit\":" + json_str(m.unit) + "}";
    first = false;
  }
  rec += "},\"extra\":{\"failed_frac\":" + json_num(failed_frac);
  rec += ",\"jobs\":" + std::to_string(o.job_s.size());
  rec += ",\"job_s.min\":" + json_num(o.job_s.empty() ? 0.0 : *std::min_element(o.job_s.begin(), o.job_s.end()));
  if (o.job_s.size() >= 100) {
    rec += ",\"job_s.p90\":" + json_num(quantile(o.job_s, 0.9));
  }
  rec += ",\"timed_s\":" + json_num(o.timed_s);
  rec += ",\"job_s.p50\":" + json_num(median(o.job_s));
  rec += ",\"jobs_per_s\":" +
         json_num(o.timed_s > 0 ? static_cast<double>(o.job_s.size()) / o.timed_s
                                : 0.0);
  if (!ctx.args.trace) rec += ",\"peak_rss_mb\":" + json_num(o.peak_rss_mb);

  rec += "},\"facts\":{";
  first = true;
  for (const auto& [k, v] : o.facts) {
    rec += (first ? "" : ",") + json_str(k) + ":" + json_str(v);
    first = false;
  }
  rec += "},\"problems\":[";
  for (std::size_t i = 0; i < o.problems.size(); ++i) {
    rec += (i ? "," : "") + json_str(o.problems[i]);
  }
  rec += "],\"host\":" + host_json(ctx.threads) + "}";
  std::printf("%s\n", rec.c_str());
  return 0;
}
