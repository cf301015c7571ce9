#pragma once

// Metrics half of the observability layer (ced_obs): counters, gauges and
// fixed-bucket histograms behind one registry.
//
// Design rules, in priority order:
//   1. Nothing here may feed back into a decision: instruments are
//      write-only from the pipeline's point of view, so q and the selected
//      parities are byte-identical with metrics on or off.
//   2. Zero overhead when disabled: every hot path records through a
//      MetricsShard whose null-registry form compiles down to a pointer
//      test, and the hot loops themselves accumulate plain locals that are
//      folded once per scope (the same shard-then-merge idiom as
//      common/parallel.hpp).
//   3. Dependency-free: ced_obs uses the C++ standard library only, so
//      every other layer (core, lp, storage, bench, tools) can link it.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ced::obs {

/// Cumulative fixed-bucket histogram (Prometheus shape): `edges` are the
/// ascending inclusive upper bounds of the finite buckets and an implicit
/// +Inf bucket catches the rest, so `counts` has edges.size() + 1 entries.
struct Histogram {
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;
  double sum = 0.0;
  std::uint64_t total = 0;

  Histogram() = default;
  explicit Histogram(std::vector<double> bucket_edges)
      : edges(std::move(bucket_edges)), counts(edges.size() + 1, 0) {}

  /// Records `count` observations of `value` (count 0 records nothing).
  void observe(double value, std::uint64_t count = 1);
  void merge(const Histogram& other);
};

/// Edges used when a value is observed under a name nobody defined:
/// a 1-2-5 decade ladder wide enough for both durations (seconds) and
/// small counts.
const std::vector<double>& default_histogram_edges();

/// Point-in-time copy of every instrument, keyed by name. Ordered maps so
/// exporters emit in a stable order (golden tests diff the output).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
};

/// Thread-safe sink for all metrics of one run. Cheap enough to mutate
/// directly for cold-path events (store reads, cascade fallbacks); hot
/// loops go through a MetricsShard instead so they take the lock once per
/// scope, not once per event.
class MetricsRegistry {
 public:
  /// Pre-declares `name` as a histogram with the given bucket edges.
  /// Idempotent; observations before the definition use default edges.
  void define_histogram(const std::string& name, std::vector<double> edges);

  void add(std::string_view name, std::uint64_t delta = 1);
  void set_gauge(std::string_view name, double value);
  void observe(std::string_view name, double value, std::uint64_t count = 1);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  MetricsSnapshot data_;
};

/// Per-thread (or per-scope) accumulation buffer: add()/observe() touch
/// only private vectors, and everything folds into the registry in one
/// locked pass on flush() or destruction. A default-constructed or
/// null-registry shard makes every call a no-op, which is how instrumented
/// code keeps zero overhead when observability is off.
class MetricsShard {
 public:
  MetricsShard() = default;
  explicit MetricsShard(MetricsRegistry* registry) : reg_(registry) {}
  MetricsShard(const MetricsShard&) = delete;
  MetricsShard& operator=(const MetricsShard&) = delete;
  ~MetricsShard() { flush(); }

  bool enabled() const { return reg_ != nullptr; }

  void add(std::string_view name, std::uint64_t delta = 1);
  /// Buffers `count` observations of `value` as one entry, so a caller
  /// holding a tally folds it in one call per distinct value.
  void observe(std::string_view name, double value, std::uint64_t count = 1);

  /// Folds the buffered values into the registry and clears the buffers.
  void flush();

 private:
  MetricsRegistry* reg_ = nullptr;
  // Linear vectors, not maps: a shard sees a handful of distinct names.
  std::vector<std::pair<std::string, std::uint64_t>> counts_;
  // Samples as (value, count) pairs.
  std::vector<std::pair<std::string,
                        std::vector<std::pair<double, std::uint64_t>>>>
      samples_;
};

}  // namespace ced::obs
