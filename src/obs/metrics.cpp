#include "obs/metrics.hpp"

#include <algorithm>

namespace ced::obs {

void Histogram::observe(double value, std::uint64_t count) {
  if (count == 0) return;
  if (counts.size() != edges.size() + 1) counts.assign(edges.size() + 1, 0);
  // Edges are inclusive upper bounds (Prometheus `le` semantics).
  std::size_t b = 0;
  while (b < edges.size() && value > edges[b]) ++b;
  counts[b] += count;
  sum += value * static_cast<double>(count);
  total += count;
}

void Histogram::merge(const Histogram& other) {
  if (edges.empty() && counts.empty()) {
    *this = other;
    return;
  }
  if (other.edges == edges && other.counts.size() == counts.size()) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
    sum += other.sum;
    total += other.total;
    return;
  }
  // Mismatched shapes (a redefinition raced an observation): keep the
  // receiver's buckets and fold the other side's mass into them via its
  // sum/total only — counts cannot be re-binned without the raw samples.
  sum += other.sum;
  total += other.total;
  if (!counts.empty()) counts.back() += other.total;
}

const std::vector<double>& default_histogram_edges() {
  static const std::vector<double> kEdges = {
      0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,  0.2,   0.5,
      1.0,   2.0,   5.0,   10.0, 20.0, 50.0, 100.0, 1000.0};
  return kEdges;
}

void MetricsRegistry::define_histogram(const std::string& name,
                                       std::vector<double> edges) {
  std::sort(edges.begin(), edges.end());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = data_.histograms.find(name);
  if (it != data_.histograms.end()) return;  // first definition wins
  data_.histograms.emplace(name, Histogram(std::move(edges)));
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.counters[std::string(name)] += delta;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.gauges[std::string(name)] = value;
}

void MetricsRegistry::observe(std::string_view name, double value,
                              std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = data_.histograms.find(std::string(name));
  if (it == data_.histograms.end()) {
    it = data_.histograms
             .emplace(std::string(name), Histogram(default_histogram_edges()))
             .first;
  }
  it->second.observe(value, count);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_;
}

void MetricsShard::add(std::string_view name, std::uint64_t delta) {
  if (!reg_) return;
  for (auto& [n, v] : counts_) {
    if (n == name) {
      v += delta;
      return;
    }
  }
  counts_.emplace_back(std::string(name), delta);
}

void MetricsShard::observe(std::string_view name, double value,
                           std::uint64_t count) {
  if (!reg_ || count == 0) return;
  for (auto& [n, v] : samples_) {
    if (n == name) {
      v.emplace_back(value, count);
      return;
    }
  }
  samples_.emplace_back(
      std::string(name),
      std::vector<std::pair<double, std::uint64_t>>{{value, count}});
}

void MetricsShard::flush() {
  if (!reg_) return;
  for (const auto& [n, v] : counts_) {
    if (v != 0) reg_->add(n, v);
  }
  for (const auto& [n, vs] : samples_) {
    for (const auto& [v, c] : vs) reg_->observe(n, v, c);
  }
  counts_.clear();
  samples_.clear();
}

}  // namespace ced::obs
