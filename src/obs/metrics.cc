#include "obs/metrics.h"

#include <algorithm>

#include "obs/log.h"

namespace s2s::obs {

double HistogramSnapshot::quantile(double q) const {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += counts[i];
    if (static_cast<double>(seen) < target) continue;
    // Interpolate inside bucket i: [lo, hi].
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : bounds.back();
    if (hi <= lo) return hi;
    const double frac =
        counts[i] == 0
            ? 0.0
            : (target - before) / static_cast<double>(counts[i]);
    return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

double HistogramSnapshot::approx_mean() const {
  if (total == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : bounds.back();
    sum += static_cast<double>(counts[i]) * 0.5 * (lo + hi);
  }
  return sum / static_cast<double>(total);
}

Counter MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = defs_.find(name);
  if (it == defs_.end()) {
    it = defs_.emplace(name, MetricDef{Kind::kCounter, {}, BucketCells(1)})
             .first;
  } else if (it->second.kind != Kind::kCounter) {
    logf(LogLevel::kWarn, "metric '%s' re-registered with a new kind",
         name.c_str());
    return {};
  }
  return Counter(this, &it->second.cells);
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<double> bounds) {
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = defs_.find(name);
  if (it == defs_.end()) {
    if (bounds.empty()) {
      logf(LogLevel::kWarn, "histogram '%s' has no bounds; handle is a no-op",
           name.c_str());
      return {};
    }
    const std::size_t buckets = bounds.size() + 1;
    it = defs_.emplace(name, MetricDef{Kind::kHistogram, std::move(bounds),
                                       BucketCells(buckets)})
             .first;
  } else if (it->second.kind != Kind::kHistogram) {
    logf(LogLevel::kWarn, "metric '%s' re-registered with a new kind",
         name.c_str());
    return {};
  }
  return Histogram(this, &it->second.cells, &it->second.bounds);
}

const std::vector<double>& MetricsRegistry::latency_us_bounds() {
  static const std::vector<double> bounds = {
      1,    3,     10,    30,     100,    300,     1000,   3000,
      1e4,  3e4,   1e5,   3e5,    1e6,    3e6,     1e7};
  return bounds;
}

const std::vector<double>& MetricsRegistry::rtt_ms_bounds() {
  static const std::vector<double> bounds = {1,   2,   5,    10,   20,  40,
                                             80,  160, 320,  640,  1280, 2000};
  return bounds;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, def] : defs_) {
    if (def.kind == Kind::kCounter) {
      snap.counters.emplace(name, def.cells.load(0));
      continue;
    }
    HistogramSnapshot h;
    h.bounds = def.bounds;
    h.counts.assign(def.cells.size(), 0);
    def.cells.merge_into(h.counts);
    for (const auto c : h.counts) h.total += c;
    snap.histograms.emplace(name, std::move(h));
  }
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, def] : defs_) def.cells.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dies
  return *registry;
}

}  // namespace s2s::obs
