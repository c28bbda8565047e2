// Metrics registry: named counters and fixed-bucket histograms.
//
// The registry keeps only the facts that have no typed owner: the
// stores' rtt_ms histograms, the campaign and serving latency
// histograms, s2s.exec.tasks and s2s.simnet.routes_computed. Everything
// else a run reports is exported by the object that counts it (see
// DESIGN.md section 8).
//
// Each metric owns its cells: a counter is one relaxed atomic, a
// histogram one relaxed atomic per bucket (BucketCells), and a handle
// points at them. No registry metric is written from several threads at
// a high rate (a store records rtt_ms on a load's one commit thread,
// serving latency on its reactor), so shared cells cost a write one
// uncontended fetch_add. Snapshots read every cell atomically under the
// registration mutex: successive snapshots are monotone per cell, but
// one snapshot is not a point-in-time cut across cells.
//
// Naming scheme: "s2s.<subsystem>.<name>" (see DESIGN.md section 8).
// Handles are cheap value types; resolve them once (constructor, start of
// run) and increment forever. A default-constructed handle is a no-op,
// as is any handle while its registry is disabled — that switch is what
// the bench overhead comparison toggles. A registry must outlive every
// handle it issued; the process-wide global() registry never dies.
//
// Instantaneous values (cache bytes, lanes, uptime) are not registry
// metrics: their owners set them in MetricsSnapshot::gauges or a
// RunReport's gauges when they export.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace s2s::obs {

/// Merged view of one histogram: `counts[i]` is the number of samples
/// <= bounds[i] (and > bounds[i-1]); the final bucket is the overflow.
struct HistogramSnapshot {
  std::vector<double> bounds;          ///< ascending upper bounds
  std::vector<std::uint64_t> counts;   ///< size = bounds.size() + 1
  std::uint64_t total = 0;

  /// Quantile estimate by linear interpolation inside the hit bucket
  /// (the overflow bucket reports the last finite bound). NaN-free:
  /// returns 0 for an empty histogram.
  double quantile(double q) const;
  /// Mean estimate from bucket midpoints (sum is not tracked per sample
  /// to keep the write path to a single fetch_add).
  double approx_mean() const;
  /// Samples beyond the last finite bound. A nonzero overflow means
  /// quantile() is clamped there — RunReport surfaces this so a capped
  /// p99 is never mistaken for a real one.
  std::uint64_t overflow() const { return counts.empty() ? 0 : counts.back(); }
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  /// Never filled by the registry: owners add their instantaneous values
  /// here before the snapshot is rendered.
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// One relaxed atomic per histogram bucket: the cells behind a registry
/// Histogram (or Counter, as one bucket) and behind each slot of a
/// WindowedHistogram, so both latency views scan and merge alike.
class BucketCells {
 public:
  explicit BucketCells(std::size_t buckets) : cells_(buckets) {}

  /// The bucket of `v` for ascending `bounds`: the first bound >= v, or
  /// bounds.size() (the overflow bucket) past the last.
  static std::size_t bucket_of(const std::vector<double>& bounds, double v) {
    std::size_t i = 0;
    while (i < bounds.size() && v > bounds[i]) ++i;
    return i;
  }

  void add(std::size_t bucket, std::uint64_t n = 1) {
    cells_[bucket].fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t load(std::size_t bucket) const {
    return cells_[bucket].load(std::memory_order_relaxed);
  }
  /// Adds each cell into counts[i]; `counts` has one entry per cell.
  void merge_into(std::vector<std::uint64_t>& counts) const {
    for (std::size_t i = 0; i < cells_.size(); ++i) counts[i] += load(i);
  }
  void clear() {
    for (auto& c : cells_) c.store(0, std::memory_order_relaxed);
  }
  std::size_t size() const { return cells_.size(); }

 private:
  std::vector<std::atomic<std::uint64_t>> cells_;  ///< zeroed (C++20)
};

class MetricsRegistry;

/// Monotone counter handle. Copyable; default-constructed = no-op.
class Counter {
 public:
  Counter() = default;
  inline void inc(std::uint64_t n = 1) const;

 private:
  friend class MetricsRegistry;
  Counter(const MetricsRegistry* reg, BucketCells* cell)
      : reg_(reg), cell_(cell) {}
  const MetricsRegistry* reg_ = nullptr;
  BucketCells* cell_ = nullptr;  ///< one cell, owned by the registry
};

/// Fixed-bucket histogram handle. record() is one bounds scan plus one
/// relaxed fetch_add on the metric's bucket.
class Histogram {
 public:
  Histogram() = default;
  inline void record(double v) const;

 private:
  friend class MetricsRegistry;
  Histogram(const MetricsRegistry* reg, BucketCells* cells,
            const std::vector<double>* bounds)
      : reg_(reg), cells_(cells), bounds_(bounds) {}
  const MetricsRegistry* reg_ = nullptr;
  BucketCells* cells_ = nullptr;                 ///< owned by the registry
  const std::vector<double>* bounds_ = nullptr;  ///< owned by the registry
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve-or-create by name; a name keeps its first kind forever
  /// (a kind mismatch returns a no-op handle and warns).
  Counter counter(const std::string& name);
  Histogram histogram(const std::string& name, std::vector<double> bounds);

  /// Canonical bucket edges for microsecond latencies (1us..10s, ~x3).
  static const std::vector<double>& latency_us_bounds();
  /// Canonical bucket edges for RTT milliseconds (1ms..2s, ~x2).
  static const std::vector<double>& rtt_ms_bounds();

  /// Disabled registries turn every handle into a checked no-op; this is
  /// the "no-op registry" arm of the overhead benchmark.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Reads every metric's cells. Safe concurrently with writes.
  MetricsSnapshot snapshot() const;

  /// Zeroes every cell; names and handles stay valid.
  void reset();

  /// Process-wide registry used by default across the pipeline.
  static MetricsRegistry& global();

 private:
  enum class Kind { kCounter, kHistogram };
  struct MetricDef {
    Kind kind;
    std::vector<double> bounds;  ///< empty for a counter
    BucketCells cells;           ///< bounds.size() + 1
  };

  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;                ///< guards defs_
  std::map<std::string, MetricDef> defs_;  ///< node-stable addresses
};

inline void Counter::inc(std::uint64_t n) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  cell_->add(0, n);
}

inline void Histogram::record(double v) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  cells_->add(BucketCells::bucket_of(*bounds_, v));
}

}  // namespace s2s::obs
