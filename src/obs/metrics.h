// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Instrumentation has to be safe to leave in the record-ingest hot loops
// (hundreds of millions of adds per campaign), so the write path is
// lock-free: each thread owns a shard of plain uint64 slots and handles
// update it with relaxed atomics — uncontended, cacheline-local, a few
// nanoseconds. Snapshots merge every shard under the registration mutex;
// they are monotone-consistent (each slot is read atomically) but not a
// point-in-time cut across slots, which is the standard trade for a
// wait-free write path.
//
// Naming scheme: "s2s.<subsystem>.<name>" (see DESIGN.md section 8).
// Handles are cheap value types; resolve them once (constructor, start of
// run) and increment forever. A default-constructed handle is a no-op,
// as is any handle while its registry is disabled — that switch is what
// the bench overhead comparison toggles.
//
// Lifetime: a registry must outlive every thread that touches its
// handles; the process-wide global() registry trivially satisfies this.
// A thread's shard lives as long as the thread: on thread exit its
// slots fold into the registry's retired totals and the shard is kept
// for the next thread to attach, so short-lived threads (a pool per
// load) cost no memory once they are gone.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
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
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  std::size_t distinct_metrics() const {
    return counters.size() + gauges.size() + histograms.size();
  }
};

class MetricsRegistry;

/// Monotone counter handle. Copyable; default-constructed = no-op.
class Counter {
 public:
  Counter() = default;
  inline void inc(std::uint64_t n = 1) const;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, std::uint32_t slot)
      : reg_(reg), slot_(slot) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Last-write-wins instantaneous value (records/sec, fleet sizes, ...).
/// Gauges are registry-level (sets are rare; no shard needed).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Fixed-bucket histogram handle. record() is one bounds scan plus one
/// relaxed fetch_add on the calling thread's shard.
class Histogram {
 public:
  Histogram() = default;
  inline void record(double v) const;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* reg, std::uint32_t base,
            const std::vector<double>* bounds)
      : reg_(reg), base_(base), bounds_(bounds) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t base_ = 0;
  const std::vector<double>* bounds_ = nullptr;  ///< owned by the registry
};

class MetricsRegistry {
 public:
  /// uint64 slots per thread shard; counters take one, a histogram takes
  /// bounds+1. Registration past the cap yields no-op handles (and a
  /// warning through obs::Log) rather than UB.
  static constexpr std::size_t kMaxSlots = 4096;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve-or-create by name; a name keeps its first kind forever
  /// (a kind mismatch returns a no-op handle and warns).
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
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

  /// Merge every shard into one snapshot. Safe concurrently with writes.
  MetricsSnapshot snapshot() const;

  /// Zeroes every slot and gauge; names and handles stay valid.
  void reset();

  /// Shards allocated: one per live thread that has touched a handle,
  /// plus at most one spare kept from an exited thread.
  std::size_t shard_count() const;

  /// Process-wide registry used by default across the pipeline.
  static MetricsRegistry& global();

  struct Shard {
    std::vector<std::atomic<std::uint64_t>> slots;
    Shard() : slots(kMaxSlots) {
      for (auto& s : slots) s.store(0, std::memory_order_relaxed);
    }
  };

  /// The calling thread's shard (created and registered on first use).
  inline Shard* local_shard();

 private:
  /// No member initializers: the thread_local below is zero-initialized,
  /// which keeps it constant-initialized.
  struct ThreadCache {
    std::uint64_t serial;
    Shard* shard;
  };

  enum class Kind { kCounter, kGauge, kHistogram };
  struct MetricDef {
    Kind kind;
    std::uint32_t base = 0;   ///< first slot (counter/histogram)
    std::uint32_t width = 1;  ///< slots used
    std::vector<double> bounds;
  };

  /// The thread-exit hook that retires a thread's shards.
  struct ThreadShards;

  Shard* attach_thread(ThreadCache& cache);
  /// Folds an exiting thread's shard into retired_ and keeps it spare.
  void retire(Shard* shard);

  /// The calling thread's most recent (registry, shard); constant-
  /// initialized, so the hot path reads it without a TLS guard.
  static inline thread_local ThreadCache tls_cache_{};

  const std::uint64_t serial_;
  std::atomic<bool> enabled_{true};
  /// Guards defs_, gauges_, shards_, spare_ and retired_.
  mutable std::mutex mutex_;
  std::map<std::string, MetricDef> defs_;       // node-stable addresses
  std::map<std::string, std::atomic<double>> gauges_;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< one per live thread
  std::unique_ptr<Shard> spare_;  ///< an exited thread's, zeroed
  std::vector<std::uint64_t> retired_;  ///< exited threads' slot sums
  std::uint32_t next_slot_ = 0;
};

inline void Counter::inc(std::uint64_t n) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  reg_->local_shard()->slots[slot_].fetch_add(n, std::memory_order_relaxed);
}

inline void Histogram::record(double v) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  const auto& bounds = *bounds_;
  std::uint32_t i = 0;
  while (i < bounds.size() && v > bounds[i]) ++i;
  reg_->local_shard()->slots[base_ + i].fetch_add(
      1, std::memory_order_relaxed);
}

inline MetricsRegistry::Shard* MetricsRegistry::local_shard() {
  if (tls_cache_.serial == serial_) return tls_cache_.shard;
  return attach_thread(tls_cache_);
}

}  // namespace s2s::obs
