// Windowed latency histograms: p50/p99 over the last N seconds, not
// over the process lifetime.
//
// A long-running daemon's lifetime histogram converges to a blur: an
// hour of calm buries a minute of p99 pain. A WindowedHistogram keeps a
// ring of fixed-bucket histograms, one per coarse tick (window_seconds /
// slots), and rotates lazily on the write path: a recording thread that
// observes a stale slot zeroes it (under a mutex taken only on
// rotation) and claims it for the current tick. snapshot() merges the
// slots that fall inside the window, yielding the same
// HistogramSnapshot shape the registry produces — quantiles, overflow
// accounting and JSON emission all come along for free.
//
// Each slot is a BucketCells, the cells behind a registry Histogram, so
// both latency views bucket a sample with the same scan, bump it with
// the same relaxed fetch_add, and merge with the same loop. The merged
// snapshot is a pure function of the multiset of (tick, value) records —
// NOT of the thread that recorded them — which is what makes the
// 1-vs-8-thread byte-identity test meaningful. Rotation zeroing is
// serialized by a mutex; with a real clock a racing writer straddling a
// tick boundary can misattribute a sample to the adjacent tick
// (harmless for a trend dashboard), with an injected fake clock stepped
// between phases the behavior is exactly deterministic.
//
// The clock is injectable (monotonic milliseconds) so tests can drive
// rotation deterministically; the default reads steady_clock.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace s2s::obs {

/// One merged view over the live slots of a WindowedHistogram.
struct WindowedSnapshot {
  double window_s = 0.0;  ///< nominal window the merge covers
  HistogramSnapshot hist; ///< samples recorded inside the window
};

/// SLO threshold accounting for one request type: `good` samples met the
/// threshold, `total` were measured. good/total is the success ratio;
/// 1 - good/total over a window is the burn rate numerator.
struct SloStat {
  double threshold_us = 0.0;
  std::uint64_t good = 0;
  std::uint64_t total = 0;

  double good_ratio() const {
    return total == 0 ? 1.0
                      : static_cast<double>(good) / static_cast<double>(total);
  }
};

class WindowedHistogram {
 public:
  /// Monotonic clock in milliseconds. The default reads steady_clock;
  /// tests inject a fake to drive rotation deterministically.
  using ClockFn = std::function<std::int64_t()>;

  /// `bounds` as in MetricsRegistry::histogram (ascending upper edges;
  /// one extra overflow bucket is added). The window is divided into
  /// `slots` ticks; finer slots smooth the rotation cliff at the cost
  /// of slots * (bounds + 1) atomics.
  WindowedHistogram(std::vector<double> bounds, int window_seconds = 60,
                    int slots = 6, ClockFn clock = {});
  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  /// Lock-free except on the first write of a new tick.
  void record(double v);

  /// Merge of every slot inside the window ending now.
  WindowedSnapshot snapshot() const;

  double window_seconds() const {
    return static_cast<double>(slot_ms_) * static_cast<double>(slot_count_) /
           1000.0;
  }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct Slot {
    std::atomic<std::int64_t> tick{-1};  ///< -1 = never written
    BucketCells cells;
    explicit Slot(std::size_t buckets) : cells(buckets) {}
  };

  std::int64_t now_tick() const { return clock_() / slot_ms_; }

  std::vector<double> bounds_;
  std::int64_t slot_ms_ = 10000;
  int slot_count_ = 6;
  ClockFn clock_;
  mutable std::mutex rotate_mutex_;  ///< serializes slot zeroing only
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace s2s::obs
