// Streaming congestion state for live archives (DESIGN.md section 16).
//
// The batch pipeline answers a congestion verdict by re-deriving
// everything from the full ping grid: interpolate, sort for percentiles,
// run the spectral detector over the whole history. On a live shard that
// recompute would repeat per appended epoch. IncrementalState instead
// folds the ping record stream — in archive order — into small mergeable
// per-pair sketches:
//
//   * Welford moments            (mean/variance, O(1) per record)
//   * BinnedEcdf                 (p95-p5 variation, O(1) per record)
//   * GoertzelWindow             (sliding diurnal power, O(window) per
//                                 verdict instead of O(history))
//
// The fold is a pure sequential function of the record stream: folding a
// sealed prefix and then the delta produces bit-identical state to
// folding everything at once (no merges, no thread scheduling on the
// ingest path). That is the incremental-vs-batch equivalence contract
// the live serving path is tested against — verdicts after N delta
// pickups are byte-identical to a single batch refold at the same
// watermark, at any thread width.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "core/congestion_detect.h"
#include "exec/pool.h"
#include "net/timebase.h"
#include "probe/records.h"
#include "stats/binned_ecdf.h"
#include "stats/goertzel.h"
#include "stats/welford.h"

namespace s2s::live {

struct IncrementalConfig {
  /// Ping sampling grid (must match the archive's campaign).
  double start_day = 0.0;
  std::int64_t interval_s = net::kFifteenMinutes;
  /// Detection thresholds; min_samples is derived per evaluation from
  /// `min_fraction` of the watermark's epoch count, like the batch path.
  core::CongestionDetectConfig detect;
  double min_fraction = 0.6;
  /// Sliding diurnal window in epochs (default: one week of 15-minute
  /// samples, the paper's analysis horizon).
  std::size_t window_epochs = 672;
  /// Quantile sketch grid; covers the ping store's 0.1 ms-quantized
  /// encodable range at 0.8 ms resolution.
  double ecdf_lo = 0.0;
  double ecdf_hi = 6553.6;
  std::size_t ecdf_bins = 8192;
};

class IncrementalState {
 public:
  explicit IncrementalState(const IncrementalConfig& config = {});

  // Deep-copyable: delta pickup clones the published state, folds the
  // new tail into the clone, and swaps it in RCU-style.
  IncrementalState(const IncrementalState&) = default;
  IncrementalState& operator=(const IncrementalState&) = default;

  /// One ping as prepare() leaves it for commit().
  struct Prepared {
    std::uint64_t key = 0;
    std::int64_t epoch = 0;
    double value = 0.0;   ///< RTT on the ping store's 0.1 ms grid
    bool foldable = false;  ///< successful, finite, on or after epoch 0
  };

  /// Folds one ping record. Per pair, epochs must be strictly
  /// increasing: a record at or before the pair's last folded epoch is
  /// dropped (the streaming form of the store's first-write-wins rule).
  /// Interior gaps are linearly interpolated into the diurnal window at
  /// fold time — causal, because both gap endpoints are known once the
  /// right one arrives. Exactly commit(prepare(record)).
  void add(const probe::PingRecord& record) { commit(prepare(record)); }

  /// The order-independent half of add() (thread-safe).
  Prepared prepare(const probe::PingRecord& record) const;
  /// The fold itself; commits must follow record order.
  void commit(const Prepared& prepared);

  /// Advances the sealed-epoch horizon (monotone; lower values are
  /// ignored). Verdict denominators — missing samples, the minimum
  /// sample floor, trailing-gap extension — all derive from this, so
  /// an epoch with no records still changes verdicts.
  void advance_watermark(std::int64_t epoch);

  std::int64_t watermark_epoch() const noexcept { return watermark_epoch_; }
  /// Epochs covered by the watermark (watermark_epoch + 1, 0 before any).
  std::size_t epochs() const noexcept {
    return watermark_epoch_ < 0
               ? 0
               : static_cast<std::size_t>(watermark_epoch_) + 1;
  }
  std::size_t pairs_tracked() const noexcept { return pairs_.size(); }
  std::uint64_t records_folded() const noexcept { return records_folded_; }
  std::uint64_t records_dropped() const noexcept { return records_dropped_; }
  double samples_per_day() const {
    return 86400.0 / static_cast<double>(config_.interval_s);
  }
  const IncrementalConfig& config() const noexcept { return config_; }

  /// Mirrors core::SeriesVerdict for the serving path.
  struct Verdict {
    std::uint64_t samples = 0;
    std::uint64_t missing_samples = 0;
    bool insufficient = false;
    double variation_ms = 0.0;
    double diurnal_ratio = 0.0;
    bool high_variation = false;
    bool strong_diurnal = false;
    bool consistent_congestion() const {
      return high_variation && strong_diurnal;
    }
  };

  /// Evaluates one pair at the current watermark; false when the pair
  /// has never been seen.
  bool verdict(std::uint32_t src, std::uint32_t dst, std::uint8_t family,
               Verdict& out) const;

  /// Visits every tracked pair in ascending key order with its verdict.
  void for_each(const std::function<void(std::uint32_t src, std::uint32_t dst,
                                         std::uint8_t family,
                                         const Verdict&)>& fn) const;

  struct Summary {
    std::size_t pairs = 0;
    std::size_t assessed = 0;  ///< not insufficient
    std::size_t high_variation = 0;
    std::size_t consistent = 0;
  };

  /// Aggregate verdict counts. With a pool, pairs are evaluated in the
  /// fixed 64 analysis shards and merged in shard order — byte-identical
  /// totals at any thread count (the same contract as the batch survey).
  Summary summarize(exec::ThreadPool* pool = nullptr) const;

 private:
  struct PairState {
    stats::Welford welford;
    stats::BinnedEcdf ecdf;
    stats::GoertzelWindow window;
    std::int64_t last_epoch = -1;
    double last_value = 0.0;
    std::uint64_t valid = 0;

    PairState(const IncrementalConfig& c)
        : ecdf(c.ecdf_lo, c.ecdf_hi, c.ecdf_bins),
          window(c.window_epochs) {}
  };

  static std::uint64_t key(std::uint32_t src, std::uint32_t dst,
                           std::uint8_t family) {
    return (std::uint64_t{src} << 24) | (std::uint64_t{dst} << 4) |
           (family == 6 ? 1u : 0u);
  }

  Verdict eval(const PairState& ps) const;

  IncrementalConfig config_;
  std::int64_t watermark_epoch_ = -1;
  std::uint64_t records_folded_ = 0;
  std::uint64_t records_dropped_ = 0;
  /// Ordered by key so every iteration order is deterministic.
  std::map<std::uint64_t, PairState> pairs_;
};

}  // namespace s2s::live
