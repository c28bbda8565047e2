// Consistent-congestion detection (paper Section 5.1).
//
// A server pair is flagged when (a) its RTT variation (95th minus 5th
// percentile) exceeds 10 ms and (b) the fraction of signal power at the
// 1/day frequency is at least 0.3 (the paper's empirically chosen
// threshold, footnote 2).
#pragma once

#include <span>
#include <vector>

#include "core/ping_series.h"
#include "exec/pool.h"
#include "stats/fft.h"

namespace s2s::core {

struct CongestionDetectConfig {
  double variation_threshold_ms = 10.0;
  double diurnal_ratio_threshold = stats::kDiurnalRatioThreshold;  // 0.3
  /// Minimum valid samples per series (paper: >= 600 of 672).
  std::size_t min_samples = 600;
};

struct SeriesVerdict {
  std::size_t samples = 0;          ///< samples offered
  std::size_t invalid_samples = 0;  ///< non-finite inputs, ignored
  /// Raw-grid slots that were missing and gap-filled before assessment.
  /// assess_series() sees only the interpolated series, so the survey
  /// fills this in from the raw store — the spectral estimate's verdict
  /// always says how much of its input was manufactured.
  std::size_t missing_samples = 0;
  /// Too few usable samples to judge; all flags stay false. An explicit
  /// "insufficient data" verdict, never a NaN statistic.
  bool insufficient = false;
  double variation_ms = 0.0;   ///< p95 - p5
  double diurnal_ratio = 0.0;  ///< PSD fraction at 1/day
  bool high_variation = false;
  bool strong_diurnal = false;

  bool consistent_congestion() const {
    return high_variation && strong_diurnal;
  }
};

/// Assesses one (gap-free) RTT series in ms. Non-finite samples are
/// filtered out (and counted) instead of poisoning the percentiles and
/// the spectral estimate. The percentiles are type-7 quantiles found by
/// selection, bit-identical to a sort.
SeriesVerdict assess_series(std::span<const double> rtt_ms,
                            double samples_per_day,
                            const CongestionDetectConfig& config = {});

/// Days of trailing pings the served verdict judges: the paper's
/// one-week analysis horizon.
inline constexpr double kVerdictWindowDays = 7.0;

/// The served congestion verdict (DESIGN.md section 16), one function
/// for batch archives and live shards: assess_series over the trailing
/// kVerdictWindowDays of the series' grid (all of it when shorter). The
/// window's slots are gap-filled on their own, so nothing before the
/// window leaks in. `samples` is the window length and
/// `missing_samples` its empty slots; the verdict is insufficient when
/// fewer than `min_fraction` of the window was observed (the flags are
/// still computed then, as long as one slot was). `config.min_samples`
/// is not read.
SeriesVerdict window_verdict(const PingSeriesStore::Series& series,
                             double samples_per_day,
                             const CongestionDetectConfig& config,
                             double min_fraction);

/// A flagged pair from the survey.
struct FlaggedPair {
  topology::ServerId src;
  topology::ServerId dst;
  net::Family family;
  SeriesVerdict verdict;
};

/// Section 5.1 aggregates over a full ping campaign.
struct CongestionSurvey {
  struct PerFamily {
    std::size_t pairs_total = 0;       ///< series in the store
    std::size_t pairs_assessed = 0;    ///< enough samples
    std::size_t high_variation = 0;    ///< variation > 10 ms
    std::size_t consistent = 0;        ///< variation + strong diurnal
  };
  PerFamily v4, v6;
  std::vector<FlaggedPair> flagged;  ///< the pairs with consistent congestion
  /// Store-level counters plus the survey's own accounting: pairs skipped
  /// for lack of samples (insufficient_series, with their missing epochs
  /// in insufficient_epochs) and the gap-filled slots behind every
  /// assessed verdict (interpolated_samples) — a survey result always
  /// says how much data it was NOT based on.
  DataQualityReport quality;

  PerFamily& of(net::Family f) {
    return f == net::Family::kIPv4 ? v4 : v6;
  }
  const PerFamily& of(net::Family f) const {
    return f == net::Family::kIPv4 ? v4 : v6;
  }

  /// Adds the assessed pairs and the flagged ones to
  /// s2s.congestion.{pairs_assessed,pairs_flagged}.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const {
    counters["s2s.congestion.pairs_assessed"] +=
        v4.pairs_assessed + v6.pairs_assessed;
    counters["s2s.congestion.pairs_flagged"] += flagged.size();
  }
};

/// Surveys every pair in the store. With a pool, pairs are processed in
/// kAnalysisShards fixed shards whose partial aggregates merge in shard
/// order, so the result is byte-identical at any thread count (DESIGN.md
/// section 9); pool == nullptr runs the shards inline.
CongestionSurvey survey_congestion(const PingSeriesStore& store,
                                   const CongestionDetectConfig& config = {},
                                   exec::ThreadPool* pool = nullptr);

}  // namespace s2s::core
