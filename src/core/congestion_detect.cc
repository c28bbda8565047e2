#include "core/congestion_detect.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "exec/parallel_for.h"
#include "obs/trace.h"
#include "stats/summary.h"

namespace s2s::core {

namespace {

/// assess_series' statistics over samples known to be finite; fills the
/// verdict in beside its sample counts.
void assess_finite(std::span<const double> usable, double samples_per_day,
                   const CongestionDetectConfig& config,
                   SeriesVerdict& verdict) {
  if (usable.size() < 2) {
    verdict.insufficient = true;
    return;
  }
  const auto [p5, p95] = stats::quantile_pair(usable, 0.05, 0.95);
  verdict.variation_ms = p95 - p5;
  verdict.high_variation =
      verdict.variation_ms > config.variation_threshold_ms;
  verdict.diurnal_ratio =
      stats::diurnal_power_ratio(usable, samples_per_day).ratio;
  verdict.strong_diurnal =
      verdict.diurnal_ratio >= config.diurnal_ratio_threshold;
}

}  // namespace

SeriesVerdict assess_series(std::span<const double> rtt_ms,
                            double samples_per_day,
                            const CongestionDetectConfig& config) {
  SeriesVerdict verdict;
  verdict.samples = rtt_ms.size();
  const auto finite = [](double v) { return std::isfinite(v); };
  verdict.invalid_samples =
      rtt_ms.size() - static_cast<std::size_t>(std::count_if(
                          rtt_ms.begin(), rtt_ms.end(), finite));
  if (verdict.invalid_samples == 0) {
    assess_finite(rtt_ms, samples_per_day, config, verdict);
    return verdict;
  }
  std::vector<double> usable;
  std::copy_if(rtt_ms.begin(), rtt_ms.end(), std::back_inserter(usable),
               finite);
  assess_finite(usable, samples_per_day, config, verdict);
  return verdict;
}

SeriesVerdict window_verdict(const PingSeriesStore::Series& series,
                             double samples_per_day,
                             const CongestionDetectConfig& config,
                             double min_fraction) {
  const std::span<const std::uint16_t> grid = series.rtt_tenths;
  const auto window = std::min(
      grid.size(),
      static_cast<std::size_t>(kVerdictWindowDays * samples_per_day));
  const auto slots = grid.last(window);
  const std::size_t observed = observed_slots(slots);
  // The gap-filled slots are finite, so they skip assess_series' filter.
  SeriesVerdict verdict;
  assess_finite(interpolate_slots_ms(slots), samples_per_day, config,
                verdict);
  verdict.samples = window;
  verdict.missing_samples = window - observed;
  const auto min_samples =
      static_cast<std::size_t>(min_fraction * static_cast<double>(window));
  if (observed == 0 || observed < min_samples) verdict.insufficient = true;
  return verdict;
}

namespace {

/// Per-shard survey aggregate; merged in shard order.
struct SurveyPartial {
  CongestionSurvey::PerFamily v4, v6;
  std::vector<FlaggedPair> flagged;
  DataQualityReport quality;  ///< survey-level counters only

  CongestionSurvey::PerFamily& of(net::Family f) {
    return f == net::Family::kIPv4 ? v4 : v6;
  }
};

void merge_family(CongestionSurvey::PerFamily& into,
                  const CongestionSurvey::PerFamily& from) {
  into.pairs_total += from.pairs_total;
  into.pairs_assessed += from.pairs_assessed;
  into.high_variation += from.high_variation;
  into.consistent += from.consistent;
}

}  // namespace

CongestionSurvey survey_congestion(const PingSeriesStore& store,
                                   const CongestionDetectConfig& config,
                                   exec::ThreadPool* pool) {
  const obs::TraceSpan stage_span("analysis.congestion.fft_detect");

  CongestionSurvey survey;
  survey.quality = store.quality();
  exec::sharded_reduce<SurveyPartial>(
      pool, exec::kAnalysisShards, "analysis.congestion.fft_detect.shard",
      [&](std::size_t shard, SurveyPartial& partial) {
        store.for_each_shard(
            shard, exec::kAnalysisShards,
            [&](topology::ServerId src, topology::ServerId dst,
                net::Family fam, const PingSeriesStore::Series& series) {
              auto& agg = partial.of(fam);
              ++agg.pairs_total;
              // Missing raw slots, counted BEFORE interpolation: the
              // interpolated series is gap-free by construction, so any
              // honest accounting has to look at the grid itself.
              const std::size_t missing =
                  series.rtt_tenths.size() - series.valid;
              if (series.valid < config.min_samples) {
                ++partial.quality.insufficient_series;
                partial.quality.insufficient_epochs += missing;
                return;
              }
              ++agg.pairs_assessed;
              const auto rtts = interpolate_slots_ms(series.rtt_tenths);
              SeriesVerdict verdict =
                  assess_series(rtts, store.samples_per_day(), config);
              verdict.missing_samples = missing;
              if (verdict.insufficient) {
                ++partial.quality.insufficient_series;
                partial.quality.insufficient_epochs += missing;
                return;
              }
              partial.quality.interpolated_samples += missing;
              if (verdict.high_variation) ++agg.high_variation;
              if (verdict.consistent_congestion()) {
                ++agg.consistent;
                partial.flagged.push_back({src, dst, fam, verdict});
              }
            });
      },
      [&](const SurveyPartial& partial) {
        merge_family(survey.v4, partial.v4);
        merge_family(survey.v6, partial.v6);
        survey.flagged.insert(survey.flagged.end(), partial.flagged.begin(),
                              partial.flagged.end());
        survey.quality.merge(partial.quality);
      });
  return survey;
}

}  // namespace s2s::core
