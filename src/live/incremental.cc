#include "live/incremental.h"

#include <algorithm>
#include <cmath>

#include "exec/parallel_for.h"
#include "obs/metrics.h"

namespace s2s::live {

namespace {

obs::Counter obs_folded() {
  static obs::Counter c =
      obs::MetricsRegistry::global().counter("s2s.live.records_folded");
  return c;
}

}  // namespace

IncrementalState::IncrementalState(const IncrementalConfig& config)
    : config_(config) {}

IncrementalState::Prepared IncrementalState::prepare(
    const probe::PingRecord& record) const {
  Prepared p;
  p.key = key(record.src, record.dst,
              record.family == net::Family::kIPv6 ? 6 : 4);
  p.epoch = net::grid_epoch(record.time, config_.start_day, config_.interval_s);
  p.foldable =
      record.success && std::isfinite(record.rtt_ms) && p.epoch >= 0;
  // Same 0.1 ms quantization as PingSeriesStore slots, so the sketches
  // see exactly the values the batch grid would.
  if (p.foldable) {
    p.value =
        std::floor(std::min(6553.0, std::max(0.0, record.rtt_ms)) * 10.0) /
        10.0;
  }
  return p;
}

void IncrementalState::commit(const Prepared& p) {
  if (!p.foldable) {
    ++records_dropped_;
    return;
  }
  const std::int64_t epoch = p.epoch;
  const double value = p.value;
  PairState& ps = pairs_.try_emplace(p.key, config_).first->second;
  if (epoch <= ps.last_epoch) {
    ++records_dropped_;  // duplicate or stale redelivery: first write wins
    return;
  }
  if (ps.last_epoch >= 0) {
    // Interior gap: linear interpolation between the two observed
    // endpoints, exactly like to_ms_interpolated. Fills older than the
    // window would be evicted immediately, so start at the last
    // `window_epochs` positions.
    const std::int64_t span = epoch - ps.last_epoch;
    std::int64_t j = ps.last_epoch + 1;
    const std::int64_t horizon =
        epoch - static_cast<std::int64_t>(config_.window_epochs);
    if (j < horizon) j = horizon;
    for (; j < epoch; ++j) {
      const double frac = static_cast<double>(j - ps.last_epoch) /
                          static_cast<double>(span);
      ps.window.push(ps.last_value + frac * (value - ps.last_value));
    }
  } else if (epoch > 0) {
    // Leading gap: copy the first observation backward, like the batch
    // interpolation; cap at the window so huge offsets stay O(window).
    std::int64_t fills = epoch;
    if (fills > static_cast<std::int64_t>(config_.window_epochs)) {
      fills = static_cast<std::int64_t>(config_.window_epochs);
    }
    for (std::int64_t j = 0; j < fills; ++j) ps.window.push(value);
  }
  ps.window.push(value);
  ps.ecdf.add(value);
  ps.welford.add(value);
  ps.last_epoch = epoch;
  ps.last_value = value;
  ++ps.valid;
  ++records_folded_;
  obs_folded().inc();
}

void IncrementalState::advance_watermark(std::int64_t epoch) {
  watermark_epoch_ = std::max(watermark_epoch_, epoch);
}

IncrementalState::Verdict IncrementalState::eval(const PairState& ps) const {
  Verdict v;
  v.samples = ps.valid;
  const std::size_t horizon = epochs();
  v.missing_samples = horizon > ps.valid ? horizon - ps.valid : 0;
  const auto min_samples = static_cast<std::size_t>(
      config_.min_fraction * static_cast<double>(horizon));
  if (ps.valid == 0 || horizon < 2) {
    v.insufficient = true;
    return v;
  }
  v.insufficient = ps.valid < std::max<std::size_t>(min_samples, 2);
  v.variation_ms = ps.ecdf.quantile(0.95) - ps.ecdf.quantile(0.05);
  v.high_variation = v.variation_ms > config_.detect.variation_threshold_ms;
  // Trailing gap up to the watermark extends the window with virtual
  // copies of the last observation (the batch interpolation's trailing
  // rule), without mutating the fold state.
  const std::size_t trailing =
      watermark_epoch_ > ps.last_epoch
          ? static_cast<std::size_t>(watermark_epoch_ - ps.last_epoch)
          : 0;
  v.diurnal_ratio = ps.window.diurnal(samples_per_day(), trailing).ratio;
  v.strong_diurnal =
      v.diurnal_ratio >= config_.detect.diurnal_ratio_threshold;
  return v;
}

bool IncrementalState::verdict(std::uint32_t src, std::uint32_t dst,
                               std::uint8_t family, Verdict& out) const {
  const auto it = pairs_.find(key(src, dst, family));
  if (it == pairs_.end()) return false;
  out = eval(it->second);
  return true;
}

void IncrementalState::for_each(
    const std::function<void(std::uint32_t, std::uint32_t, std::uint8_t,
                             const Verdict&)>& fn) const {
  for (const auto& [k, ps] : pairs_) {
    fn(static_cast<std::uint32_t>(k >> 24),
       static_cast<std::uint32_t>((k >> 4) & 0xFFFFFu),
       (k & 1u) ? std::uint8_t{6} : std::uint8_t{4}, eval(ps));
  }
}

IncrementalState::Summary IncrementalState::summarize(
    exec::ThreadPool* pool) const {
  Summary total;
  exec::sharded_reduce<Summary>(
      pool, exec::kAnalysisShards, "live.incremental.summarize",
      [&](std::size_t shard, Summary& partial) {
        for (const auto& [k, ps] : pairs_) {
          if (k % exec::kAnalysisShards != shard) continue;
          const Verdict v = eval(ps);
          ++partial.pairs;
          if (v.insufficient) continue;
          ++partial.assessed;
          if (v.high_variation) ++partial.high_variation;
          if (v.consistent_congestion()) ++partial.consistent;
        }
      },
      [&](const Summary& partial) {
        total.pairs += partial.pairs;
        total.assessed += partial.assessed;
        total.high_variation += partial.high_variation;
        total.consistent += partial.consistent;
      });
  return total;
}

}  // namespace s2s::live
