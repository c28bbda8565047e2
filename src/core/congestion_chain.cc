#include "core/congestion_chain.h"

#include <algorithm>

#include "obs/log.h"

namespace s2s::core {

CongestionChainResult run_congestion_chain(
    simnet::Network& net,
    std::span<const std::pair<topology::ServerId, topology::ServerId>> pairs,
    const CongestionChainConfig& config, exec::ThreadPool* pool,
    RunFacts* facts, const probe::TraceSink& on_followup) {
  const auto note = [facts](const auto& owner) {
    if (facts != nullptr) facts->note(owner);
  };

  probe::PingCampaignConfig ping_cfg;
  ping_cfg.start_day = config.ping.start_day;
  ping_cfg.days = config.ping.days;
  ping_cfg.interval_s = net::kFifteenMinutes;
  ping_cfg.seed = config.ping.seed;
  ping_cfg.downtime = config.downtime;
  ping_cfg.events = config.events;
  probe::PingCampaign pings(net, ping_cfg, pairs);
  CongestionChainResult out(PingSeriesStore(
      ping_cfg.start_day, ping_cfg.interval_s, pings.epochs()));
  note(pings.run([&](const probe::PingRecord& r) { out.pings.add(r); }));
  note(out.pings);

  out.survey_config.min_samples =
      static_cast<std::size_t>(0.88 * static_cast<double>(pings.epochs()));
  out.survey = survey_congestion(out.pings, out.survey_config, pool);
  note(out.survey);

  for (const FlaggedPair& f : out.survey.flagged) {
    out.followup_pairs.emplace_back(f.src, f.dst);
  }
  std::sort(out.followup_pairs.begin(), out.followup_pairs.end());
  out.followup_pairs.erase(
      std::unique(out.followup_pairs.begin(), out.followup_pairs.end()),
      out.followup_pairs.end());
  obs::logf(obs::LogLevel::kInfo,
            "congestion chain: %zu pairs, %zu ping epochs, %zu flagged "
            "series, %zu follow-up pairs",
            pairs.size(), pings.epochs(), out.survey.flagged.size(),
            out.followup_pairs.size());
  if (out.followup_pairs.empty()) return out;

  probe::TracerouteCampaignConfig follow_cfg;
  follow_cfg.start_day = config.followup.start_day;
  follow_cfg.days = config.followup.days;
  follow_cfg.interval_s = net::kThirtyMinutes;
  follow_cfg.paris_switch_day = 0.0;
  follow_cfg.seed = config.followup.seed;
  follow_cfg.downtime = config.downtime;
  // Low stop-early keeps the series of the diurnal links dense.
  follow_cfg.traceroute.stop_early_prob = 0.1;
  follow_cfg.events = config.events;
  probe::TracerouteCampaign followup(net, follow_cfg, out.followup_pairs);
  SegmentSeriesStore& segments = out.segments.emplace(
      follow_cfg.start_day, follow_cfg.interval_s, followup.epochs());
  note(followup.run([&](const probe::TracerouteRecord& r) {
    segments.add(r);
    if (on_followup) on_followup(r);
  }));
  note(segments);

  out.localize_config.min_traces = static_cast<std::size_t>(
      0.3 * static_cast<double>(followup.epochs()));
  out.localization =
      localize_congestion(segments, net.rib(), out.localize_config, pool);
  note(out.localization);
  return out;
}

}  // namespace s2s::core
