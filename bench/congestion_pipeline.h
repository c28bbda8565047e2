// Shared Section 5 pipeline: ping survey -> follow-up traceroutes ->
// segment localization -> ownership inference -> link classification.
// Used by bench_sec51, bench_sec53 and bench_fig9.
#pragma once

#include "bench/common.h"
#include "core/congestion_detect.h"
#include "core/congestion_study.h"
#include "core/localize.h"
#include "core/ownership.h"
#include "core/segment_series.h"

namespace s2s::bench {

struct CongestionPipeline {
  core::CongestionSurvey survey;
  core::LocalizeResult localization;
  core::OwnershipInference::Stats ownership_stats;
  core::CongestionStudy study;
  std::size_t followup_pairs = 0;
};

/// Runs the paper's Section 5 measurement chain end to end.
inline CongestionPipeline run_congestion_pipeline(
    Deployment& d, const Options& opt,
    const core::CongestionDetectConfig& detect_cfg = {},
    exec::ThreadPool* pool = nullptr) {
  CongestionPipeline out;

  // --- 5.1: one-week 15-minute ping campaign --------------------------
  probe::PingCampaignConfig ping_cfg;
  ping_cfg.start_day = 417.0;
  ping_cfg.days = opt.fast ? 7.0 : 7.0;
  ping_cfg.seed = opt.seed + 31;
  probe::PingCampaign pings(*d.net, ping_cfg, d.pairs);
  core::PingSeriesStore ping_store(ping_cfg.start_day, net::kFifteenMinutes,
                                   pings.epochs());
  obs::logf(obs::LogLevel::kInfo, "ping campaign: %zu pairs, %zu epochs",
            d.pairs.size() * 2, pings.epochs());
  pings.run([&](const probe::PingRecord& r) { ping_store.add(r); });
  if (ObsSession* session = ObsSession::active()) {
    session->note_quality(ping_store.quality());
  }
  auto cfg = detect_cfg;
  cfg.min_samples = static_cast<std::size_t>(0.88 * pings.epochs());
  out.survey = core::survey_congestion(ping_store, cfg, pool);

  // --- 5.2: three-week 30-minute traceroute follow-up ------------------
  std::vector<std::pair<topology::ServerId, topology::ServerId>> flagged;
  for (const auto& f : out.survey.flagged) flagged.emplace_back(f.src, f.dst);
  std::sort(flagged.begin(), flagged.end());
  flagged.erase(std::unique(flagged.begin(), flagged.end()), flagged.end());
  out.followup_pairs = flagged.size();
  if (flagged.empty()) return out;

  probe::TracerouteCampaignConfig follow_cfg;
  follow_cfg.start_day = 424.0;
  follow_cfg.days = opt.fast ? 7.0 : 21.0;
  follow_cfg.interval_s = net::kThirtyMinutes;
  follow_cfg.paris_switch_day = 0.0;
  follow_cfg.seed = opt.seed + 37;
  // The follow-up probes must see the same diurnal links, so keep
  // stop-early low for denser series.
  follow_cfg.traceroute.stop_early_prob = 0.1;
  probe::TracerouteCampaign followup(*d.net, follow_cfg, flagged);

  core::SegmentSeriesStore segments(follow_cfg.start_day,
                                    net::kThirtyMinutes, followup.epochs());
  const auto rels = bgp::RelationshipTable::from_topology(d.topo());
  core::OwnershipInference ownership(d.net->rib(), rels);
  obs::logf(obs::LogLevel::kInfo, "follow-up campaign: %zu flagged pairs",
            flagged.size());
  followup.run([&](const probe::TracerouteRecord& r) {
    segments.add(r);
    ownership.observe_trace(r);
  });
  if (ObsSession* session = ObsSession::active()) {
    session->note_quality(segments.quality());
  }
  // The paper labels interfaces from *all* traceroute paths, not only the
  // flagged pairs: add one day of the routine full-mesh sweep so the
  // election has the surrounding-path constraints it needs.
  {
    probe::TracerouteCampaignConfig sweep_cfg;
    sweep_cfg.start_day = 424.0;
    sweep_cfg.days = 1.0;
    sweep_cfg.paris_switch_day = 0.0;
    sweep_cfg.seed = opt.seed + 41;
    probe::TracerouteCampaign sweep(*d.net, sweep_cfg, d.pairs);
    sweep.run([&](const probe::TracerouteRecord& r) {
      ownership.observe_trace(r);
    });
  }
  ownership.finalize();
  out.ownership_stats = ownership.stats();

  core::LocalizeConfig loc_cfg;
  loc_cfg.min_traces = static_cast<std::size_t>(0.3 * followup.epochs());
  out.localization =
      core::localize_congestion(segments, d.net->rib(), loc_cfg, pool);

  const auto ixps = core::IxpDirectory::from_topology(d.topo());
  const core::LinkClassifier classifier(ownership, rels, ixps);
  out.study = core::build_congestion_study(out.localization.segments,
                                           classifier, d.topo());
  return out;
}

}  // namespace s2s::bench
