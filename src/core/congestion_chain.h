// The paper's Section 5 method as one chain (Sections 5.1-5.2):
//
//   1. a 15-minute ping campaign over the pairs, into a PingSeriesStore;
//   2. the congestion survey, judging series with at least 88% of the
//      ping epochs observed;
//   3. the follow-up pair set: the distinct (src, dst) of every flagged
//      series;
//   4. a 30-minute Paris-traceroute follow-up of those pairs with
//      stop-early probing kept low for dense series, into a
//      SegmentSeriesStore (only when something was flagged);
//   5. localization over the pairs traced in at least 30% of the
//      follow-up epochs.
//
// Every method constant is written here once. Callers choose the
// campaign windows and seeds, host downtime and the event overlay:
// s2s_figures runs the paper's deployment (and re-runs the survey and
// localization on the returned stores for its threshold ablations),
// core::run_scenario scores the result against a ground-truth ledger,
// and examples/congestion_localizer prints it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/congestion_detect.h"
#include "core/data_quality.h"
#include "core/localize.h"
#include "core/ping_series.h"
#include "core/segment_series.h"
#include "exec/pool.h"
#include "probe/campaign.h"
#include "simnet/network.h"

namespace s2s::core {

/// One campaign's window on the study calendar and its RNG seed.
struct ChainWindow {
  double start_day = 0.0;
  double days = 7.0;
  std::uint64_t seed = 0;
};

struct CongestionChainConfig {
  ChainWindow ping;      ///< the 15-minute ping survey
  ChainWindow followup;  ///< the 30-minute traceroute follow-up
  /// Host downtime, for both campaigns.
  probe::DowntimeConfig downtime;
  /// Optional event overlay, installed for both campaigns (not owned).
  const simnet::EventSchedule* events = nullptr;
};

struct CongestionChainResult {
  explicit CongestionChainResult(PingSeriesStore store)
      : pings(std::move(store)) {}

  PingSeriesStore pings;
  /// The survey's configuration (its min_samples is the method's), so
  /// ablations re-run survey_congestion with one field changed.
  CongestionDetectConfig survey_config;
  CongestionSurvey survey;
  std::vector<std::pair<topology::ServerId, topology::ServerId>>
      followup_pairs;
  /// Empty when the survey flagged nothing: no follow-up ran.
  std::optional<SegmentSeriesStore> segments;
  /// Same, for localize_congestion.
  LocalizeConfig localize_config;
  LocalizeResult localization;
};

/// Runs the chain over the unordered `pairs` (both directions probed).
/// Campaigns prepare their epochs on the process-wide pool; the survey
/// and localization run on `pool` (nullptr = inline), so the result is
/// the same at any width. Notes the ping campaign, its store, the
/// survey, the follow-up campaign, its store and the localization in
/// `facts` when given. `on_followup` sees every follow-up traceroute
/// after the segment store does.
CongestionChainResult run_congestion_chain(
    simnet::Network& net,
    std::span<const std::pair<topology::ServerId, topology::ServerId>> pairs,
    const CongestionChainConfig& config, exec::ThreadPool* pool,
    RunFacts* facts, const probe::TraceSink& on_followup = {});

}  // namespace s2s::core
