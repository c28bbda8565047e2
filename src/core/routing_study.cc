#include "core/routing_study.h"

#include <algorithm>
#include <map>
#include <set>

#include "exec/parallel_for.h"
#include "obs/trace.h"

namespace s2s::core {

namespace {

void analyze_family(const TraceTimeline& timeline, double interval_hours,
                    const RoutingStudyConfig& config,
                    RoutingStudy::PerFamily& out) {
  const TimelineAnalysis analysis =
      analyze_timeline(timeline, interval_hours);
  ++out.timelines;
  out.unique_paths.push_back(static_cast<double>(analysis.buckets.size()));
  out.changes.push_back(static_cast<double>(analysis.changes));
  out.popular_prevalence.push_back(
      analysis.buckets[analysis.most_prevalent()].prevalence);

  if (analysis.buckets.size() < 2) {
    // One AS path: no sub-optimal buckets; Fig 6 prevalence sums are 0.
    out.suboptimal_prevalence.emplace_back(
        config.suboptimal_thresholds_ms.size(), 0.0);
    return;
  }

  const PathBucket& best10 = analysis.buckets[analysis.best(
      BestPathCriterion::kP10)];
  const PathBucket& best90 = analysis.buckets[analysis.best(
      BestPathCriterion::kP90)];
  const PathBucket& best_sd = analysis.buckets[analysis.best(
      BestPathCriterion::kStddev)];

  std::vector<double> prevalence_sums(config.suboptimal_thresholds_ms.size(),
                                      0.0);
  for (const PathBucket& bucket : analysis.buckets) {
    if (bucket.path_id != best10.path_id) {
      const double d10 = bucket.p10 - best10.p10;
      out.lifetime_hours_p10.push_back(bucket.lifetime_hours);
      out.delta_p10_ms.push_back(d10);
      for (std::size_t k = 0; k < config.suboptimal_thresholds_ms.size();
           ++k) {
        if (d10 >= config.suboptimal_thresholds_ms[k]) {
          prevalence_sums[k] += bucket.prevalence;
        }
      }
    }
    if (bucket.path_id != best90.path_id) {
      out.lifetime_hours_p90.push_back(bucket.lifetime_hours);
      out.delta_p90_ms.push_back(bucket.p90 - best90.p90);
    }
    if (bucket.path_id != best_sd.path_id) {
      out.delta_stddev_ms.push_back(bucket.stddev - best_sd.stddev);
    }
  }
  out.suboptimal_prevalence.push_back(std::move(prevalence_sums));
}

void merge_family(RoutingStudy::PerFamily& into,
                  RoutingStudy::PerFamily&& from) {
  auto append = [](auto& dst, auto& src) {
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  };
  append(into.unique_paths, from.unique_paths);
  append(into.changes, from.changes);
  append(into.popular_prevalence, from.popular_prevalence);
  append(into.suboptimal_prevalence, from.suboptimal_prevalence);
  append(into.lifetime_hours_p10, from.lifetime_hours_p10);
  append(into.delta_p10_ms, from.delta_p10_ms);
  append(into.lifetime_hours_p90, from.lifetime_hours_p90);
  append(into.delta_p90_ms, from.delta_p90_ms);
  append(into.delta_stddev_ms, from.delta_stddev_ms);
  into.timelines += from.timelines;
}

/// Per-shard qualify-pass aggregate.
struct QualifyPartial {
  RoutingStudy::PerFamily v4, v6;

  RoutingStudy::PerFamily& of(net::Family f) {
    return f == net::Family::kIPv4 ? v4 : v6;
  }
};

}  // namespace

RoutingStudy run_routing_study(const TimelineStore& store,
                               const RoutingStudyConfig& config,
                               exec::ThreadPool* pool) {
  const obs::TraceSpan stage_span("analysis.routing_study");

  RoutingStudy study;
  const double interval_hours = store.interval_hours();

  // Pass 1: qualifying timelines, per family (the bucket scan).
  {
    const obs::TraceSpan pass_span("qualify");
    exec::sharded_reduce<QualifyPartial>(
        pool, exec::kAnalysisShards, "analysis.routing_study.qualify.shard",
        [&](std::size_t shard, QualifyPartial& partial) {
          store.for_each_shard(
              shard, exec::kAnalysisShards,
              [&](topology::ServerId, topology::ServerId, net::Family fam,
                  const TraceTimeline& timeline) {
                if (timeline.obs.size() < config.min_observations) return;
                analyze_family(timeline, interval_hours, config,
                               partial.of(fam));
              });
        },
        [&](QualifyPartial& partial) {
          merge_family(study.v4, std::move(partial.v4));
          merge_family(study.v6, std::move(partial.v6));
        });
  }

  // Pass 2 (Fig 2b): forward/reverse AS-path pairs per unordered pair.
  // Collect keys first to visit each unordered pair once.
  const obs::TraceSpan pairs_span("path_pairs");
  std::map<std::tuple<topology::ServerId, topology::ServerId, net::Family>,
           const TraceTimeline*>
      index;
  store.for_each([&](topology::ServerId s, topology::ServerId d,
                     net::Family fam, const TraceTimeline& timeline) {
    index[{s, d, fam}] = &timeline;
  });
  for (const auto& [key, fwd] : index) {
    const auto [s, d, fam] = key;
    if (s >= d) continue;  // visit each unordered pair once
    const auto rit = index.find({d, s, fam});
    if (rit == index.end()) continue;
    const TraceTimeline* rev = rit->second;
    if (fwd->obs.size() < config.min_observations ||
        rev->obs.size() < config.min_observations) {
      continue;
    }
    // Match observations by epoch (both campaigns share the grid).
    std::set<std::uint64_t> combos;
    std::size_t i = 0, j = 0;
    while (i < fwd->obs.size() && j < rev->obs.size()) {
      if (fwd->obs[i].epoch < rev->obs[j].epoch) {
        ++i;
      } else if (fwd->obs[i].epoch > rev->obs[j].epoch) {
        ++j;
      } else {
        combos.insert((std::uint64_t{fwd->global_path(fwd->obs[i])} << 32) |
                      rev->global_path(rev->obs[j]));
        ++i;
        ++j;
      }
    }
    if (combos.empty()) continue;
    auto& out = fam == net::Family::kIPv4 ? study.path_pairs_v4
                                          : study.path_pairs_v6;
    out.push_back(static_cast<double>(combos.size()));
  }

  return study;
}

}  // namespace s2s::core
