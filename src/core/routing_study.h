// Aggregation of the long-term routing analysis (paper Section 4.2):
// one pass over a TimelineStore producing the raw series behind
// Figures 2a, 2b, 3a, 3b, 4, 5 and 6.
#pragma once

#include <cstddef>
#include <vector>

#include "core/path_stats.h"
#include "core/timeline.h"
#include "exec/pool.h"

namespace s2s::core {

struct RoutingStudyConfig {
  /// Timelines with fewer observations are skipped (the paper restricts
  /// itself to pairs with >= 400 days of data out of 485).
  std::size_t min_observations = 100;
  /// Figure 6 thresholds (ms of RTT increase over the best path).
  std::vector<double> suboptimal_thresholds_ms = {20.0, 50.0, 100.0};
};

struct RoutingStudy {
  struct PerFamily {
    // Per qualifying timeline:
    std::vector<double> unique_paths;        ///< Fig 2a
    std::vector<double> changes;             ///< Fig 3b
    std::vector<double> popular_prevalence;  ///< Fig 3a
    /// Fig 6: per timeline, per threshold index, the summed prevalence of
    /// sub-optimal paths whose baseline-RTT penalty is >= the threshold.
    std::vector<std::vector<double>> suboptimal_prevalence;

    // Per sub-optimal path bucket across all timelines (Figs 4 and 5):
    std::vector<double> lifetime_hours_p10;  ///< x-values, Fig 4
    std::vector<double> delta_p10_ms;        ///< y-values, Fig 4
    std::vector<double> lifetime_hours_p90;  ///< x-values, Fig 5
    std::vector<double> delta_p90_ms;        ///< y-values, Fig 5
    /// Robustness variant (paper Section 4.2 last paragraph): increase in
    /// RTT standard deviation over the lowest-stddev path.
    std::vector<double> delta_stddev_ms;

    std::size_t timelines = 0;
  };
  PerFamily v4, v6;

  /// Fig 2b: unique (forward, reverse) AS-path pairs per server pair.
  std::vector<double> path_pairs_v4;
  std::vector<double> path_pairs_v6;

  PerFamily& of(net::Family f) {
    return f == net::Family::kIPv4 ? v4 : v6;
  }
  const PerFamily& of(net::Family f) const {
    return f == net::Family::kIPv4 ? v4 : v6;
  }

  /// Adds the qualifying timelines to s2s.routing_study.timelines.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const {
    counters["s2s.routing_study.timelines"] += v4.timelines + v6.timelines;
  }
};

/// Runs the routing study. With a pool, the per-timeline qualify pass
/// (the bucket scan) runs in kAnalysisShards fixed shards whose partial
/// aggregates merge in shard order, so the result is byte-identical at
/// any thread count (DESIGN.md section 9); the pairwise pass 2 is
/// index-bound and stays serial. pool == nullptr runs the shards inline.
RoutingStudy run_routing_study(const TimelineStore& store,
                               const RoutingStudyConfig& config = {},
                               exec::ThreadPool* pool = nullptr);

}  // namespace s2s::core
