// Routing dynamics: per-adjacency outage processes.
//
// Each AS adjacency accumulates outage intervals over the campaign. An
// "outage" models anything that withdraws the adjacency from the routing
// plane: hard link/session failures, maintenance, or long-lived policy
// de-preferences (traffic engineering, peering disputes).
//
// Two empirical regularities drive the model, both needed to reproduce the
// paper's Figures 3-6:
//   * Outage frequency is heavily skewed: most adjacencies are stable for
//     months (the paper's 18%/16% of timelines saw no change in 16 months)
//     while a few flap repeatedly (the tail of Figure 3b). We draw a
//     per-adjacency rate multiplier from a wide lognormal.
//   * Repair time anti-correlates with impact: outages that force traffic
//     onto much slower paths get fixed in hours (operators notice);
//     benign shifts can persist for weeks or months. Mean repair time
//     decays exponentially with the adjacency's "severity" (the mean RTT
//     regression its loss causes), which paints the short-lived/high-
//     impact diagonal of the paper's Figures 4 and 5.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/timebase.h"
#include "routing/valley_free.h"
#include "stats/rng.h"

namespace s2s::routing {

struct DynamicsConfig {
  double campaign_days = 485.0;  ///< horizon covered by the schedule
  /// Mean outages per adjacency over the whole campaign (before the
  /// per-adjacency multiplier).
  double mean_outages_per_adjacency = 1.8;
  /// Sigma of the lognormal rate multiplier (mean normalized to 1).
  double rate_sigma = 2.0;
  /// Mean repair time = min + span * exp(-severity_ms / severity_scale).
  double repair_min_hours = 2.0;
  double repair_span_hours = 24.0 * 30.0;
  double severity_scale_ms = 15.0;
  /// Lognormal spread of individual outage durations around the mean.
  double duration_sigma = 0.8;
  /// Plane coupling: most outages hit shared infrastructure (both planes).
  double both_planes_prob = 0.70;
  double v4_only_prob = 0.20;  ///< remainder is IPv6-only

  // --- oscillating adjacencies ---
  // A small set of adjacencies alternates between preferred and
  // de-preferred for weeks at a time (traffic engineering, transit cost
  // balancing, simmering peering disputes). Pairs routed across them spend
  // large fractions of the campaign on their secondary path — the paper's
  // Figure 3a shows 20% of timelines whose most popular AS path holds for
  // less than half the study.
  double oscillate_fraction = 0.50;
  double oscillate_up_days_min = 25.0, oscillate_up_days_max = 90.0;
  double oscillate_down_days_min = 25.0, oscillate_down_days_max = 90.0;
  /// Only adjacencies that carry primary paths (severity > 0) and whose
  /// loss costs less than this oscillate — nobody tolerates months-long
  /// flips onto a far slower path, and unused adjacencies flip invisibly.
  double oscillate_max_severity_ms = 18.0;
};

/// A closed-open outage interval in one or both protocol planes.
struct Outage {
  net::SimTime start;
  net::SimTime end;
  bool v4 = true;
  bool v6 = true;
};

class OutageSchedule {
 public:
  /// `severity_ms(adjacency)` is the mean RTT regression (ms) that losing
  /// the adjacency causes across the pairs whose primary path uses it.
  OutageSchedule(const topology::Topology& topo, const DynamicsConfig& config,
                 const std::function<double(topology::AdjacencyId)>& severity_ms,
                 stats::Rng rng);

  /// True iff the adjacency is withdrawn from the given plane at `t`.
  bool is_down(topology::AdjacencyId id, net::Family family,
               net::SimTime t) const;

  /// Fills `out[adjacency] = is_down(adjacency, family, t)`.
  void failed_mask(net::Family family, net::SimTime t,
                   AdjacencyMask& out) const;

  /// Raw outage list (unmerged) for diagnostics and tests.
  const std::vector<Outage>& outages(topology::AdjacencyId id) const {
    return raw_[id];
  }

 private:
  struct Interval {
    std::int64_t start;
    std::int64_t end;
  };
  /// Merged, sorted, non-overlapping down intervals per plane.
  static bool covered(const std::vector<Interval>& intervals, std::int64_t t);

  std::vector<std::vector<Outage>> raw_;
  std::vector<std::vector<Interval>> down4_;
  std::vector<std::vector<Interval>> down6_;
};

}  // namespace s2s::routing
