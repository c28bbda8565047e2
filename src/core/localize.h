// Congested-segment localization (paper Section 5.2).
//
// For every flagged pair with a static IP-level path (and, optionally, a
// symmetric AS-level path), we re-verify the diurnal signal on the
// end-to-end series, then walk the segments front to back and mark the
// first whose RTT series correlates with the end-to-end series at
// Pearson rho >= 0.5. The congested IP-IP link is the hop pair
// (addr[k-1], addr[k]) at that segment boundary.
#pragma once

#include <optional>
#include <vector>

#include "bgp/rib.h"
#include "core/segment_series.h"
#include "exec/pool.h"
#include "stats/pearson.h"

namespace s2s::core {

struct LocalizeConfig {
  double rho_threshold = stats::kPearsonThreshold;  // 0.5
  double diurnal_ratio_threshold = 0.3;
  /// Exclude pairs whose forward/reverse AS-level paths differ.
  bool require_symmetric_as_paths = true;
  std::size_t min_traces = 100;
  /// A segment row must cover at least this fraction of epochs.
  double min_row_coverage = 0.5;
};

struct CongestedSegmentObs {
  topology::ServerId src = topology::kInvalidId;
  topology::ServerId dst = topology::kInvalidId;
  net::Family family = net::Family::kIPv4;
  std::size_t segment_index = 0;
  /// The congested link's near/far addresses; near is empty when the
  /// congestion localizes to the first hop (inside the source site).
  std::optional<net::IPAddr> near_addr;
  std::optional<net::IPAddr> far_addr;
  double rho = 0.0;
  double diurnal_ratio = 0.0;
  /// Busy-vs-idle overhead estimate from the end-to-end series (p90-p10).
  double overhead_ms = 0.0;
};

struct LocalizeResult {
  std::vector<CongestedSegmentObs> segments;
  std::size_t pairs_considered = 0;
  std::size_t pairs_static = 0;
  std::size_t pairs_symmetric = 0;
  std::size_t pairs_persistent = 0;  ///< diurnal signal still present
  std::size_t pairs_localized = 0;

  /// Adds pairs_localized to s2s.congestion.pairs_localized.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const {
    counters["s2s.congestion.pairs_localized"] += pairs_localized;
  }
};

/// Infers the AS-level sequence of a hop-address list (collapse duplicate
/// ASNs, unknowns collapse to a single gap token).
net::AsPath as_sequence_of_hops(
    const std::vector<std::optional<net::IPAddr>>& hops, const bgp::Rib& rib);

/// Localizes over every pair in the store. With a pool, pairs run in
/// kAnalysisShards fixed shards merged in shard order, so the result is
/// byte-identical at any thread count (DESIGN.md section 9); pool ==
/// nullptr runs the shards inline. Workers read the whole store (the
/// reverse-direction lookup crosses shards), which is safe: the store is
/// const throughout.
LocalizeResult localize_congestion(const SegmentSeriesStore& store,
                                   const bgp::Rib& rib,
                                   const LocalizeConfig& config = {},
                                   exec::ThreadPool* pool = nullptr);

}  // namespace s2s::core
