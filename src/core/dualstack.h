// IPv4 vs IPv6 comparison (paper Section 6, Figure 10a).
//
// For every (src, dst) pair and every epoch measured over both protocols
// at the same time, we take RTTv4 - RTTv6; the "Same AS-paths" variant
// keeps only samples whose inferred AS path is identical (at AS level)
// over both protocols. Dual-stack opportunity statistics (how often
// switching protocol saves >= 10/50 ms) come from the same pass.
#pragma once

#include <cstdint>
#include <vector>

#include "core/timeline.h"
#include "exec/pool.h"
#include "stats/binned_ecdf.h"

namespace s2s::core {

struct DualStackStudy {
  stats::BinnedEcdf diff_all{-300.0, 300.0, 6000};        ///< per sample
  stats::BinnedEcdf diff_same_path{-300.0, 300.0, 6000};  ///< per sample
  std::size_t pairs_matched = 0;     ///< pairs with >= 1 matched sample
  std::uint64_t samples_matched = 0;
  std::uint64_t samples_same_path = 0;
  /// Per-pair median of RTTv4 - RTTv6 (for per-pair opportunity stats).
  std::vector<double> pair_median_diff;
  /// Upstream store counters plus any non-finite diff samples skipped
  /// here (invalid_rtt), so Figure 10 statistics are never NaN-poisoned.
  DataQualityReport quality;

  /// Adds pairs_matched and samples_matched to s2s.dualstack.*.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const {
    counters["s2s.dualstack.pairs_matched"] += pairs_matched;
    counters["s2s.dualstack.samples_matched"] += samples_matched;
  }
};

/// The epoch-matched samples of one (src, dst) pair.
struct DualStackMatch {
  std::vector<double> diffs;  ///< finite RTTv4 - RTTv6, in epoch order
  /// Those of `diffs` whose AS path is the same over both protocols.
  std::vector<double> same_path_diffs;
  std::size_t invalid = 0;  ///< non-finite diffs, skipped
};

/// Fills `out` (cleared first, so one buffer serves a whole pass) with
/// every epoch both timelines measured: a two-pointer merge over their
/// epoch-sorted observations. Paths compare by global id, which is one
/// AS path's id in both families: the store's interner is shared and
/// canonical. The study and the served dualstack_delta both match here.
void match_dualstack(const TraceTimeline& v4, const TraceTimeline& v6,
                     DualStackMatch& out);

/// Matches every dual-stack pair in the store. With a pool, the v6
/// timelines are processed in kAnalysisShards fixed shards whose partial
/// aggregates (BinnedEcdf counts, per-pair medians) merge in shard order,
/// so the result is byte-identical at any thread count (DESIGN.md
/// section 9); pool == nullptr runs the shards inline.
DualStackStudy run_dualstack_study(const TimelineStore& store,
                                   exec::ThreadPool* pool = nullptr);

}  // namespace s2s::core
