#include "core/dualstack.h"

#include <cmath>

#include "exec/parallel_for.h"
#include "obs/trace.h"
#include "stats/summary.h"

namespace s2s::core {

namespace {

/// Per-shard dual-stack aggregate; default-constructed on the same ECDF
/// grid as DualStackStudy so the partials merge bin-for-bin.
struct DualStackPartial {
  stats::BinnedEcdf diff_all{-300.0, 300.0, 6000};
  stats::BinnedEcdf diff_same_path{-300.0, 300.0, 6000};
  std::size_t pairs_matched = 0;
  std::uint64_t samples_matched = 0;
  std::uint64_t samples_same_path = 0;
  std::vector<double> pair_median_diff;
  std::size_t invalid_diffs = 0;
  DualStackMatch match;  ///< one pair's samples, reused across the shard
};

}  // namespace

void match_dualstack(const TraceTimeline& v4, const TraceTimeline& v6,
                     DualStackMatch& out) {
  out.diffs.clear();
  out.same_path_diffs.clear();
  out.invalid = 0;
  std::size_t i = 0, j = 0;
  while (i < v4.obs.size() && j < v6.obs.size()) {
    const Observation& a = v4.obs[i];
    const Observation& b = v6.obs[j];
    if (a.epoch < b.epoch) {
      ++i;
    } else if (b.epoch < a.epoch) {
      ++j;
    } else {
      const double diff = a.rtt_ms() - b.rtt_ms();
      if (!std::isfinite(diff)) {
        ++out.invalid;
      } else {
        out.diffs.push_back(diff);
        if (v4.global_path(a) == v6.global_path(b)) {
          out.same_path_diffs.push_back(diff);
        }
      }
      ++i;
      ++j;
    }
  }
}

DualStackStudy run_dualstack_study(const TimelineStore& store,
                                   exec::ThreadPool* pool) {
  const obs::TraceSpan stage_span("analysis.dualstack");

  DualStackStudy study;
  study.quality = store.quality();

  exec::sharded_reduce<DualStackPartial>(
      pool, exec::kAnalysisShards, "analysis.dualstack.shard",
      [&](std::size_t shard, DualStackPartial& partial) {
        store.for_each_shard(
            shard, exec::kAnalysisShards,
            [&](topology::ServerId s, topology::ServerId d, net::Family fam,
                const TraceTimeline& v6) {
              if (fam != net::Family::kIPv6) return;
              // The store is const, so concurrent lookups are safe.
              const TraceTimeline* v4_timeline =
                  store.find(s, d, net::Family::kIPv4);
              if (v4_timeline == nullptr) return;
              const TraceTimeline& v4 = *v4_timeline;

              DualStackMatch& m = partial.match;
              match_dualstack(v4, v6, m);
              partial.invalid_diffs += m.invalid;
              if (m.diffs.empty()) return;
              for (const double diff : m.diffs) partial.diff_all.add(diff);
              for (const double diff : m.same_path_diffs) {
                partial.diff_same_path.add(diff);
              }
              ++partial.pairs_matched;
              partial.samples_matched += m.diffs.size();
              partial.samples_same_path += m.same_path_diffs.size();
              partial.pair_median_diff.push_back(stats::median(m.diffs));
            });
      },
      [&](const DualStackPartial& partial) {
        study.diff_all.merge(partial.diff_all);
        study.diff_same_path.merge(partial.diff_same_path);
        study.pairs_matched += partial.pairs_matched;
        study.samples_matched += partial.samples_matched;
        study.samples_same_path += partial.samples_same_path;
        study.pair_median_diff.insert(study.pair_median_diff.end(),
                                      partial.pair_median_diff.begin(),
                                      partial.pair_median_diff.end());
        study.quality.invalid_rtt += partial.invalid_diffs;
      });

  return study;
}

}  // namespace s2s::core
