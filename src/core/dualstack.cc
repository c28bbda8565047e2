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
};

}  // namespace

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

              std::vector<double> diffs;
              std::size_t i = 0, j = 0;
              while (i < v4.obs.size() && j < v6.obs.size()) {
                if (v4.obs[i].epoch < v6.obs[j].epoch) {
                  ++i;
                } else if (v4.obs[i].epoch > v6.obs[j].epoch) {
                  ++j;
                } else {
                  const double diff = v4.obs[i].rtt_ms() - v6.obs[j].rtt_ms();
                  if (!std::isfinite(diff)) {
                    ++partial.invalid_diffs;
                    ++i;
                    ++j;
                    continue;
                  }
                  diffs.push_back(diff);
                  partial.diff_all.add(diff);
                  ++partial.samples_matched;
                  const auto& path4 =
                      store.interner().path(v4.global_path(v4.obs[i]));
                  const auto& path6 =
                      store.interner().path(v6.global_path(v6.obs[j]));
                  if (path4 == path6) {
                    partial.diff_same_path.add(diff);
                    ++partial.samples_same_path;
                  }
                  ++i;
                  ++j;
                }
              }
              if (!diffs.empty()) {
                ++partial.pairs_matched;
                partial.pair_median_diff.push_back(stats::median(diffs));
              }
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
