#include "core/localize.h"

#include <algorithm>

#include "exec/parallel_for.h"
#include "obs/trace.h"
#include "stats/fft.h"
#include "stats/summary.h"

namespace s2s::core {

net::AsPath as_sequence_of_hops(
    const std::vector<std::optional<net::IPAddr>>& hops,
    const bgp::Rib& rib) {
  // Map, impute gaps flanked by the same AS, then drop residual unknown
  // tokens: unresponsive routers sit at different positions in the two
  // directions, and keeping them would fail the symmetry check for paths
  // that are symmetric at AS level.
  std::vector<net::Asn> tokens;
  tokens.reserve(hops.size());
  for (const auto& addr : hops) {
    net::Asn asn = net::kUnknownAsn;
    if (addr) {
      if (const auto mapped = rib.origin(*addr)) asn = *mapped;
    }
    tokens.push_back(asn);
  }
  for (std::size_t i = 0; i < tokens.size();) {
    if (tokens[i].known()) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < tokens.size() && !tokens[j].known()) ++j;
    if (i > 0 && j < tokens.size() && tokens[i - 1] == tokens[j]) {
      for (std::size_t k = i; k < j; ++k) tokens[k] = tokens[j];
    }
    i = j;
  }
  net::AsPath path;
  for (const net::Asn& asn : tokens) {
    if (!asn.known()) continue;
    if (path.empty() || path.back() != asn) path.push_back(asn);
  }
  return path;
}

LocalizeResult localize_congestion(const SegmentSeriesStore& store,
                                   const bgp::Rib& rib,
                                   const LocalizeConfig& config,
                                   exec::ThreadPool* pool) {
  const obs::TraceSpan stage_span("analysis.congestion.localize");

  LocalizeResult result;
  exec::sharded_reduce<LocalizeResult>(
      pool, exec::kAnalysisShards, "analysis.congestion.localize.shard",
      [&](std::size_t shard, LocalizeResult& partial) {
        store.for_each_shard(
            shard, exec::kAnalysisShards,
            [&](topology::ServerId src, topology::ServerId dst,
                net::Family fam,
                const SegmentSeriesStore::PairSeries& series) {
              ++partial.pairs_considered;
              if (!series.ip_static || series.traces < config.min_traces) {
                return;
              }
              ++partial.pairs_static;

              if (config.require_symmetric_as_paths) {
                // Reverse-direction lookup crosses shard boundaries; the
                // store is const, so concurrent readers are safe.
                const auto* rev = store.find(dst, src, fam);
                if (rev == nullptr || !rev->ip_static) return;
                // Anchor both sequences with the endpoint host addresses:
                // the last router before the destination frequently
                // answers from neighbor-assigned space, hiding the
                // terminal AS at hop level.
                auto with_endpoints =
                    [&](const SegmentSeriesStore::PairSeries& ps) {
                      std::vector<std::optional<net::IPAddr>> hops;
                      hops.reserve(ps.hop_addrs.size() + 2);
                      hops.emplace_back(ps.src_addr);
                      hops.insert(hops.end(), ps.hop_addrs.begin(),
                                  ps.hop_addrs.end());
                      hops.emplace_back(ps.dst_addr);
                      return as_sequence_of_hops(hops, rib);
                    };
                auto fwd_as = with_endpoints(series);
                auto rev_as = with_endpoints(*rev);
                std::reverse(rev_as.begin(), rev_as.end());
                if (fwd_as != rev_as) return;
              }
              ++partial.pairs_symmetric;

              const auto end_series = interpolate_slots_ms(series.end_rtt);
              if (end_series.empty()) return;
              const auto power = stats::diurnal_power_ratio(
                  end_series, store.samples_per_day());
              if (power.ratio < config.diurnal_ratio_threshold) return;
              ++partial.pairs_persistent;

              const auto end_sorted = stats::sorted(end_series);
              const double overhead =
                  stats::quantile_sorted(end_sorted, 0.90) -
                  stats::quantile_sorted(end_sorted, 0.10);

              for (std::size_t k = 0; k < series.hop_rtt.size(); ++k) {
                if (static_cast<double>(observed_slots(series.hop_rtt[k])) <
                    config.min_row_coverage *
                        static_cast<double>(store.epochs())) {
                  continue;
                }
                const auto row = interpolate_slots_ms(series.hop_rtt[k]);
                const double rho = stats::pearson(row, end_series);
                if (rho < config.rho_threshold) continue;

                CongestedSegmentObs obs;
                obs.src = src;
                obs.dst = dst;
                obs.family = fam;
                obs.segment_index = k;
                obs.far_addr = series.hop_addrs[k];
                if (k > 0) obs.near_addr = series.hop_addrs[k - 1];
                obs.rho = rho;
                obs.diurnal_ratio = power.ratio;
                obs.overhead_ms = overhead;
                partial.segments.push_back(std::move(obs));
                ++partial.pairs_localized;
                break;  // first matching segment marks the congested link
              }
            });
      },
      [&](const LocalizeResult& partial) {
        result.segments.insert(result.segments.end(), partial.segments.begin(),
                               partial.segments.end());
        result.pairs_considered += partial.pairs_considered;
        result.pairs_static += partial.pairs_static;
        result.pairs_symmetric += partial.pairs_symmetric;
        result.pairs_persistent += partial.pairs_persistent;
        result.pairs_localized += partial.pairs_localized;
      });
  return result;
}

}  // namespace s2s::core
