// Reproduces Figure 1: an illustrative six-month RTT timeline between one
// dual-stack server pair exhibiting (a) level shifts caused by AS-path
// changes and (b) a window of daily oscillation caused by a congested
// link, over both IPv4 and IPv6.
#include "bench/common.h"

#include "core/change_detect.h"
#include "stats/fft.h"

using namespace s2s;

int main(int argc, char** argv) {
  auto opt = bench::Options::parse(argc, argv);
  const bench::ObsSession obs_session("bench_fig1", opt);
  if (opt.days > 180.0) opt.days = 180.0;  // the figure shows six months
  bench::print_header(
      "Figure 1: illustrative server-to-server RTT timeline", opt);

  auto deployment = bench::make_deployment(opt);
  const auto store = bench::run_long_term(deployment, opt);

  // Pick the pair whose IPv4 timeline shows the strongest combination of
  // level shifts (path changes) and diurnal energy — the paper's
  // Hong Kong -> Osaka pair was chosen the same way, by eyeballing
  // interesting candidates.
  struct Best {
    topology::ServerId src = topology::kInvalidId;
    topology::ServerId dst = topology::kInvalidId;
    double score = -1.0;
  } best;
  store.for_each([&](topology::ServerId s, topology::ServerId d,
                     net::Family fam, const core::TraceTimeline& tl) {
    if (fam != net::Family::kIPv4 || tl.obs.size() < 100) return;
    std::vector<double> rtts;
    for (const auto& o : tl.obs) rtts.push_back(o.rtt_ms());
    const double diurnal = stats::diurnal_power_ratio(rtts, 8.0).ratio;
    const double changes = static_cast<double>(
        core::detect_changes(tl, store.interner()).size());
    const double score = changes + 20.0 * diurnal;
    if (score > best.score) best = {s, d, score};
  });
  if (best.src == topology::kInvalidId) {
    std::printf("no qualifying pair at this scale; rerun with more pairs\n");
    return 0;
  }

  const auto& topo = deployment.topo();
  const auto& src_city = topo.cities[topo.servers[best.src].city];
  const auto& dst_city = topo.cities[topo.servers[best.dst].city];
  std::printf("pair: %s,%s -> %s,%s (paper used Hong Kong -> Osaka)\n",
              src_city.name.c_str(), src_city.country.c_str(),
              dst_city.name.c_str(), dst_city.country.c_str());

  for (net::Family fam : {net::Family::kIPv4, net::Family::kIPv6}) {
    const auto* tl = store.find(best.src, best.dst, fam);
    if (tl == nullptr) continue;
    std::printf("\n# %s timeline: epoch(3h-grid)\tRTT(ms)\tpath-id\n",
                net::to_string(fam).data());
    // Daily downsample keeps the printout readable; the level shifts and
    // the diurnal band both survive it.
    for (std::size_t i = 0; i < tl->obs.size(); i += 8) {
      const auto& o = tl->obs[i];
      std::printf("%u\t%.1f\t%u\n", o.epoch, o.rtt_ms(), tl->global_path(o));
    }
    const auto changes = core::detect_changes(*tl, store.interner()).size();
    std::vector<double> rtts;
    for (const auto& o : tl->obs) rtts.push_back(o.rtt_ms());
    std::printf("# unique AS paths: %zu, changes: %zu, diurnal ratio: %.2f\n",
                tl->unique_paths(), changes,
                stats::diurnal_power_ratio(rtts, 8.0).ratio);
  }
  std::printf(
      "\npaper shape: level shifts at AS-path changes (IPv4 baseline jumps\n"
      "  >100 ms when rerouted via another continent) and a multi-day window\n"
      "  of daily oscillation shared by both protocols.\n");
  return 0;
}
