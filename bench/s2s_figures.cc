// s2s_figures: the paper's table, figures and Section 5 numbers from one
// run on one simulated deployment. Each campaign runs once:
//   * the long-term campaign (3-hour traceroutes, --days) feeds Table 1,
//     one routing study for Figs 2-6, the dual-stack and inflation studies
//     for Fig 10, and Fig 1 (its pair's first 180 days);
//   * two 40-day IPv4 campaigns give Table 1's classic/Paris ablation;
//   * a 22-day 30-minute campaign gives Fig 7;
//   * the Section 5 chain (core::run_congestion_chain: ping survey ->
//     follow-up traceroutes -> localization), then ownership and link
//     classes, on max(--pairs, 2500) pairs gives Sections 5.1-5.3 and
//     Fig 9, with the PSD-threshold and Pearson-threshold ablations
//     re-run on the chain's stores.
//
// stdout carries one versioned JSON document: `series` (the data behind
// each plot) and `rows` (one per headline number: id, paper value,
// measured value, sample count n). It has no wall-clock field, so it is
// byte-identical at any --threads / S2S_THREADS setting.
// tools/check_figures.py gates the rows on bench/figure_bands.json and
// prints EXPERIMENTS.md's headline table. Logs go to stderr.
//
// Usage: s2s_figures [--fast] [--servers N] [--pairs N] [--days N]
//                    [--seed N] [--threads N] [--report PATH | --no-report]
//                    [--trace PATH] > figures.json
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common.h"
#include "core/change_detect.h"
#include "core/congestion_chain.h"
#include "core/congestion_detect.h"
#include "core/congestion_study.h"
#include "core/dualstack.h"
#include "core/inflation.h"
#include "core/ownership.h"
#include "core/routing_study.h"
#include "obs/json.h"
#include "stats/density.h"
#include "stats/ecdf.h"
#include "stats/fft.h"
#include "stats/heatmap.h"
#include "stats/pearson.h"
#include "stats/summary.h"

namespace {

using namespace s2s;

constexpr net::Family kFamilies[] = {net::Family::kIPv4, net::Family::kIPv6};

std::string id(std::string_view name, net::Family fam) {
  return std::string(name) + (fam == net::Family::kIPv4 ? ".v4" : ".v6");
}

/// Paper values that differ by family: {IPv4, IPv6}.
std::optional<double> paper(net::Family fam, std::optional<double> v4,
                            std::optional<double> v6) {
  return fam == net::Family::kIPv4 ? v4 : v6;
}

double pct(double part, double whole) { return 100.0 * part / whole; }

/// The document: series stream into the writer as each study finishes;
/// rows are kept and written last.
class Document {
 public:
  explicit Document(const bench::Options& opt) {
    w_.begin_object().key("schema_version").value(1);
    w_.key("options").begin_object()
        .key("servers").value(opt.servers)
        .key("pairs").value(opt.pairs)
        .key("days").value(opt.days)
        .key("seed").value(opt.seed)
        .key("fast").value(opt.fast)
        .end_object();
    w_.key("series").begin_array();
  }

  /// One headline number. A row over no samples has no measured value.
  void row(std::string row_id, std::optional<double> paper_value,
           double measured, std::size_t n) {
    rows_.push_back({std::move(row_id), paper_value, measured, n});
  }

  /// Opens a series object holding its id and kind; the caller writes the
  /// data fields and closes it with end_object().
  obs::json::Writer& series(std::string_view series_id,
                            std::string_view kind) {
    return w_.begin_object().key("id").value(series_id).key("kind").value(
        kind);
  }

  /// The size of a simulated deployment, as a series.
  void deployment(std::string_view name, const bench::Deployment& d) {
    series(std::string("deployment.") + std::string(name), "deployment")
        .key("servers").value(d.topo().servers.size())
        .key("dual_stack").value(d.dual_stack.size())
        .key("pairs").value(d.pairs.size())
        .end_object();
  }

  std::string finish() {
    w_.end_array().key("rows").begin_array();
    for (const Row& r : rows_) {
      w_.begin_object().key("id").value(r.id).key("paper");
      if (r.paper) w_.value(*r.paper); else w_.null();
      w_.key("measured");
      if (r.n > 0) w_.value(r.measured); else w_.null();
      w_.key("n").value(r.n).end_object();
    }
    w_.end_array().end_object();
    return w_.str() + "\n";
  }

 private:
  struct Row {
    std::string id;
    std::optional<double> paper;
    double measured;
    std::size_t n;
  };
  obs::json::Writer w_;
  std::vector<Row> rows_;
};

/// An ECDF as its quantile knots, plus F's complement at `tails`.
void ecdf_series(Document& doc, std::string_view series_id,
                 const stats::Ecdf& ecdf,
                 std::initializer_list<double> tails = {}) {
  auto& w = doc.series(series_id, "ecdf").key("n").value(ecdf.size());
  w.key("knots").begin_array();
  for (double q : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}) {
    w.begin_array().value(q).value(ecdf.quantile(q)).end_array();
  }
  w.end_array();
  if (tails.size() > 0) {
    w.key("tail_at_least").begin_array();
    for (double t : tails) {
      w.begin_array().value(t).value(ecdf.tail_at_least(t)).end_array();
    }
    w.end_array();
  }
  w.end_object();
}

/// A decile heat map: bin edges and each cell's percentage, one array per
/// y-bin (rows bottom-up, as the figure's y axis).
void heatmap_series(Document& doc, std::string_view series_id,
                    const stats::DecileHeatmap& map) {
  auto& w = doc.series(series_id, "heatmap")
                .key("n").value(map.total_points());
  auto edges = [&](const char* name, const std::vector<double>& e) {
    w.key(name).begin_array();
    for (double v : e) w.value(v);
    w.end_array();
  };
  edges("x_edges", map.x_edges());
  edges("y_edges", map.y_edges());
  w.key("percent").begin_array();
  for (std::size_t yi = 0; yi < map.y_bins(); ++yi) {
    w.begin_array();
    for (std::size_t xi = 0; xi < map.x_bins(); ++xi) {
      w.value(map.percent(xi, yi));
    }
    w.end_array();
  }
  w.end_array().key("row_percent").begin_array();
  for (std::size_t yi = 0; yi < map.y_bins(); ++yi) {
    w.value(map.row_percent(yi));
  }
  w.end_array().end_object();
}

/// A Gaussian KDE over [0, 120] ms at 5 ms steps (Fig 9), drawn only from
/// three or more samples. Returns the grid point of peak density (NaN
/// when not drawn).
double kde_series(Document& doc, std::string_view series_id,
                  const std::vector<double>& samples) {
  auto& w = doc.series(series_id, "kde").key("n").value(samples.size());
  double peak = std::nan("");
  if (samples.size() < 3) {
    w.key("points").begin_array().end_array().end_object();
    return peak;
  }
  w.key("median").value(stats::median(samples)).key("points").begin_array();
  double best = -1.0;
  for (const auto& p : stats::kde(samples, 0.0, 120.0, 25)) {
    w.begin_array().value(p.x).value(p.density).end_array();
    if (p.density > best) {
      best = p.density;
      peak = p.x;
    }
  }
  w.end_array().end_object();
  return peak;
}

// --- Table 1 and Section 2.1 --------------------------------------------

void table1(Document& doc, const core::Table1Counts& t1) {
  struct Paper {
    double complete_as, missing_as, missing_ip, loops;
  };
  for (const net::Family fam : kFamilies) {
    const auto& f = t1.of(fam);
    const Paper p = fam == net::Family::kIPv4
                        ? Paper{70.30, 1.58, 28.12, 2.16}
                        : Paper{64.03, 3.32, 32.65, 5.50};
    const auto analyzed = f.complete_as + f.missing_as + f.missing_ip;
    doc.row(id("table1.complete_pct", fam), 75.0,
            pct(f.complete, f.collected), f.collected);
    doc.row(id("table1.complete_as_pct", fam), p.complete_as,
            pct(f.complete_as, analyzed), analyzed);
    doc.row(id("table1.missing_as_pct", fam), p.missing_as,
            pct(f.missing_as, analyzed), analyzed);
    doc.row(id("table1.missing_ip_pct", fam), p.missing_ip,
            pct(f.missing_ip, analyzed), analyzed);
    doc.row(id("sec21.as_loops_pct", fam), p.loops,
            pct(f.as_loops, f.complete), f.complete);
  }
}

/// Table 1 ablation: IPv4 AS-loop rates with classic traceroute throughout
/// and with Paris traceroute throughout.
void table1_ablation(Document& doc, const bench::Deployment& d,
                     const bench::Options& opt) {
  for (const double switch_day : {-1.0, 0.0}) {
    probe::TracerouteCampaignConfig cfg;
    cfg.days = std::min(opt.days, 40.0);
    cfg.paris_switch_day = switch_day;  // -1: classic only; 0: Paris only
    cfg.probe_ipv6 = false;
    cfg.seed = opt.seed + 13;
    probe::TracerouteCampaign campaign(*d.net, cfg, d.pairs);
    core::TimelineStore store(d.topo(), d.net->rib(),
                              {0.0, net::kThreeHours});
    bench::note(
        campaign.run([&](const probe::TracerouteRecord& r) { store.add(r); }));
    bench::note(store);
    const auto& f = store.table1().v4;
    doc.row(switch_day < 0 ? "table1.ablation.classic_loops_pct.v4"
                           : "table1.ablation.paris_loops_pct.v4",
            std::nullopt, pct(f.as_loops, f.complete), f.complete);
  }
}

// --- Figure 1 -------------------------------------------------------------

/// Fig 1: the IPv4 timeline with the highest `changes + 20 * diurnal
/// ratio` over the first six months (the paper picked its Hong Kong ->
/// Osaka pair by eye), shown once a day in both families.
void figure1(Document& doc, const bench::Deployment& d,
             const core::TimelineStore& store, const bench::Options& opt) {
  const auto shown_epochs =
      static_cast<std::uint32_t>(std::min(opt.days, 180.0) * 8.0);
  const auto head = [&](const core::TraceTimeline& tl) {
    core::TraceTimeline out;
    out.local_paths = tl.local_paths;
    for (const auto& o : tl.obs) {
      if (o.epoch >= shown_epochs) break;
      out.obs.push_back(o);
    }
    return out;
  };
  const auto diurnal_ratio = [](const core::TraceTimeline& tl) {
    std::vector<double> rtts;
    for (const auto& o : tl.obs) rtts.push_back(o.rtt_ms());
    return stats::diurnal_power_ratio(rtts, 8.0).ratio;
  };
  const auto changes = [&](const core::TraceTimeline& tl) {
    return core::detect_changes(tl, store.interner()).size();
  };

  topology::ServerId src = topology::kInvalidId, dst = topology::kInvalidId;
  double best = -1.0;
  store.for_each([&](topology::ServerId s, topology::ServerId t,
                     net::Family fam, const core::TraceTimeline& tl) {
    if (fam != net::Family::kIPv4) return;
    const auto shown = head(tl);
    if (shown.obs.size() < 100) return;
    const double score = static_cast<double>(changes(shown)) +
                         20.0 * diurnal_ratio(shown);
    if (score > best) {
      best = score;
      src = s;
      dst = t;
    }
  });

  const auto& topo = d.topo();
  const auto city = [&](topology::ServerId s) {
    const auto& c = topo.cities[topo.servers[s].city];
    return c.name + "," + c.country;
  };
  for (const net::Family fam : kFamilies) {
    const core::TraceTimeline* tl =
        src == topology::kInvalidId ? nullptr : store.find(src, dst, fam);
    const auto shown = tl ? head(*tl) : core::TraceTimeline{};
    std::vector<bool> seen(shown.local_paths.size());
    std::size_t unique_paths = 0;
    auto& w = doc.series(id("fig1.timeline", fam), "timeline");
    if (tl) w.key("src").value(city(src)).key("dst").value(city(dst));
    w.key("points").begin_array();
    for (std::size_t i = 0; i < shown.obs.size(); ++i) {
      const auto& o = shown.obs[i];
      if (!seen[o.path]) {
        seen[o.path] = true;
        ++unique_paths;
      }
      if (i % 8 != 0) continue;  // one point a day
      w.begin_array().value(int{o.epoch}).value(o.rtt_ms())
          .value(std::uint64_t{shown.global_path(o)}).end_array();
    }
    w.end_array().key("unique_paths").value(unique_paths).end_object();
    doc.row(id("fig1.changes", fam), std::nullopt,
            static_cast<double>(tl ? changes(shown) : 0), shown.obs.size());
    doc.row(id("fig1.diurnal_ratio", fam), std::nullopt,
            tl ? diurnal_ratio(shown) : 0.0, shown.obs.size());
  }
}

// --- Figures 2-6: one routing study --------------------------------------

void routing_figures(Document& doc, const core::RoutingStudy& study,
                     const core::RoutingStudyConfig& cfg) {
  for (const net::Family fam : kFamilies) {
    const auto& f = study.of(fam);
    const stats::Ecdf unique(f.unique_paths);
    const stats::Ecdf pairs(fam == net::Family::kIPv4 ? study.path_pairs_v4
                                                      : study.path_pairs_v6);
    const stats::Ecdf prevalence(f.popular_prevalence);
    const stats::Ecdf changes(f.changes);
    ecdf_series(doc, id("fig2a.unique_paths", fam), unique);
    ecdf_series(doc, id("fig2b.path_pairs", fam), pairs);
    ecdf_series(doc, id("fig3a.popular_prevalence", fam), prevalence);
    ecdf_series(doc, id("fig3b.changes", fam), changes);
    doc.row(id("fig2a.one_path_pct", fam), paper(fam, 18.0, 16.0),
            100.0 * unique.at(1.0), unique.size());
    doc.row(id("fig2a.p80_unique_paths", fam), paper(fam, 5.0, 6.0),
            unique.quantile(0.8), unique.size());
    doc.row(id("fig2a.ten_plus_paths_pct", fam), paper(fam, 2.0, 3.0),
            100.0 * (1.0 - unique.at(9.0)), unique.size());
    doc.row(id("fig2b.p80_path_pairs", fam), paper(fam, 8.0, 9.0),
            pairs.quantile(0.8), pairs.size());
    doc.row(id("fig3a.p20_prevalence", fam), 0.50, prevalence.quantile(0.2),
            prevalence.size());
    doc.row(id("fig3b.zero_change_pct", fam), paper(fam, 18.0, 16.0),
            100.0 * changes.at(0.0), changes.size());
    doc.row(id("fig3b.p90_changes", fam), 30.0, changes.quantile(0.9),
            changes.size());

    // Figs 4 and 5: penalty vs lifetime. The worst-penalty row's short-
    // and long-lived cells carry the paper's diagonal.
    const stats::Ecdf d10(f.delta_p10_ms), d90(f.delta_p90_ms);
    const stats::Ecdf dsd(f.delta_stddev_ms);
    double short_worst = 0.0, long_worst = 0.0, long_worst90 = 0.0;
    if (!f.delta_p10_ms.empty()) {
      const stats::DecileHeatmap map(f.lifetime_hours_p10, f.delta_p10_ms);
      heatmap_series(doc, id("fig4.heatmap", fam), map);
      short_worst = map.percent(0, map.y_bins() - 1);
      long_worst = map.percent(map.x_bins() - 1, map.y_bins() - 1);
    }
    if (!f.delta_p90_ms.empty()) {
      const stats::DecileHeatmap map(f.lifetime_hours_p90, f.delta_p90_ms);
      heatmap_series(doc, id("fig5.heatmap", fam), map);
      long_worst90 = map.percent(map.x_bins() - 1, map.y_bins() - 1);
    }
    doc.row(id("fig4.p90_delta_p10_ms", fam), paper(fam, 48.3, 59.0),
            d10.quantile(0.9), d10.size());
    doc.row(id("fig4.p80_delta_p10_ms", fam), 25.0, d10.quantile(0.8),
            d10.size());
    doc.row(id("fig4.worst_decile_short_lived_pct", fam), std::nullopt,
            short_worst, d10.size());
    doc.row(id("fig4.worst_decile_long_lived_pct", fam), std::nullopt,
            long_worst, d10.size());
    doc.row(id("fig4.stddev_ge20ms_pct", fam), 20.0,
            100.0 * dsd.tail_at_least(20.0), dsd.size());
    doc.row(id("fig5.p90_delta_p90_ms", fam), 70.0, d90.quantile(0.9),
            d90.size());
    doc.row(id("fig5.worst_decile_long_lived_pct", fam), std::nullopt,
            long_worst90, d90.size());

    // Fig 6: per threshold, the ECDF over timelines of the summed
    // prevalence of sub-optimal paths at least that much worse.
    for (std::size_t k = 0; k < cfg.suboptimal_thresholds_ms.size(); ++k) {
      std::vector<double> sums;
      sums.reserve(f.suboptimal_prevalence.size());
      for (const auto& per_timeline : f.suboptimal_prevalence) {
        sums.push_back(per_timeline[k]);
      }
      const stats::Ecdf ecdf(sums);
      const double threshold = cfg.suboptimal_thresholds_ms[k];
      char name[48];
      std::snprintf(name, sizeof name, "fig6.prevalence_ge%.0fms", threshold);
      ecdf_series(doc, id(name, fam), ecdf, {0.2, 0.3});
      if (threshold == 20.0) {
        doc.row(id("fig6.share_ge30pct_at20ms_pct", fam),
                paper(fam, 10.0, std::nullopt),
                100.0 * ecdf.tail_at_least(0.3), ecdf.size());
      } else if (threshold == 100.0) {
        doc.row(id("fig6.share_ge20pct_at100ms_pct", fam),
                paper(fam, 1.1, std::nullopt),
                100.0 * ecdf.tail_at_least(0.2), ecdf.size());
      }
    }
  }
}

// --- Figure 7 -------------------------------------------------------------

/// Fig 7: a 22-day 30-minute campaign's best-path deltas from every
/// traceroute vs from its 3-hour subsample (1 of every 6 epochs).
void figure7(Document& doc, const bench::Deployment& d,
             const bench::Options& opt, exec::ThreadPool& pool) {
  probe::TracerouteCampaignConfig cfg;
  cfg.start_day = 434.0;  // paper: March 10-31, 2015
  cfg.days = opt.fast ? 8.0 : 22.0;
  cfg.interval_s = net::kThirtyMinutes;
  cfg.paris_switch_day = 0.0;  // Paris era
  cfg.seed = opt.seed + 21;
  probe::TracerouteCampaign campaign(*d.net, cfg, d.pairs);
  core::TimelineStore all(d.topo(), d.net->rib(),
                          {cfg.start_day, net::kThirtyMinutes});
  core::TimelineStore coarse(d.topo(), d.net->rib(),
                             {cfg.start_day, net::kThirtyMinutes});
  bench::note(campaign.run([&](const probe::TracerouteRecord& r) {
    all.add(r);
    const auto rel = r.time.seconds() -
                     static_cast<std::int64_t>(cfg.start_day * 86400.0);
    if (rel % net::kThreeHours == 0) coarse.add(r);
  }));
  bench::note(all);
  bench::note(coarse);

  core::RoutingStudyConfig all_cfg;
  all_cfg.min_observations = 40;
  core::RoutingStudyConfig coarse_cfg;
  coarse_cfg.min_observations = 8;
  const auto study_all = core::run_routing_study(all, all_cfg, &pool);
  const auto study_3h = core::run_routing_study(coarse, coarse_cfg, &pool);
  bench::note(study_all);
  bench::note(study_3h);
  for (const net::Family fam : kFamilies) {
    const stats::Ecdf all10(study_all.of(fam).delta_p10_ms);
    const stats::Ecdf all90(study_all.of(fam).delta_p90_ms);
    const stats::Ecdf c10(study_3h.of(fam).delta_p10_ms);
    const stats::Ecdf c90(study_3h.of(fam).delta_p90_ms);
    ecdf_series(doc, id("fig7.delta_p10_ms.all", fam), all10);
    ecdf_series(doc, id("fig7.delta_p10_ms.3h", fam), c10);
    ecdf_series(doc, id("fig7.delta_p90_ms.all", fam), all90);
    ecdf_series(doc, id("fig7.delta_p90_ms.3h", fam), c90);
    for (const double q : {0.5, 0.9}) {
      doc.row(id(q == 0.5 ? "fig7.p50_delta_p10_3h_over_all"
                          : "fig7.p90_delta_p10_3h_over_all",
                 fam),
              1.0, c10.quantile(q) / all10.quantile(q),
              std::min(c10.size(), all10.size()));
    }
  }
}

// --- Figure 10 ------------------------------------------------------------

/// A BinnedEcdf's plotted points, read back from its TSV rendering.
void binned_ecdf_series(Document& doc, std::string_view series_id,
                        const stats::BinnedEcdf& ecdf, std::size_t pairs) {
  auto& w = doc.series(series_id, "ecdf_curve")
                .key("n").value(ecdf.total())
                .key("pairs").value(pairs)
                .key("points").begin_array();
  const std::string tsv = ecdf.to_tsv(24);
  for (const char* line = tsv.c_str(); *line != '\0';) {
    char* end = nullptr;
    const double x = std::strtod(line, &end);
    const double f = std::strtod(end, &end);
    w.begin_array().value(x).value(f).end_array();
    line = *end == '\n' ? end + 1 : end;
  }
  w.end_array().end_object();
}

void figure10(Document& doc, const bench::Deployment& d,
              const core::TimelineStore& store, exec::ThreadPool& pool) {
  const auto dual = core::run_dualstack_study(store, &pool);
  bench::note(dual);
  binned_ecdf_series(doc, "fig10a.diff_all_ms", dual.diff_all,
                     dual.pairs_matched);
  binned_ecdf_series(doc, "fig10a.diff_same_path_ms", dual.diff_same_path,
                     dual.pairs_matched);
  const auto n = dual.samples_matched;
  doc.row("fig10a.within_10ms_pct", 50.0,
          100.0 * (dual.diff_all.at(10.0) - dual.diff_all.at(-10.0)), n);
  doc.row("fig10a.v6_saves_50ms_pct", 3.7,
          100.0 * dual.diff_all.tail_at_least(50.0), n);
  doc.row("fig10a.v4_saves_50ms_pct", 8.5, 100.0 * dual.diff_all.at(-50.0),
          n);
  doc.row("fig10a.same_path_pct", 21.0, pct(dual.samples_same_path, n), n);

  const auto inflation = core::run_inflation_study(store, d.topo());
  const auto of = [](const core::InflationStudy::Group& g,
                     net::Family fam) -> const std::vector<double>& {
    return fam == net::Family::kIPv4 ? g.v4 : g.v6;
  };
  const auto median = [](const std::vector<double>& v) {
    return v.empty() ? std::nan("") : stats::median(v);
  };
  for (const net::Family fam : kFamilies) {
    for (const auto& [group, g] :
         {std::pair{"all", &inflation.all},
          std::pair{"us_us", &inflation.us_us},
          std::pair{"transcontinental", &inflation.transcontinental}}) {
      const auto& v = of(*g, fam);
      auto& w = doc.series(id(std::string("fig10b.inflation.") + group, fam),
                           "summary")
                    .key("n").value(v.size());
      if (!v.empty()) {
        const auto sorted = stats::sorted(v);
        w.key("median").value(stats::quantile_sorted(sorted, 0.5))
            .key("p90").value(stats::quantile_sorted(sorted, 0.9));
      }
      w.end_object();
    }
    const auto& all = of(inflation.all, fam);
    const auto& us = of(inflation.us_us, fam);
    const auto& tc = of(inflation.transcontinental, fam);
    doc.row(id("fig10b.inflation_median", fam), paper(fam, 3.01, 3.10),
            median(all), all.size());
    doc.row(id("fig10b.us_over_transcontinental", fam), std::nullopt,
            median(us) / median(tc), std::min(us.size(), tc.size()));
  }
}

// --- Sections 5.1-5.3 and Figure 9 ----------------------------------------

/// Sections 5.1-5.3 and Fig 9: the Section 5 chain over a one-week ping
/// survey and three weeks of follow-up traceroutes, then router-ownership
/// inference (fed by the follow-up and a one-day sweep) and link
/// classification.
void section5(Document& doc, const bench::Deployment& d,
              const bench::Options& opt, exec::ThreadPool& pool) {
  const auto rels = bgp::RelationshipTable::from_topology(d.topo());
  core::OwnershipInference ownership(d.net->rib(), rels);
  core::CongestionChainConfig chain_cfg;
  chain_cfg.ping = {417.0, 7.0, opt.seed + 31};
  chain_cfg.followup = {424.0, opt.fast ? 7.0 : 21.0, opt.seed + 37};
  const auto chain = core::run_congestion_chain(
      *d.net, d.pairs, chain_cfg, &pool, bench::ObsSession::active_facts(),
      [&](const probe::TracerouteRecord& r) { ownership.observe_trace(r); });
  const core::CongestionSurvey& survey = chain.survey;
  const core::LocalizeResult& loc = chain.localization;

  // --- 5.1: the ping store, surveyed at three PSD thresholds -----------
  for (const double psd : {stats::kDiurnalRatioThreshold, 0.2, 0.4}) {
    const bool paper_threshold = psd == stats::kDiurnalRatioThreshold;
    core::CongestionSurvey ablation;
    if (!paper_threshold) {
      core::CongestionDetectConfig cfg = chain.survey_config;
      cfg.diurnal_ratio_threshold = psd;
      ablation = core::survey_congestion(chain.pings, cfg, &pool);
      bench::note(ablation);
    }
    const auto& result = paper_threshold ? survey : ablation;
    char consistent_id[48] = "sec51.consistent_pct";
    if (!paper_threshold) {
      std::snprintf(consistent_id, sizeof consistent_id,
                    "sec51.consistent_pct.psd%.1f", psd);
    }
    for (const net::Family fam : kFamilies) {
      const auto& f = fam == net::Family::kIPv4 ? result.v4 : result.v6;
      if (paper_threshold) {
        doc.row(id("sec51.high_variation_pct", fam), paper(fam, 9.5, 4.0),
                pct(f.high_variation, f.pairs_assessed), f.pairs_assessed);
      }
      doc.row(id(consistent_id, fam),
              paper_threshold ? paper(fam, 2.0, 0.6) : std::nullopt,
              pct(f.consistent, f.pairs_assessed), f.pairs_assessed);
    }
  }

  // --- 5.2: ownership and the Pearson-threshold ablation ---------------
  struct RhoSweep {
    double rho;
    std::size_t localized = 0, considered = 0;
  } rho_sweep[] = {{0.4}, {stats::kPearsonThreshold}, {0.6}};
  if (chain.segments) {
    // The paper labels interfaces from *all* traceroute paths, not only
    // the flagged pairs: add one day of the routine full-mesh sweep so the
    // election has the surrounding-path constraints it needs.
    probe::TracerouteCampaignConfig sweep_cfg;
    sweep_cfg.start_day = 424.0;
    sweep_cfg.days = 1.0;
    sweep_cfg.paris_switch_day = 0.0;
    sweep_cfg.seed = opt.seed + 41;
    probe::TracerouteCampaign sweep(*d.net, sweep_cfg, d.pairs);
    bench::note(sweep.run([&](const probe::TracerouteRecord& r) {
      ownership.observe_trace(r);
    }));
    ownership.finalize();
    bench::note(ownership);

    // Localization either side of the paper's Pearson threshold, over the
    // one segment store.
    for (auto& sweep : rho_sweep) {
      if (sweep.rho == stats::kPearsonThreshold) {
        sweep.localized = loc.pairs_localized;
        sweep.considered = loc.pairs_considered;
        continue;
      }
      core::LocalizeConfig cfg = chain.localize_config;
      cfg.rho_threshold = sweep.rho;
      const auto result =
          core::localize_congestion(*chain.segments, d.net->rib(), cfg, &pool);
      bench::note(result);
      sweep.localized = result.pairs_localized;
      sweep.considered = result.pairs_considered;
    }
  }
  for (const auto& sweep : rho_sweep) {
    char row_id[48];
    std::snprintf(row_id, sizeof row_id, "sec53.localized_pairs.rho%.1f",
                  sweep.rho);
    doc.row(row_id, std::nullopt, static_cast<double>(sweep.localized),
            sweep.considered);
  }
  const auto& own = ownership.stats();
  const auto ixps = core::IxpDirectory::from_topology(d.topo());
  const core::LinkClassifier classifier(ownership, rels, ixps);
  const auto study =
      core::build_congestion_study(loc.segments, classifier, d.topo());
  bench::note(study);

  // --- 5.3: link classes -----------------------------------------------
  const std::size_t links =
      study.internal + study.interconnection + study.unknown;
  auto& w = doc.series("sec53.counts", "counts");
  const std::pair<const char*, std::size_t> counts[] = {
      {"flagged_series", survey.flagged.size()},
      {"followup_pairs", chain.followup_pairs.size()},
      {"pairs_considered", loc.pairs_considered},
      {"pairs_static", loc.pairs_static},
      {"pairs_symmetric", loc.pairs_symmetric},
      {"pairs_persistent", loc.pairs_persistent},
      {"pairs_localized", loc.pairs_localized},
      {"ownership_addresses", own.addresses},
      {"ownership_labels_first", own.labels_first},
      {"ownership_labels_noip2as", own.labels_noip2as},
      {"ownership_labels_customer", own.labels_customer},
      {"ownership_labels_provider", own.labels_provider},
      {"ownership_labels_back", own.labels_back},
      {"ownership_labels_forward", own.labels_forward},
      {"ownership_resolved_single", own.resolved_single},
      {"ownership_resolved_plurality", own.resolved_first},
      {"ownership_unresolved", own.unresolved},
      {"links", links},
      {"links_internal", study.internal},
      {"links_interconnection", study.interconnection},
      {"links_unknown", study.unknown},
      {"links_p2p", study.p2p},
      {"links_c2p", study.c2p},
      {"links_public_ixp", study.public_ixp},
      {"links_private_interconnect", study.private_interconnect},
      {"weighted_internal", study.internal_weighted},
      {"weighted_interconnection", study.interconnection_weighted},
  };
  w.key("values").begin_object();
  for (const auto& [name, value] : counts) w.key(name).value(value);
  w.end_object().end_object();

  doc.row("sec52.persistent_pct", 30.0,
          pct(loc.pairs_persistent, loc.pairs_symmetric),
          loc.pairs_symmetric);
  doc.row("sec53.internal_pct", 56.0, pct(study.internal, links), links);
  doc.row("sec53.interconnection_pct", 36.0,
          pct(study.interconnection, links), links);
  doc.row("sec53.unknown_pct", 8.0, pct(study.unknown, links), links);
  const auto weighted =
      study.internal_weighted + study.interconnection_weighted;
  doc.row("sec53.interconnection_weighted_pct", std::nullopt,
          pct(study.interconnection_weighted, weighted), weighted);

  // --- Figure 9: overhead densities, measured and the link model's ------
  const double internal_peak =
      kde_series(doc, "fig9.overhead_ms.internal", study.overhead_internal);
  kde_series(doc, "fig9.overhead_ms.interconnection",
             study.overhead_interconnection);
  kde_series(doc, "fig9.overhead_ms.us_internal",
             study.overhead_us_internal);
  kde_series(doc, "fig9.overhead_ms.us_interconnection",
             study.overhead_us_interconnection);
  // Ground truth the estimator is chasing: the amplitudes of the model's
  // diurnally congested links, by link class.
  const auto& topo = d.topo();
  std::vector<double> gt_internal, gt_interconn, gt_us_internal;
  for (const auto& profile : d.net->congestion().profiles()) {
    if (profile.kind != simnet::CongestionKind::kDiurnal) continue;
    const auto& link = topo.links[profile.link];
    const auto& ca = topo.cities[topo.routers[link.end_a.router].city];
    const auto& cb = topo.cities[topo.routers[link.end_b.router].city];
    const bool us = ca.country == "US" && cb.country == "US";
    if (link.scope == topology::LinkScope::kInternal) {
      gt_internal.push_back(profile.amplitude_ms);
      if (us) gt_us_internal.push_back(profile.amplitude_ms);
    } else {
      gt_interconn.push_back(profile.amplitude_ms);
    }
  }
  const double model_interconn_peak =
      kde_series(doc, "fig9.model_ms.interconnection", gt_interconn);
  const double model_internal_peak =
      kde_series(doc, "fig9.model_ms.internal", gt_internal);
  kde_series(doc, "fig9.model_ms.us_internal", gt_us_internal);
  doc.row("fig9.peak_ms.internal", 25.0, internal_peak,
          study.overhead_internal.size());
  doc.row("fig9.peak_ms.model_interconnection", 25.0, model_interconn_peak,
          gt_interconn.size());
  doc.row("fig9.peak_ms.model_internal", 25.0, model_internal_peak,
          gt_internal.size());
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  const bench::ObsSession obs_session("s2s_figures", opt);
  auto pool = bench::make_pool(opt);
  Document doc(opt);
  {
    auto d = bench::make_deployment(opt);
    doc.deployment("long_term", d);
    {
      const auto store = bench::run_long_term(d, opt);
      table1(doc, store.table1());
      figure1(doc, d, store, opt);
      core::RoutingStudyConfig cfg;
      cfg.min_observations = bench::qualifying_observations(opt);
      const auto study = core::run_routing_study(store, cfg, &pool);
      bench::note(study);
      routing_figures(doc, study, cfg);
      figure10(doc, d, store, pool);
    }
    table1_ablation(doc, d, opt);
    figure7(doc, d, opt, pool);
  }
  // Congestion is a tail phenomenon: Section 5 wants a wide pair sample.
  // It gets a network of its own, because the pairs of a network's first
  // campaign calibrate its outage schedule.
  auto section5_opt = opt;
  if (!opt.fast) section5_opt.pairs = std::max(opt.pairs, 2500);
  const auto d5 = bench::make_deployment(section5_opt);
  doc.deployment("section5", d5);
  section5(doc, d5, opt, pool);

  const std::string json = doc.finish();
  std::fwrite(json.data(), 1, json.size(), stdout);
  return 0;
}
