// analyze — batch reproduction of the paper's figures from an archive.
//
// Set-up builds the deployment, runs the traceroute and ping campaigns
// into one `.s2sb` archive, surveys the pings for congested pairs and
// writes their follow-up traceroute campaign (plus the one-day mesh
// sweep the ownership election needs) beside it. The timed phase loads
// the archive with svc::Dataset::load and runs the study set — routing
// (Figs 2-6), dual-stack (Fig 10), the §5.1 congestion survey and the
// §5.2 localization and link classification — at pool width
// min(4, nproc), over and over until the run's seconds are spent. The
// workload's op is one load plus one study set.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "bgp/relationships.h"
#include "core/congestion_detect.h"
#include "core/congestion_study.h"
#include "core/dualstack.h"
#include "core/link_classify.h"
#include "core/localize.h"
#include "core/ownership.h"
#include "core/ping_series.h"
#include "core/routing_study.h"
#include "core/segment_series.h"
#include "core/timeline.h"
#include "exec/pool.h"
#include "io/binrec.h"
#include "obs/metrics.h"

namespace s2sbench {
namespace {

using namespace s2s;

constexpr double kFollowupDays = 4.0;
constexpr int kSetups = 3;

struct Inputs {
  svc::DatasetConfig cfg;
  std::unique_ptr<simnet::Network> net;
  ArchiveResult archive;
  std::string followup_path;  ///< 30-minute traceroutes, flagged pairs
  std::string sweep_path;     ///< one day of the full-mesh sweep
  double followup_start_day = 0.0;
  std::size_t followup_epochs = 0;
  std::size_t followup_pairs = 0;
  std::uint64_t followup_records = 0;
};

core::CongestionDetectConfig survey_config(const svc::DatasetConfig& cfg,
                                           std::size_t epochs) {
  core::CongestionDetectConfig detect = cfg.detect;
  detect.min_samples = static_cast<std::size_t>(cfg.detect_min_fraction *
                                                static_cast<double>(epochs));
  return detect;
}

std::size_t ping_epochs(const svc::DatasetConfig& cfg) {
  return static_cast<std::size_t>(kBatchArchive.ping_days * 86400.0 /
                                  static_cast<double>(cfg.ping_interval_s));
}

bool write_traces(simnet::Network& net,
                  const probe::TracerouteCampaignConfig& tcfg,
                  const Pairs& pairs, const std::string& path,
                  std::uint64_t& records, std::string& error) {
  std::uint64_t bytes = 0;
  std::size_t blocks = 0;
  return commit_archive(
      path,
      [&](io::BinRecordWriter& writer) {
        records += write_traceroutes(net, tcfg, pairs, writer);
      },
      bytes, blocks, error);
}

bool set_up(const Options& opt, Inputs& in, std::string& error) {
  in.cfg = deployment_config(opt.workdir + "/analyze.s2sb");
  {
    const obs::TraceSpan span("simnet.build");
    in.net = std::make_unique<simnet::Network>(svc::dataset_net_config(in.cfg));
  }
  const std::size_t epochs = ping_epochs(in.cfg);
  core::PingSeriesStore pings(in.cfg.ping_start_day, in.cfg.ping_interval_s,
                              epochs);
  if (!write_archive(*in.net, in.cfg, kBatchArchive, opt.seed, in.cfg.archive_path,
                     in.archive, error,
                     [&](const probe::PingRecord& r) { pings.add(r); })) {
    return false;
  }

  // §5.2 follow-up: 30-minute traceroutes over the pairs the survey
  // flags, the way bench/congestion_pipeline.h runs it.
  const auto survey =
      core::survey_congestion(pings, survey_config(in.cfg, epochs));
  Pairs flagged;
  for (const auto& f : survey.flagged) {
    flagged.emplace_back(std::min(f.src, f.dst), std::max(f.src, f.dst));
  }
  std::sort(flagged.begin(), flagged.end());
  flagged.erase(std::unique(flagged.begin(), flagged.end()), flagged.end());
  in.followup_pairs = flagged.size();
  in.followup_start_day = in.cfg.ping_start_day + kBatchArchive.ping_days;
  in.followup_path = opt.workdir + "/analyze_followup.s2sb";
  in.sweep_path = opt.workdir + "/analyze_sweep.s2sb";
  in.followup_records = 0;

  probe::TracerouteCampaignConfig follow;
  follow.start_day = in.followup_start_day;
  follow.days = kFollowupDays;
  follow.interval_s = net::kThirtyMinutes;
  follow.paris_switch_day = 0.0;
  follow.seed = opt.seed * 1000003 + 37;
  // Denser series on the diurnal links, as in the paper's follow-up.
  follow.traceroute.stop_early_prob = 0.1;
  in.followup_epochs = static_cast<std::size_t>(
      kFollowupDays * 86400.0 / static_cast<double>(net::kThirtyMinutes));
  if (!write_traces(*in.net, follow, flagged, in.followup_path,
                    in.followup_records, error)) {
    return false;
  }

  probe::TracerouteCampaignConfig sweep;
  sweep.start_day = in.followup_start_day;
  sweep.days = 1.0;
  sweep.paris_switch_day = 0.0;
  sweep.seed = opt.seed * 1000003 + 41;
  return write_traces(*in.net, sweep, in.archive.ping_pairs, in.sweep_path,
                      in.followup_records, error);
}

void digest_routing(Digest& d, const core::RoutingStudy& study) {
  for (const auto* fam : {&study.v4, &study.v6}) {
    d.count("timelines", fam->timelines);
    d.values("unique_paths", fam->unique_paths);
    d.values("changes", fam->changes);
    d.values("popular_prevalence", fam->popular_prevalence);
    for (const auto& row : fam->suboptimal_prevalence) {
      d.values("suboptimal", row);
    }
    d.values("lifetime_hours_p10", fam->lifetime_hours_p10);
    d.values("delta_p10_ms", fam->delta_p10_ms);
    d.values("lifetime_hours_p90", fam->lifetime_hours_p90);
    d.values("delta_p90_ms", fam->delta_p90_ms);
    d.values("delta_stddev_ms", fam->delta_stddev_ms);
  }
  d.values("path_pairs_v4", study.path_pairs_v4);
  d.values("path_pairs_v6", study.path_pairs_v6);
}

void digest_dualstack(Digest& d, const core::DualStackStudy& study) {
  d.count("pairs_matched", study.pairs_matched);
  d.count("samples_matched", study.samples_matched);
  d.count("samples_same_path", study.samples_same_path);
  for (const double q : {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    d.value(study.diff_all.empty() ? 0.0 : study.diff_all.quantile(q));
    d.value(study.diff_same_path.empty() ? 0.0
                                         : study.diff_same_path.quantile(q));
  }
  d.values("pair_median_diff", study.pair_median_diff);
}

void digest_survey(Digest& d, const core::CongestionSurvey& survey) {
  for (const auto* fam : {&survey.v4, &survey.v6}) {
    d.count("pairs_total", fam->pairs_total);
    d.count("pairs_assessed", fam->pairs_assessed);
    d.count("high_variation", fam->high_variation);
    d.count("consistent", fam->consistent);
  }
  for (const auto& f : survey.flagged) {
    d.count("src", f.src);
    d.count("dst", f.dst);
    d.count("family", f.family == net::Family::kIPv6 ? 6 : 4);
    d.value(f.verdict.variation_ms);
    d.value(f.verdict.diurnal_ratio);
  }
}

void digest_localize(Digest& d, const core::LocalizeResult& loc,
                     const core::CongestionStudy& study) {
  d.count("pairs_considered", loc.pairs_considered);
  d.count("pairs_localized", loc.pairs_localized);
  for (const auto& s : loc.segments) {
    d.count("src", s.src);
    d.count("dst", s.dst);
    d.count("segment", s.segment_index);
    d.line(s.near_addr ? s.near_addr->to_string() : "-");
    d.line(s.far_addr ? s.far_addr->to_string() : "-");
    d.value(s.rho);
    d.value(s.diurnal_ratio);
    d.value(s.overhead_ms);
  }
  d.count("links", study.links.size());
  d.count("internal", study.internal);
  d.count("interconnection", study.interconnection);
  d.count("unknown", study.unknown);
  d.count("p2p", study.p2p);
  d.count("c2p", study.c2p);
  d.count("public_ixp", study.public_ixp);
  d.count("private_interconnect", study.private_interconnect);
}

/// §5.2 over the follow-up archive: segment series and the ownership
/// election are built from the follow-up and sweep traceroutes, then the
/// flagged pairs are localized and their links classified.
void localize(const Inputs& in, exec::ThreadPool& pool, Digest& d) {
  const simnet::Network& net = *in.net;
  core::SegmentSeriesStore segments(in.followup_start_day,
                                    net::kThirtyMinutes, in.followup_epochs);
  const auto rels = bgp::RelationshipTable::from_topology(net.topo());
  core::OwnershipInference ownership(net.rib(), rels);
  std::vector<net::IPAddr> run;
  auto observe = [&](const probe::TracerouteRecord& r) {
    if (!r.complete) return;
    run.clear();
    for (const auto& hop : r.hops) {
      if (hop.addr) {
        run.push_back(*hop.addr);
        continue;
      }
      if (run.size() >= 2) ownership.observe_path(run);
      run.clear();
    }
    if (run.size() >= 2) ownership.observe_path(run);
  };
  const auto no_pings = [](const probe::PingRecord&) {};
  io::ingest_record_file(
      in.followup_path,
      [&](const probe::TracerouteRecord& r) {
        segments.add(r);
        observe(r);
      },
      no_pings);
  io::ingest_record_file(in.sweep_path, observe, no_pings);
  ownership.finalize();

  core::LocalizeConfig cfg;
  cfg.min_traces = static_cast<std::size_t>(
      0.3 * static_cast<double>(in.followup_epochs));
  const auto loc = core::localize_congestion(segments, net.rib(), cfg, &pool);
  const auto ixps = core::IxpDirectory::from_topology(net.topo());
  const core::LinkClassifier classifier(ownership, rels, ixps);
  const auto study =
      core::build_congestion_study(loc.segments, classifier, net.topo());
  digest_localize(d, loc, study);
}

/// The full study set over a loaded dataset; returns its digest.
std::string run_studies(const svc::Dataset& ds, const Inputs& in,
                        exec::ThreadPool& pool) {
  Digest d;
  {
    const obs::TraceSpan span("core.routing_study");
    digest_routing(d, core::run_routing_study(ds.timelines(), in.cfg.routing,
                                              &pool));
  }
  {
    const obs::TraceSpan span("core.dualstack");
    digest_dualstack(d, core::run_dualstack_study(ds.timelines(), &pool));
  }
  {
    const obs::TraceSpan span("core.survey");
    digest_survey(d, core::survey_congestion(
                         ds.pings(), survey_config(in.cfg, ds.ping_epochs()),
                         &pool));
  }
  {
    const obs::TraceSpan span("core.localize");
    localize(in, pool, d);
  }
  return d.hex();
}

struct Iteration {
  bool traced = false;
  double load_s = 0.0;
  double study_ms = 0.0;
  std::string digest;
};

/// One timed unit: load the archive into a fresh dataset, run the study
/// set. The dataset is returned so the caller can keep the last one.
bool iterate(const Inputs& in, exec::ThreadPool& pool, Report& report,
             Iteration& it, std::unique_ptr<svc::Dataset>& ds) {
  std::string error;
  ds.reset();
  ds = std::make_unique<svc::Dataset>(in.cfg, in.net.get());
  const auto t0 = Clock::now();
  bool loaded = false;
  {
    const obs::TraceSpan span("svc.load");
    loaded = ds->load(error);
  }
  const auto t1 = Clock::now();
  report.op(loaded);
  if (!loaded) {
    std::fprintf(stderr, "s2sbench: load failed: %s\n", error.c_str());
    return false;
  }
  it.digest = run_studies(*ds, in, pool);
  const auto t2 = Clock::now();
  report.op(true);
  it.load_s = ms_between(t0, t1) / 1e3;
  it.study_ms = ms_between(t1, t2);
  return true;
}

std::uint64_t exec_tasks() {
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto it = snap.counters.find("s2s.exec.tasks");
  return it == snap.counters.end() ? 0 : it->second;
}

}  // namespace

int run_analyze(const Options& opt, Report& report) {
  // Load threads stay within the machine: min(4, hardware threads).
  const unsigned width =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  Inputs in;
  std::string error;
  std::vector<double> setup_s;
  const int setups = opt.trace ? 1 : kSetups;
  if (opt.trace) set_tracing(true);
  for (int i = 0; i < setups; ++i) {
    in = Inputs{};
    const auto t0 = Clock::now();
    if (!set_up(opt, in, error)) {
      std::fprintf(stderr, "s2sbench: analyze set-up: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(seconds_since(t0));
  }
  const auto setup_spans =
      span_stats(s2s::obs::TraceCollector::global().events());

  const std::uint64_t records =
      in.archive.trace_records + in.archive.ping_records;
  report.fact("pool_width", std::to_string(width));
  report.fact("connections", "0");
  report.fact("archive_bytes", std::to_string(in.archive.bytes));
  report.fact("trace_records", std::to_string(in.archive.trace_records));
  report.fact("ping_records", std::to_string(in.archive.ping_records));
  report.fact("followup_pairs", std::to_string(in.followup_pairs));
  report.fact("followup_records", std::to_string(in.followup_records));

  exec::ThreadPool pool(width);
  std::unique_ptr<svc::Dataset> ds;
  std::vector<Iteration> iterations;
  // Traced runs trace every other iteration, so the traced and untraced
  // iterations that the overhead figure compares share the same moments.
  auto& collector = s2s::obs::TraceCollector::global();
  collector.clear();
  const auto t0 = Clock::now();
  while (seconds_since(t0) < opt.seconds ||
         iterations.size() < (opt.trace ? 2u : 1u)) {
    Iteration it;
    it.traced = opt.trace && iterations.size() % 2 == 1;
    collector.set_enabled(it.traced);
    if (!iterate(in, pool, report, it, ds)) return 1;
    iterations.push_back(it);
  }
  const double wall = seconds_since(t0);
  collector.set_enabled(opt.trace);
  const auto timed_spans = span_stats(collector.events());

  // Correctness: every load gives the same study digest, and the serial
  // path (width 1) gives byte-identical results.
  for (const auto& it : iterations) {
    report.check(it.digest == iterations.front().digest,
                 "study digest changed between loads");
  }
  exec::ThreadPool serial(1);
  const auto s0 = Clock::now();
  std::string serial_digest;
  serial_digest = run_studies(*ds, in, serial);
  const double serial_ms = ms_between(s0, Clock::now());
  report.op(true);
  report.check(serial_digest == iterations.front().digest,
               "study digest differs between width 1 and width " +
                   std::to_string(width));
  report.fact("study_digest", iterations.front().digest);
  report.fact("iterations", std::to_string(iterations.size()));

  // Untraced iterations only (all of them in an end-to-end run).
  std::vector<double> load_s, study_ms, op_ms, traced_ms;
  for (const auto& it : iterations) {
    const double op = it.load_s * 1e3 + it.study_ms;
    if (it.traced) {
      traced_ms.push_back(op);
      continue;
    }
    load_s.push_back(it.load_s);
    study_ms.push_back(it.study_ms);
    op_ms.push_back(op);
  }

  if (!opt.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("load_s", median(load_s), "s");
    // The op is the whole reproduction, load plus studies: the study
    // set alone (~0.2 s) spread too widely between runs to carry a bound;
    // the traced run reports each study.
    report.metric("op_p50_ms", median(op_ms), "ms");
    report.metric("ops_per_s",
                  static_cast<double>(iterations.size()) / wall, "1/s");
    return 0;
  }

  // --- per-layer attribution (traced run) ------------------------------
  auto total = [](const std::map<std::string, SpanStat>& m, const char* n) {
    const auto it = m.find(n);
    return it == m.end() ? 0.0 : it->second.total_s();
  };
  auto per = [&](const char* n) {
    return total(timed_spans, n) / static_cast<double>(traced_ms.size());
  };
  const double archive_mib = static_cast<double>(in.archive.bytes) / (1 << 20);
  const double encode_s = total(setup_spans, "io.encode");
  const double campaign_s = total(setup_spans, "probe.campaign") - encode_s;
  const double probe_records =
      static_cast<double>(records + in.followup_records);
  report.metric("simnet.build_s", total(setup_spans, "simnet.build"), "s");
  report.metric("probe.campaign_s", campaign_s, "s");
  report.metric("probe.records_per_s",
                campaign_s > 0 ? probe_records / campaign_s : 0.0, "1/s");
  report.metric("io.encode_s", encode_s, "s");
  report.metric("io.archive_mib", archive_mib, "MiB");

  // Decode alone (no-op callbacks), then the same decode feeding the
  // store add calls the way Dataset::load's ingest pass does.
  set_tracing(true);
  io::IngestResult decoded;
  {
    const obs::TraceSpan span("io.decode");
    decoded = io::ingest_record_file(
        in.cfg.archive_path, [](const probe::TracerouteRecord&) {},
        [](const probe::PingRecord&) {});
  }
  {
    const obs::TraceSpan span("core.ingest");
    core::TimelineStore timelines(
        in.net->topo(), in.net->rib(),
        core::TimelineStoreConfig{in.cfg.trace_start_day,
                                  in.cfg.trace_interval_s});
    core::PingSeriesStore pings(in.cfg.ping_start_day, in.cfg.ping_interval_s,
                                ds->ping_epochs());
    io::ingest_record_file(
        in.cfg.archive_path,
        [&](const probe::TracerouteRecord& r) { timelines.add(r); },
        [&](const probe::PingRecord& r) { pings.add(r); });
  }
  const auto ingest_spans =
      span_stats(s2s::obs::TraceCollector::global().events());
  const double decode_s = total(ingest_spans, "io.decode");
  const double ingest_s = total(ingest_spans, "core.ingest") - decode_s;
  report.check(decoded.ok && decoded.records == records,
               "decode-only pass read a different record count");
  report.metric("io.decode_s", decode_s, "s");
  report.metric("io.decode_mib_per_s",
                decode_s > 0 ? archive_mib / decode_s : 0.0, "MiB/s");
  report.metric("io.blocks", static_cast<double>(decoded.blocks_read),
                "count");
  report.metric("core.ingest_s", ingest_s, "s");
  report.metric("core.ingest_records_per_s",
                ingest_s > 0 ? static_cast<double>(records) / ingest_s : 0.0,
                "1/s");

  // Heap retained by one loaded dataset.
  ds.reset();
  const double rss0 = anon_rss_mib();
  ds = std::make_unique<svc::Dataset>(in.cfg, in.net.get());
  report.op(ds->load(error));
  report.metric("core.stores_mib", anon_rss_mib() - rss0, "MiB");

  report.metric("core.routing_study_s", per("core.routing_study"), "s");
  report.metric("core.dualstack_s", per("core.dualstack"), "s");
  report.metric("core.survey_s", per("core.survey"), "s");
  report.metric("core.localize_s", per("core.localize"), "s");
  report.metric("exec.study_speedup", serial_ms / median(study_ms), "x");
  const std::uint64_t tasks0 = exec_tasks();
  run_studies(*ds, in, pool);
  report.op(true);
  report.metric("exec.tasks", static_cast<double>(exec_tasks() - tasks0),
                "count");

  report.metric("obs.trace_overhead_pct",
                100.0 * (median(traced_ms) / median(op_ms) - 1.0), "%");
  return 0;
}

}  // namespace s2sbench
