// live — an open shard growing one 15-minute epoch at a time.
//
// Set-up runs a ping campaign over kLivePairs pairs (four series each:
// both directions, both families), seals a kPrefixDays prefix of it into
// a live::OpenShardWriter shard and loads the shard into an svc::Dataset
// snapshot. Each timed epoch is one write() pass and seal() (the
// feeder's cost), then Dataset::clone_advanced() (the daemon's delta
// pickup) and a kCongestionVerdict through Dataset::execute for every
// live series on the new snapshot. A run appends a fixed number of
// epochs, kEpochsPerSecond per second of the run (and at least
// kMinEpochs): the shard's state grows with every epoch, so a fixed
// count keeps every run's work the same whatever the machine's speed.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.h"
#include "live/open_shard.h"
#include "live/watermark.h"
#include "svc/protocol.h"

namespace s2sbench {
namespace {

using namespace s2s;

constexpr int kSetups = 5;
constexpr std::size_t kLivePairs = 48;
constexpr double kPrefixDays = 28.0;
constexpr double kEpochsPerSecond = 70.0;
constexpr std::size_t kMinEpochs = 200;
/// Every this many epochs (and at the first and last) the snapshot is
/// checked against a fresh Dataset::load of the same shard.
constexpr std::size_t kCheckEvery = 200;
/// Traced runs sample the heap cost of a snapshot this often.
constexpr std::size_t kRssEvery = 50;

struct Inputs {
  svc::DatasetConfig cfg;
  std::unique_ptr<simnet::Network> net;
  std::vector<std::vector<probe::PingRecord>> epochs;
  std::size_t prefix = 0;
  std::uint64_t records = 0;
  std::unique_ptr<live::OpenShardWriter> writer;
  std::shared_ptr<svc::Dataset> snapshot;
  std::vector<std::string> payloads;  ///< one verdict query per series
  double load_s = 0.0;
};

std::size_t epochs_to_append(const Options& opt) {
  return std::max(kMinEpochs,
                  static_cast<std::size_t>(opt.seconds * kEpochsPerSecond));
}

bool set_up(const Options& opt, Inputs& in, std::string& error) {
  in.cfg = deployment_config(opt.workdir + "/live.s2sb");
  {
    const obs::TraceSpan span("simnet.build");
    in.net = std::make_unique<simnet::Network>(svc::dataset_net_config(in.cfg));
  }
  const Pairs pairs = svc::fixture_pairs(in.net->topo(), kLivePairs);
  if (pairs.size() < kLivePairs) {
    error = "deployment has too few dual-stack pairs";
    return false;
  }
  in.prefix = static_cast<std::size_t>(
      kPrefixDays * 86400.0 / static_cast<double>(in.cfg.ping_interval_s));
  probe::PingCampaignConfig pcfg;
  pcfg.start_day = in.cfg.ping_start_day;
  pcfg.days = static_cast<double>(in.prefix + epochs_to_append(opt)) *
              static_cast<double>(in.cfg.ping_interval_s) / 86400.0;
  pcfg.interval_s = in.cfg.ping_interval_s;
  pcfg.seed = opt.seed * 1000003 + 31;
  std::vector<probe::PingRecord> current;
  pcfg.on_epoch = [&](std::size_t) {
    in.records += current.size();
    in.epochs.push_back(std::move(current));
    current.clear();
  };
  {
    const obs::TraceSpan span("probe.campaign");
    probe::PingCampaign campaign(*in.net, pcfg, pairs);
    campaign.run([&](const probe::PingRecord& r) { current.push_back(r); });
  }
  if (in.epochs.size() < in.prefix + epochs_to_append(opt)) {
    error = "campaign produced too few epochs";
    return false;
  }

  live::remove_watermark_file(in.cfg.archive_path);
  in.writer = std::make_unique<live::OpenShardWriter>(in.cfg.archive_path);
  if (!in.writer->ok()) {
    error = in.writer->error();
    return false;
  }
  {
    const obs::TraceSpan span("live.write");
    for (std::size_t e = 0; e < in.prefix; ++e) {
      for (const auto& r : in.epochs[e]) in.writer->write(r);
    }
  }
  {
    const obs::TraceSpan span("live.seal");
    if (!in.writer->seal(static_cast<std::int64_t>(in.prefix) - 1, error)) {
      return false;
    }
  }
  in.snapshot = std::make_shared<svc::Dataset>(in.cfg, in.net.get());
  const auto t0 = Clock::now();
  {
    const obs::TraceSpan span("svc.load");
    if (!in.snapshot->load(error)) return false;
  }
  in.load_s = seconds_since(t0);
  if (!in.snapshot->live()) {
    error = "shard did not load as live";
    return false;
  }
  for (const auto& k : in.snapshot->ping_pairs()) {
    in.payloads.push_back(svc::encode_pair_query({k.src, k.dst, k.family, 0}));
  }
  return true;
}

struct EpochTimes {
  bool traced = false;
  double busy_s = 0.0;      ///< phase busy time when the epoch completed
  double refresh_ms = 0.0;  ///< seal() returned -> every verdict answered
};

struct PhaseResult {
  std::vector<EpochTimes> epochs;
  double busy_s = 0.0;  ///< timed epochs only, checks excluded
  std::uint64_t appended = 0;
  std::uint64_t folded = 0;  ///< records the pickups processed
  std::vector<double> snapshot_mib;
  std::vector<double> load_s;  ///< fresh loads made by the checks

  /// Refresh times of the traced or of the untraced epochs.
  std::vector<double> refresh_ms(bool traced) const {
    std::vector<double> out;
    for (const auto& e : epochs) {
      if (e.traced == traced) out.push_back(e.refresh_ms);
    }
    return out;
  }
  Windows refresh_windows() const {
    Windows out(busy_s);
    for (const auto& e : epochs) out.add(e.busy_s, e.refresh_ms);
    return out;
  }
  /// Median over the phase's one-second windows of each window's
  /// untraced refreshes per second of refresh work: a burst of
  /// interference slows a few windows, not the result.
  double refresh_rate() const {
    std::map<std::size_t, std::pair<std::size_t, double>> per;  // n, ms
    for (const auto& e : epochs) {
      if (e.traced) continue;
      auto& w = per[static_cast<std::size_t>(e.busy_s)];
      ++w.first;
      w.second += e.refresh_ms;
    }
    std::vector<double> rates;
    for (const auto& [w, nm] : per) {
      if (nm.second > 0) rates.push_back(1e3 * nm.first / nm.second);
    }
    return rates.empty() ? 0.0 : median(rates);
  }
};

/// Records the snapshot's incremental state has taken in: folded, or
/// dropped as failed or stale pings.
std::uint64_t processed(const svc::Dataset& ds) {
  return ds.live_state()->records_folded() + ds.live_state()->records_dropped();
}

/// A fresh Dataset::load of the shard must serve what the advanced
/// snapshot serves: same digest, same verdict bytes for every series.
void check_against_fresh_load(const Inputs& in,
                              const std::vector<std::string>& verdicts,
                              Report& report, PhaseResult& out) {
  std::string error;
  svc::Dataset fresh(in.cfg, in.net.get());
  const auto t0 = Clock::now();
  const bool loaded = fresh.load(error);
  out.load_s.push_back(seconds_since(t0));
  report.op(loaded);
  report.check(loaded, "fresh load of the shard failed: " + error);
  if (!loaded) return;
  report.check(fresh.digest() == in.snapshot->digest(),
               "snapshot digest differs from a fresh load");
  for (std::size_t i = 0; i < in.payloads.size(); ++i) {
    const auto r = fresh.execute(svc::MsgType::kCongestionVerdict,
                                 in.payloads[i], nullptr);
    report.check(r.type == svc::MsgType::kOk && r.payload == verdicts[i],
                 "verdict differs from a fresh load");
  }
}

/// Appends `count` epochs after the prefix. With `trace`, every other
/// epoch is traced, so the traced and untraced epochs that the overhead
/// figure compares see the same shard sizes.
PhaseResult run_phase(Inputs& in, std::size_t count, bool trace,
                      Report& report) {
  PhaseResult out;
  std::vector<std::string> verdicts(in.payloads.size());
  std::string error;
  auto& collector = obs::TraceCollector::global();
  const std::size_t end = std::min(in.epochs.size(), in.prefix + count);
  for (std::size_t e = in.prefix; e < end; ++e) {
    EpochTimes t;
    t.traced = trace && out.epochs.size() % 2 == 1;
    collector.set_enabled(t.traced);
    const bool sample = t.traced && out.epochs.size() % kRssEvery == 1;
    const double rss0 = sample ? anon_rss_mib() : 0.0;

    const auto t0 = Clock::now();
    {
      const obs::TraceSpan span("live.write");
      for (const auto& r : in.epochs[e]) in.writer->write(r);
    }
    bool sealed = false;
    {
      const obs::TraceSpan span("live.seal");
      sealed = in.writer->seal(static_cast<std::int64_t>(e), error);
    }
    const auto t2 = Clock::now();
    report.op(sealed);
    std::shared_ptr<svc::Dataset> next;
    {
      const obs::TraceSpan span("svc.clone_advanced");
      next = in.snapshot->clone_advanced(error);
    }
    report.op(next != nullptr);
    if (!next) {
      std::fprintf(stderr, "s2sbench: pickup at epoch %zu failed: %s\n", e,
                   error.c_str());
      break;
    }
    {
      const obs::TraceSpan span("svc.verdicts");
      for (std::size_t i = 0; i < in.payloads.size(); ++i) {
        auto r = next->execute(svc::MsgType::kCongestionVerdict,
                               in.payloads[i], nullptr);
        report.op(r.type == svc::MsgType::kOk);
        verdicts[i] = std::move(r.payload);
      }
    }
    const auto t4 = Clock::now();

    t.refresh_ms = ms_between(t2, t4);
    out.busy_s += ms_between(t0, t4) / 1e3;
    t.busy_s = out.busy_s;
    out.appended += in.epochs[e].size();
    out.folded += processed(*next) - processed(*in.snapshot);
    if (sample) out.snapshot_mib.push_back(anon_rss_mib() - rss0);
    in.snapshot = std::move(next);

    const bool last = e + 1 == end;
    if (out.epochs.empty() || (out.epochs.size() + 1) % kCheckEvery == 0 ||
        last) {
      check_against_fresh_load(in, verdicts, report, out);
    }
    out.epochs.push_back(t);
  }
  return out;
}

}  // namespace

int run_live(const Options& opt, Report& report) {
  // Members are destroyed snapshot and writer first, network last.
  std::unique_ptr<Inputs> inputs;
  std::string error;
  std::vector<double> setup_s, load_s;
  const int setups = opt.trace ? 1 : kSetups;
  if (opt.trace) set_tracing(true);
  for (int i = 0; i < setups; ++i) {
    inputs.reset();
    inputs = std::make_unique<Inputs>();
    const auto t0 = Clock::now();
    if (!set_up(opt, *inputs, error)) {
      std::fprintf(stderr, "s2sbench: live set-up: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(seconds_since(t0));
    load_s.push_back(inputs->load_s);
  }
  Inputs& in = *inputs;
  const auto setup_spans = span_stats(obs::TraceCollector::global().events());

  report.fact("pool_width", "0");
  report.fact("connections", "0");
  report.fact("series", std::to_string(in.payloads.size()));
  report.fact("prefix_epochs", std::to_string(in.prefix));
  report.fact("campaign_records", std::to_string(in.records));
  report.fact("prefix_bytes",
              std::to_string(in.writer->watermark().sealed_bytes));

  const std::size_t count = epochs_to_append(opt);
  set_tracing(false);
  const PhaseResult phase = run_phase(in, count, opt.trace, report);
  const auto spans = span_stats(obs::TraceCollector::global().events());
  report.check(phase.epochs.size() == count,
               "the shard did not take every epoch");
  report.fact("epochs", std::to_string(phase.epochs.size()));
  report.fact("archive_bytes",
              std::to_string(in.writer->watermark().sealed_bytes));

  load_s.insert(load_s.end(), phase.load_s.begin(), phase.load_s.end());
  const auto refresh = phase.refresh_ms(false);
  if (!opt.trace) {
    const Windows windows = phase.refresh_windows();
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("load_s", median(load_s), "s");
    report.metric("op_p50_ms", windows.quantile(0.5), "ms");
    // Snapshots the daemon refreshes per second of refresh work; the
    // feeder's write and fsync costs are live.write_us and live.seal_ms.
    report.metric("ops_per_s", phase.refresh_rate(), "1/s");
    return 0;
  }

  auto total = [&](const char* n) {
    const auto it = setup_spans.find(n);
    return it == setup_spans.end() ? 0.0 : it->second.total_s();
  };
  auto median_of = [&](const char* n) {
    const auto it = spans.find(n);
    return it == spans.end() ? 0.0 : it->second.median_us();
  };
  report.metric("simnet.build_s", total("simnet.build"), "s");
  const double campaign_s = total("probe.campaign");
  report.metric("probe.campaign_s", campaign_s, "s");
  report.metric("probe.records_per_s",
                campaign_s > 0 ? static_cast<double>(in.records) / campaign_s
                               : 0.0,
                "1/s");
  report.metric("svc.clone_advanced_ms", median_of("svc.clone_advanced") / 1e3,
                "ms");
  report.metric("svc.verdict_us",
                median_of("svc.verdicts") /
                    static_cast<double>(in.payloads.size()),
                "us");
  report.metric("live.fold_ratio",
                phase.appended > 0 ? static_cast<double>(phase.folded) /
                                         static_cast<double>(phase.appended)
                                   : 0.0,
                "ratio");
  report.metric("svc.snapshot_mib", median(phase.snapshot_mib), "MiB");
  report.metric("live.write_us", median_of("live.write"), "us");
  report.metric("live.seal_ms", median_of("live.seal") / 1e3, "ms");
  // The refresh tail, from the untraced epochs (unbounded, see serve's
  // svc.request_p99_us).
  report.metric("live.refresh_p90_ms", quantile(refresh, 0.9), "ms");
  report.metric(
      "obs.trace_overhead_pct",
      100.0 * (median(phase.refresh_ms(true)) / median(refresh) - 1.0), "%");
  return 0;
}

}  // namespace s2sbench
