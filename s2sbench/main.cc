// s2sbench — the s2s pipeline benchmark program.
//
//   s2sbench --workload analyze|serve|live --seed N --seconds S
//            --trace 0|1 --workdir DIR
//
// Prints "fact key=value" lines describing the machine and the inputs,
// then one JSON line {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set (see BENCHMARK.json at the repository root).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "bench.h"
#include "io/binrec.h"
#include "probe/campaign.h"

namespace s2sbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

// Histogram buckets: [kLow * kGrowth^i, kLow * kGrowth^(i+1)), covering
// 1e-4 .. 1e5 in the caller's unit (ms here: 100 ns to 100 s).
constexpr double kLow = 1e-4;
constexpr double kGrowth = 1.01;
const std::size_t kBuckets = static_cast<std::size_t>(
    std::ceil(std::log(1e5 / kLow) / std::log(kGrowth)));

}  // namespace

Windows::Windows(double span_s)
    : windows_(std::max<std::size_t>(
          1, static_cast<std::size_t>(std::floor(span_s)))) {
  for (auto& w : windows_) w.buckets.assign(kBuckets, 0);
}

void Windows::add(double at_s, double value) {
  const auto w = static_cast<std::size_t>(std::max(0.0, at_s));
  if (w >= windows_.size()) return;
  const double b = std::floor(std::log(std::max(value, kLow) / kLow) /
                              std::log(kGrowth));
  windows_[w].buckets[std::min(kBuckets - 1, static_cast<std::size_t>(b))]++;
  windows_[w].n++;
}

void Windows::merge(const Windows& other) {
  for (std::size_t w = 0; w < windows_.size() && w < other.windows_.size();
       ++w) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      windows_[w].buckets[b] += other.windows_[w].buckets[b];
    }
    windows_[w].n += other.windows_[w].n;
  }
}

double Windows::Histogram::quantile(double q) const {
  if (n == 0) return 0.0;
  // Rank as in the type-7 quantile, placed inside its bucket by linear
  // interpolation on the log scale.
  const double rank = q * static_cast<double>(n - 1);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    if (rank < static_cast<double>(below + buckets[b])) {
      const double frac =
          std::min(1.0, (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(buckets[b]));
      return kLow * std::pow(kGrowth, static_cast<double>(b) + frac);
    }
    below += buckets[b];
  }
  return kLow * std::pow(kGrowth, static_cast<double>(buckets.size()));
}

double Windows::quantile(double q) const {
  std::vector<double> per;
  for (const auto& w : windows_) per.push_back(w.quantile(q));
  return median(per);
}

double Windows::rate() const {
  std::vector<double> per;
  for (const auto& w : windows_) per.push_back(static_cast<double>(w.n));
  return median(per);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double anon_rss_mib() {
  malloc_trim(0);
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::strtod(line.c_str() + 8, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "s2sbench: check failed: %s\n", what.c_str());
}

bool Report::print(const std::vector<MetricDef>& wanted, bool fill_missing) {
  for (const auto& [name, vu] : metrics_) {
    const bool known =
        std::any_of(wanted.begin(), wanted.end(),
                    [&](const MetricDef& m) { return name == m.name; });
    if (!known) {
      std::fprintf(stderr, "s2sbench: metric %s is not in the set\n",
                   name.c_str());
      return false;
    }
  }
  std::string missing;
  for (const MetricDef& m : wanted) {
    if (metrics_.count(m.name) != 0) continue;
    if (!fill_missing) {
      std::fprintf(stderr, "s2sbench: metric %s was not measured\n", m.name);
      return false;
    }
    // A layer this workload does not exercise reads 0.
    metrics_[m.name] = {0.0, m.unit};
    missing += missing.empty() ? "" : ",";
    missing += m.name;
  }
  if (!missing.empty()) fact("not_exercised", missing);
  for (const auto& [key, value] : facts_) {
    std::printf("fact %s=%s\n", key.c_str(), value.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return true;
}

double SpanStat::total_s() const {
  double sum = 0.0;
  for (const double d : dur_us) sum += d;
  return sum / 1e6;
}

std::map<std::string, SpanStat> span_stats(
    const std::vector<s2s::obs::SpanEvent>& events) {
  std::map<std::string, SpanStat> out;
  for (const auto& e : events) {
    out[e.name].dur_us.push_back(static_cast<double>(e.dur_us));
  }
  return out;
}

void set_tracing(bool on) {
  auto& collector = s2s::obs::TraceCollector::global();
  collector.clear();
  collector.set_enabled(on);
}

s2s::svc::DatasetConfig deployment_config(const std::string& archive_path) {
  s2s::svc::DatasetConfig cfg;
  cfg.archive_path = archive_path;
  cfg.server_count = 40;
  return cfg;
}

namespace {

/// Runs a campaign with its records handed over one epoch at a time and
/// written in one pass per epoch, so probe and io time stay apart.
template <typename Record, typename Campaign, typename Config>
std::uint64_t stream_campaign(s2s::simnet::Network& net, Config cfg,
                              const Pairs& pairs,
                              s2s::io::BinRecordWriter& writer,
                              const std::function<void(const Record&)>& also) {
  std::vector<Record> batch;
  std::uint64_t records = 0;
  cfg.on_epoch = [&](std::size_t) {
    {
      const s2s::obs::TraceSpan span("io.encode");
      for (const Record& r : batch) writer.write(r);
    }
    if (also) {
      for (const Record& r : batch) also(r);
    }
    records += batch.size();
    batch.clear();
  };
  const s2s::obs::TraceSpan span("probe.campaign");
  Campaign campaign(net, cfg, pairs);
  campaign.run([&](const Record& r) { batch.push_back(r); });
  return records;
}

}  // namespace

std::uint64_t write_traceroutes(s2s::simnet::Network& net,
                                const s2s::probe::TracerouteCampaignConfig& cfg,
                                const Pairs& pairs,
                                s2s::io::BinRecordWriter& writer) {
  return stream_campaign<s2s::probe::TracerouteRecord,
                         s2s::probe::TracerouteCampaign>(net, cfg, pairs,
                                                         writer, {});
}

std::uint64_t write_pings(s2s::simnet::Network& net,
                          const s2s::probe::PingCampaignConfig& cfg,
                          const Pairs& pairs, s2s::io::BinRecordWriter& writer,
                          const s2s::probe::PingSink& also) {
  return stream_campaign<s2s::probe::PingRecord, s2s::probe::PingCampaign>(
      net, cfg, pairs, writer, also);
}

bool commit_archive(const std::string& path,
                    const std::function<void(s2s::io::BinRecordWriter&)>& fill,
                    std::uint64_t& bytes, std::size_t& blocks,
                    std::string& error) {
  s2s::io::AtomicArchiveWriter file(path);
  if (!file.ok()) {
    error = file.error();
    return false;
  }
  s2s::io::BinRecordWriter writer(file.stream());
  fill(writer);
  writer.finish();
  blocks = writer.blocks_written();
  if (!file.commit(error)) return false;
  std::error_code ec;
  bytes = std::filesystem::file_size(path, ec);
  if (ec) {
    error = "cannot stat " + path + ": " + ec.message();
    return false;
  }
  return true;
}

bool write_archive(s2s::simnet::Network& net,
                   const s2s::svc::DatasetConfig& cfg, const ArchiveSpec& spec,
                   std::uint64_t seed, const std::string& path,
                   ArchiveResult& out, std::string& error,
                   const s2s::probe::PingSink& on_ping) {
  using namespace s2s;
  out.ping_pairs = svc::fixture_pairs(net.topo(), spec.ping_pairs);
  if (out.ping_pairs.size() < spec.ping_pairs) {
    error = "deployment has too few dual-stack pairs";
    return false;
  }
  const Pairs trace_pairs(out.ping_pairs.begin(),
                          out.ping_pairs.begin() +
                              static_cast<std::ptrdiff_t>(spec.trace_pairs));

  probe::TracerouteCampaignConfig tcfg;
  tcfg.start_day = cfg.trace_start_day;
  tcfg.days = spec.trace_days;
  tcfg.interval_s = cfg.trace_interval_s;
  tcfg.paris_switch_day = cfg.trace_start_day + spec.trace_days / 2.0;
  tcfg.seed = seed * 1000003 + 11;
  probe::PingCampaignConfig pcfg;
  pcfg.start_day = cfg.ping_start_day;
  pcfg.days = spec.ping_days;
  pcfg.interval_s = cfg.ping_interval_s;
  pcfg.seed = seed * 1000003 + 31;
  return commit_archive(
      path,
      [&](io::BinRecordWriter& writer) {
        out.trace_records =
            write_traceroutes(net, tcfg, trace_pairs, writer);
        out.ping_records =
            write_pings(net, pcfg, out.ping_pairs, writer, on_ping);
      },
      out.bytes, out.blocks, error);
}

void Digest::line(const std::string& s) {
  for (const char c : s) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ull;
  }
  hash_ ^= '\n';
  hash_ *= 0x100000001b3ull;
}

void Digest::value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  line(buf);
}

void Digest::values(const char* label, const std::vector<double>& vs) {
  count(label, vs.size());
  for (const double v : vs) value(v);
}

void Digest::count(const char* label, std::uint64_t n) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%" PRIu64, label, n);
  line(buf);
}

std::string Digest::hex() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
  return buf;
}

}  // namespace s2sbench

namespace {

/// The metric sets, as BENCHMARK.json lists them. Every workload reports
/// every end-to-end metric; per-layer metrics of layers a workload does
/// not exercise read 0.
const std::vector<s2sbench::MetricDef> kEndToEnd = {
    {"setup_s", "s"},   {"peak_rss_mib", "MiB"}, {"load_s", "s"},
    {"op_p50_ms", "ms"}, {"ops_per_s", "1/s"},
};
const std::vector<s2sbench::MetricDef> kPerLayer = {
    {"simnet.build_s", "s"},
    {"probe.campaign_s", "s"},
    {"probe.records_per_s", "1/s"},
    {"io.encode_s", "s"},
    {"io.archive_mib", "MiB"},
    {"io.decode_s", "s"},
    {"io.decode_mib_per_s", "MiB/s"},
    {"io.blocks", "count"},
    {"core.ingest_s", "s"},
    {"core.ingest_records_per_s", "1/s"},
    {"core.stores_mib", "MiB"},
    {"core.routing_study_s", "s"},
    {"core.dualstack_s", "s"},
    {"core.survey_s", "s"},
    {"core.localize_s", "s"},
    {"exec.study_speedup", "x"},
    {"exec.tasks", "count"},
    {"svc.queue_wait_us", "us"},
    {"svc.cache_lookup_us", "us"},
    {"svc.exec_us", "us"},
    {"svc.encode_us", "us"},
    {"svc.write_us", "us"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.cache_lookups", "count"},
    {"svc.cache_mib", "MiB"},
    {"svc.request_p99_us", "us"},
    {"svc.clone_advanced_ms", "ms"},
    {"svc.verdict_us", "us"},
    {"svc.snapshot_mib", "MiB"},
    {"live.fold_ratio", "ratio"},
    {"live.write_us", "us"},
    {"live.seal_ms", "ms"},
    {"live.refresh_p90_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

int usage() {
  std::fprintf(stderr,
               "usage: s2sbench --workload analyze|serve|live --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s2sbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(value);
    else if (key == "--trace") opt.trace = std::atoi(value) != 0;
    else if (key == "--workdir") opt.workdir = value;
    else return usage();
  }
  if (opt.workdir.empty() || opt.seconds <= 0.0) return usage();

  Report report;
  report.fact("workload", opt.workload);
  report.fact("seed", std::to_string(opt.seed));
  report.fact("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.fact("build_type", S2SBENCH_BUILD_TYPE);
  char seconds[32];
  std::snprintf(seconds, sizeof seconds, "%g", opt.seconds);
  report.fact("seconds", seconds);
  report.fact("trace", opt.trace ? "1" : "0");
  // End-to-end runs measure with the collector off; the traced run turns
  // it on around the phases it attributes.
  set_tracing(false);

  int rc = 0;
  if (opt.workload == "analyze") rc = run_analyze(opt, report);
  else if (opt.workload == "serve") rc = run_serve(opt, report);
  else if (opt.workload == "live") rc = run_live(opt, report);
  else return usage();
  if (rc != 0) return rc;

  if (!report.print(opt.trace ? kPerLayer : kEndToEnd, opt.trace)) return 1;
  return report.correct() ? 0 : 1;
}
