// Shared pieces of the s2s pipeline benchmark (see run.py for usage).
//
// The benchmark drives the library only through its public calls and
// measures each layer from outside: a workload wraps every call into a
// layer in an obs::TraceSpan named "<layer>.<what>", and the traced run
// turns those spans (plus the server's own per-request phase spans)
// into the per-layer metrics. With tracing off the collector is
// disabled, so the spans cost nothing and the end-to-end numbers are
// taken from steady_clock readings around the same calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "io/binrec.h"
#include "obs/trace.h"
#include "probe/campaign.h"
#include "simnet/network.h"
#include "svc/dataset.h"

namespace s2sbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for archives and shards
};

/// Linear-interpolation quantile (type 7) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// A timed phase's samples in one-second windows of its timeline, each
/// window a log-bucketed histogram (1% buckets), so memory stays fixed
/// however many samples arrive. Statistics are taken per full window
/// and the median over windows is reported: a burst of interference
/// from outside the process moves a few windows, not the result.
class Windows {
 public:
  /// Windows for a phase lasting `span_s`; the partial last second is
  /// not a window (a phase shorter than a second is one window).
  explicit Windows(double span_s);
  /// A sample that completed `at_s` seconds into the phase.
  void add(double at_s, double value);
  void merge(const Windows& other);
  double quantile(double q) const;
  /// Samples per second.
  double rate() const;

 private:
  struct Histogram {
    std::vector<std::uint64_t> buckets;
    std::uint64_t n = 0;
    double quantile(double q) const;
  };
  std::vector<Histogram> windows_;
};

/// getrusage peak resident set of this process, MiB.
double peak_rss_mib();
/// Current anonymous resident memory (heap, not file-backed mmaps) after
/// returning free heap pages to the kernel, MiB. Deltas of this across a
/// stage are the stage's retained heap.
double anon_rss_mib();

struct MetricDef {
  const char* name;
  const char* unit;
};

/// One run's result: the end-to-end or per-layer metrics, the operation
/// accounting, and the machine and input facts printed before it.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void fact(const std::string& key, const std::string& value) {
    facts_.emplace_back(key, value);
  }

  /// One operation of the workload; `ok` false counts it as failed.
  void op(bool ok) { ops(1, ok ? 0 : 1); }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A correctness check; any failed check makes the run incorrect.
  void check(bool ok, const std::string& what);

  bool correct() const noexcept { return correct_; }
  /// Prints the facts as "fact key=value" lines, then the result as one
  /// JSON line holding exactly the `wanted` metrics. A metric outside
  /// `wanted`, or a wanted one never set (unless `fill_missing`, which
  /// reports it as 0), is a benchmark bug: prints nothing, returns false.
  bool print(const std::vector<MetricDef>& wanted, bool fill_missing);

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> facts_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Per-name aggregates over the collected spans (by leaf name, so a span
/// counts wherever it nests).
struct SpanStat {
  std::vector<double> dur_us;
  double total_s() const;
  double median_us() const { return dur_us.empty() ? 0.0 : median(dur_us); }
};
std::map<std::string, SpanStat> span_stats(
    const std::vector<s2s::obs::SpanEvent>& events);

/// Enables or disables the global span collector, clearing it first.
void set_tracing(bool on);

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The simulated deployment every workload measures on: the dataset
/// config's generator (fixed topology seed) with 40 servers. The
/// benchmark seed drives the campaigns only, so every seed measures the
/// same network under different probe noise, loss and downtime.
s2s::svc::DatasetConfig deployment_config(const std::string& archive_path);

using Pairs =
    std::vector<std::pair<s2s::topology::ServerId, s2s::topology::ServerId>>;

/// Run a campaign into `writer`, handing its records over one epoch at a
/// time and writing each epoch in one pass (span "io.encode" inside
/// "probe.campaign"). Return the record count.
std::uint64_t write_traceroutes(s2s::simnet::Network& net,
                                const s2s::probe::TracerouteCampaignConfig& cfg,
                                const Pairs& pairs,
                                s2s::io::BinRecordWriter& writer);
/// `also`, when set, sees every ping record after it was written.
std::uint64_t write_pings(s2s::simnet::Network& net,
                          const s2s::probe::PingCampaignConfig& cfg,
                          const Pairs& pairs, s2s::io::BinRecordWriter& writer,
                          const s2s::probe::PingSink& also = {});

/// Writes one archive the way the repository's fixture writer does,
/// through io::AtomicArchiveWriter (tmp file, fsync, rename): `fill`
/// writes the records, and the archive is durable, its write-back done,
/// when this returns.
bool commit_archive(const std::string& path,
                    const std::function<void(s2s::io::BinRecordWriter&)>& fill,
                    std::uint64_t& bytes, std::size_t& blocks,
                    std::string& error);

/// Writes the batch archive of the analyze and serve workloads: a
/// 3-hour traceroute campaign over the first `trace_pairs` pairs and a
/// 15-minute ping campaign over `ping_pairs` pairs, streamed one epoch
/// at a time into an io::BinRecordWriter. `on_ping`, when set, also
/// sees every ping record after it was written.
struct ArchiveSpec {
  double trace_days = 0.0;
  std::size_t trace_pairs = 0;
  double ping_days = 0.0;
  std::size_t ping_pairs = 0;
};
/// The archive analyze measures and serve serves (~1M records).
inline constexpr ArchiveSpec kBatchArchive{/*trace_days=*/60.0,
                                           /*trace_pairs=*/120,
                                           /*ping_days=*/14.0,
                                           /*ping_pairs=*/150};

struct ArchiveResult {
  std::uint64_t bytes = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t ping_records = 0;
  std::size_t blocks = 0;
  /// The ping measurement pairs (unordered), in campaign order.
  Pairs ping_pairs;
};
bool write_archive(s2s::simnet::Network& net,
                   const s2s::svc::DatasetConfig& cfg, const ArchiveSpec& spec,
                   std::uint64_t seed, const std::string& path,
                   ArchiveResult& out, std::string& error,
                   const s2s::probe::PingSink& on_ping = {});

/// FNV-1a over text lines and hexfloat values: byte-exact digests of
/// study outputs.
class Digest {
 public:
  void line(const std::string& s);
  void value(double v);
  void values(const char* label, const std::vector<double>& vs);
  void count(const char* label, std::uint64_t n);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

int run_analyze(const Options& opt, Report& report);
int run_serve(const Options& opt, Report& report);
int run_live(const Options& opt, Report& report);

}  // namespace s2sbench
