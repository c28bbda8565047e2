// serve — the query daemon in steady state.
//
// Set-up writes the analyze archive, loads it into an svc::Dataset (and
// reloads it twice), starts an in-process svc::Server with its default
// config (one reactor, as s2sd starts) and runs one fill pass over every
// key, so the result cache holds every key before timing starts. The
// timed phase is a closed loop from kConnections client connections
// driven by one client thread: each sends its next request when the
// previous answer arrived, drawn Zipf-like over every (traced pair x
// {pair_rtt, path_prevalence, congestion_verdict, dualstack_delta}) key
// plus ping_echo, with kNoCacheShare of requests carrying kFlagNoCache
// so the miss path and cache inserts stay in the mix. Every answer is
// compared byte for byte with Dataset::execute on the same key.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <thread>

#include <poll.h>
#include <pthread.h>
#include <sched.h>

#include "bench.h"
#include "svc/client.h"
#include "svc/protocol.h"
#include "svc/server.h"

namespace s2sbench {
namespace {

using namespace s2s;

constexpr int kSetups = 3;
constexpr int kLoads = 3;  ///< per set-up
/// Connections, all driven from one client thread: the load is one
/// thread beside the server's one reactor thread. With a thread per
/// connection (four busy threads on a 4-vCPU shared host) the request
/// rate swung 25-66k/s between runs of the same code; with one
/// connection the client and server woke each other for every request,
/// and the rate jumped 35% whenever the scheduler moved them onto one
/// CPU or apart.
constexpr std::size_t kConnections = 3;
/// Which of the allowed CPUs (by index) the server's reactor thread and
/// the client thread are pinned to, so they never share one; index 0
/// is left to the device interrupts it usually takes.
constexpr int kServerCpu = 1;
constexpr int kClientCpu = 2;
constexpr double kNoCacheShare = 0.05;
constexpr double kZipfExponent = 1.0;
constexpr std::uint64_t kRankingSeed = 0x5eed;
/// Span names of the server's per-request phases.
constexpr const char* kPhases[] = {"queue_wait", "cache_lookup", "exec",
                                   "encode", "write"};

struct Key {
  svc::MsgType type = svc::MsgType::kPingEcho;
  std::string payload;
  std::string expected;  ///< Dataset::execute's kOk payload
};

/// Every per-pair key of the traced pairs, plus ping_echo. Keys whose
/// answer is not kOk (a pair without a timeline in one family) are left
/// out, so no request of the workload is expected to fail.
std::vector<Key> make_keys(const svc::Dataset& ds, std::size_t& dropped) {
  std::vector<Key> keys;
  auto add = [&](svc::MsgType type, std::string payload) {
    auto r = ds.execute(type, payload, nullptr);
    if (r.type != svc::MsgType::kOk) {
      ++dropped;
      return;
    }
    keys.push_back({type, std::move(payload), std::move(r.payload)});
  };
  dropped = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const auto& p : ds.trace_pairs()) {
    const svc::PairQuery q{p.src, p.dst, p.family, 0};
    add(svc::MsgType::kPairRtt, svc::encode_pair_query(q));
    add(svc::MsgType::kPathPrevalence, svc::encode_pair_query(q));
    add(svc::MsgType::kCongestionVerdict, svc::encode_pair_query(q));
    pairs.emplace_back(p.src, p.dst);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (const auto& [src, dst] : pairs) {
    add(svc::MsgType::kDualStackDelta, svc::encode_dualstack_query({src, dst}));
  }
  add(svc::MsgType::kPingEcho, "");
  return keys;
}

/// Pins thread `t` to the `k`-th CPU this process may run on; returns
/// that CPU, or -1 (thread left unpinned) when there are fewer CPUs.
int pin(pthread_t t, int k) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int seen = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed) || seen++ != k) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return pthread_setaffinity_np(t, sizeof one, &one) == 0 ? c : -1;
  }
  return -1;
}

/// A server running on its own thread; the destructor drains and joins.
class Serving {
 public:
  explicit Serving(svc::Dataset& ds) : server_(ds, nullptr, {}) {}
  ~Serving() { stop(); }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  bool start(std::string& error) {
    if (!server_.start(error)) return false;
    thread_ = std::thread([this] { server_.serve(); });
    cpu_ = pin(thread_.native_handle(), kServerCpu);
    return true;
  }
  void stop() {
    if (!thread_.joinable()) return;
    server_.request_drain();
    thread_.join();
  }
  svc::Server& server() { return server_; }
  /// The CPU the server thread is pinned to, -1 when unpinned.
  int cpu() const { return cpu_; }

 private:
  svc::Server server_;
  std::thread thread_;
  int cpu_ = -1;
};

struct Inputs {
  svc::DatasetConfig cfg;
  std::unique_ptr<simnet::Network> net;
  ArchiveResult archive;
  std::unique_ptr<svc::Dataset> ds;
  std::vector<Key> keys;
  std::size_t dropped_keys = 0;
  std::unique_ptr<Serving> serving;
  std::vector<double> load_s;
};

bool set_up(const Options& opt, Inputs& in, Report& report,
            std::string& error) {
  in.cfg = deployment_config(opt.workdir + "/serve.s2sb");
  {
    const obs::TraceSpan span("simnet.build");
    in.net = std::make_unique<simnet::Network>(svc::dataset_net_config(in.cfg));
  }
  if (!write_archive(*in.net, in.cfg, kBatchArchive, opt.seed,
                     in.cfg.archive_path, in.archive, error)) {
    return false;
  }
  // Start-up load plus two reloads, as a SIGHUP makes s2sd do; the
  // last one serves.
  for (int i = 0; i < kLoads; ++i) {
    in.ds.reset();
    in.ds = std::make_unique<svc::Dataset>(in.cfg, in.net.get());
    const auto t0 = Clock::now();
    {
      const obs::TraceSpan span("svc.load");
      if (!in.ds->load(error)) return false;
    }
    in.load_s.push_back(seconds_since(t0));
  }
  in.keys = make_keys(*in.ds, in.dropped_keys);
  in.serving = std::make_unique<Serving>(*in.ds);
  if (!in.serving->start(error)) return false;

  // Fill pass: every key once, so the timed phase starts warm.
  svc::Client client;
  if (!client.connect("127.0.0.1", in.serving->server().port(), error)) {
    return false;
  }
  for (const Key& key : in.keys) {
    svc::MsgType type;
    std::string payload;
    const bool ok = client.call(key.type, 0, key.payload, &type, &payload,
                                error) &&
                    type == svc::MsgType::kOk;
    report.op(ok);
    report.check(ok && payload == key.expected,
                 "fill-pass answer differs from Dataset::execute");
  }
  return true;
}

/// Zipf-like key popularity over a fixed random ranking of the keys. The
/// ranking does not follow the benchmark seed: which key is hottest sets
/// the request-type mix, and every seed should measure the same mix.
class ZipfKeys {
 public:
  explicit ZipfKeys(std::size_t n) : rank_(n), cdf_(n) {
    for (std::size_t i = 0; i < n; ++i) rank_[i] = i;
    std::mt19937_64 rng(kRankingSeed);
    std::shuffle(rank_.begin(), rank_.end(), rng);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t pick(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto i = static_cast<std::size_t>(it - cdf_.begin());
    return rank_[std::min(i, rank_.size() - 1)];
  }

 private:
  std::vector<std::size_t> rank_;
  std::vector<double> cdf_;
};

struct PhaseResult {
  explicit PhaseResult(double seconds) : latency_ms(seconds) {}
  Windows latency_ms;  ///< by completion time since the phase began
  std::uint64_t completed = 0;
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  /// Server phase span durations by phase name (traced phases only).
  std::map<std::string, std::vector<double>> phase_us;

  double rps() const {
    return wall_s > 0 ? static_cast<double>(completed) / wall_s : 0.0;
  }
  /// Adds another phase of the same length.
  void absorb(const PhaseResult& other) {
    latency_ms.merge(other.latency_ms);
    completed += other.completed;
    wall_s += other.wall_s;
    attempted += other.attempted;
    failed += other.failed;
    mismatched += other.mismatched;
    for (const auto& [name, us] : other.phase_us) {
      phase_us[name].insert(phase_us[name].end(), us.begin(), us.end());
    }
  }
};

void collect_phases(PhaseResult& out) {
  auto& collector = obs::TraceCollector::global();
  const auto events = collector.events();
  collector.clear();
  for (const auto& e : events) {
    for (const char* phase : kPhases) {
      if (e.name == phase) {
        out.phase_us[phase].push_back(static_cast<double>(e.dur_us));
      }
    }
  }
}

/// The closed loop: kConnections connections, all driven from this one
/// thread. Each connection has one request outstanding and sends its
/// next only when the answer arrived, as s2s_query and RetryingClient
/// callers do; the thread serves whichever connection answers first.
/// It polls without sleeping, so the client never waits on a wake-up of
/// its own and the server's work sets the pace.
PhaseResult run_phase(const Inputs& in, const ZipfKeys& zipf,
                      std::uint64_t seed, double seconds, bool traced) {
  PhaseResult out(seconds);
  auto& collector = obs::TraceCollector::global();
  std::mt19937_64 rng(seed * 7919);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  struct Caller {
    svc::Client client;
    const Key* key = nullptr;
    Clock::time_point sent;
    obs::SpanEvent span;  ///< traced phases: the request's client half
  };
  std::vector<Caller> callers(kConnections);
  std::vector<pollfd> fds;
  std::string error;
  const std::uint16_t port = in.serving->server().port();
  const auto t0 = Clock::now();

  // Sends the caller's next request; false on a transport failure.
  auto send_next = [&](Caller& c) {
    c.key = &in.keys[zipf.pick(unit(rng))];
    std::uint8_t flags = unit(rng) < kNoCacheShare ? svc::kFlagNoCache : 0;
    std::string frame;
    if (traced) {
      // The server's phase spans become this span's children through
      // the trace-context prefix.
      flags |= svc::kFlagTraceContext;
      c.span = {};
      c.span.name = c.span.path = "svc.call";
      c.span.trace_id = collector.new_span_id();
      c.span.span_id = collector.new_span_id();
      c.span.start_us = collector.now_us();
      frame = svc::encode_frame(
          c.key->type, flags,
          svc::encode_trace_context({c.span.trace_id, c.span.span_id}) +
              c.key->payload);
    } else {
      frame = svc::encode_frame(c.key->type, flags, c.key->payload);
    }
    ++out.attempted;
    c.sent = Clock::now();
    return c.client.send_bytes(frame, error);
  };

  for (Caller& c : callers) {
    if (!c.client.connect("127.0.0.1", port, error)) ++out.attempted;
    if (!c.client.connected() || !send_next(c)) {
      ++out.failed;
      return out;
    }
    fds.push_back({c.client.fd(), POLLIN, 0});
  }
  auto collected = Clock::now();
  std::size_t open = callers.size();
  svc::MsgType type;
  std::string payload;
  while (open > 0) {
    if (::poll(fds.data(), fds.size(), 0) < 0) {
      if (errno == EINTR) continue;
      out.failed += open;  // the requests in flight are lost
      break;
    }
    const bool sending = seconds_since(t0) < seconds;
    for (std::size_t i = 0; i < callers.size(); ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      Caller& c = callers[i];
      const bool read = c.client.read_frame(&type, &payload, error);
      const auto q1 = Clock::now();
      if (traced && read) {
        c.span.dur_us = collector.now_us() - c.span.start_us;
        collector.emit_event(std::move(c.span));
      }
      if (!read) {  // transport failure: this connection is done
        ++out.failed;
      } else if (type != svc::MsgType::kOk) {  // error frame or busy shed
        ++out.failed;
      } else {
        if (payload != c.key->expected) ++out.mismatched;
        ++out.completed;
        out.latency_ms.add(std::chrono::duration<double>(q1 - t0).count(),
                           ms_between(c.sent, q1));
      }
      bool more = read && sending;
      if (more && !send_next(c)) {
        ++out.failed;
        more = false;
      }
      if (!more) {
        fds[i].fd = -1;
        --open;
      }
    }
    // Traced phases drain the span collector as they go, keeping it
    // under its event cap.
    if (traced && ms_between(collected, Clock::now()) >= 50) {
      collect_phases(out);
      collected = Clock::now();
    }
  }
  out.wall_s = seconds_since(t0);
  if (traced) collect_phases(out);
  return out;
}

}  // namespace

int run_serve(const Options& opt, Report& report) {
  // Members are destroyed server first, network last.
  std::unique_ptr<Inputs> inputs;
  std::string error;
  std::vector<double> setup_s, load_s;
  const int setups = opt.trace ? 1 : kSetups;
  if (opt.trace) set_tracing(true);
  for (int i = 0; i < setups; ++i) {
    inputs.reset();
    inputs = std::make_unique<Inputs>();
    Inputs& in = *inputs;
    const auto t0 = Clock::now();
    if (!set_up(opt, in, report, error)) {
      std::fprintf(stderr, "s2sbench: serve set-up: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(seconds_since(t0));
    load_s.insert(load_s.end(), in.load_s.begin(), in.load_s.end());
  }
  const auto setup_spans = span_stats(obs::TraceCollector::global().events());

  Inputs& in = *inputs;
  report.fact("pool_width", "0");
  report.fact("connections", std::to_string(kConnections));
  report.fact("reactors", "1");
  report.fact("archive_bytes", std::to_string(in.archive.bytes));
  report.fact("trace_records", std::to_string(in.archive.trace_records));
  report.fact("ping_records", std::to_string(in.archive.ping_records));
  report.fact("keys", std::to_string(in.keys.size()));
  report.fact("keys_not_ok", std::to_string(in.dropped_keys));

  const ZipfKeys zipf(in.keys.size());
  report.fact("server_cpu", std::to_string(in.serving->cpu()));
  report.fact("client_cpu", std::to_string(pin(pthread_self(), kClientCpu)));
  svc::Server& server = in.serving->server();
  // Traced runs alternate untraced and traced quarters, so the overhead
  // figure compares like moments.
  const auto cache0 = server.cache_stats();
  PhaseResult untraced(opt.seconds / 4);
  PhaseResult phase(opt.trace ? opt.seconds / 4 : opt.seconds);
  if (!opt.trace) {
    phase = run_phase(in, zipf, opt.seed, opt.seconds, false);
  }
  for (int q = 0; opt.trace && q < 4; ++q) {
    const bool traced = q % 2 == 1;
    set_tracing(traced);
    const PhaseResult part =
        run_phase(in, zipf, opt.seed + q, opt.seconds / 4, traced);
    (traced ? phase : untraced).absorb(part);
  }
  const auto cache1 = server.cache_stats();
  in.serving->stop();

  auto account = [&](const PhaseResult& p) {
    report.ops(p.attempted, p.failed);
    report.check(p.mismatched == 0,
                 std::to_string(p.mismatched) +
                     " answers differ from Dataset::execute");
  };
  account(untraced);
  account(phase);
  report.fact("requests", std::to_string(phase.completed));
  if (!opt.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("load_s", median(load_s), "s");
    report.metric("op_p50_ms", phase.latency_ms.quantile(0.5), "ms");
    report.metric("ops_per_s", phase.latency_ms.rate(), "1/s");
    return 0;
  }

  auto total = [&](const char* n) {
    const auto it = setup_spans.find(n);
    return it == setup_spans.end() ? 0.0 : it->second.total_s();
  };
  const double encode_s = total("io.encode");
  const double campaign_s = total("probe.campaign") - encode_s;
  report.metric("simnet.build_s", total("simnet.build"), "s");
  report.metric("probe.campaign_s", campaign_s, "s");
  report.metric(
      "probe.records_per_s",
      campaign_s > 0
          ? static_cast<double>(in.archive.trace_records +
                                in.archive.ping_records) /
                campaign_s
          : 0.0,
      "1/s");
  report.metric("io.encode_s", encode_s, "s");
  report.metric("io.archive_mib",
                static_cast<double>(in.archive.bytes) / (1 << 20), "MiB");
  for (const char* p : kPhases) {
    const auto it = phase.phase_us.find(p);
    report.metric(std::string("svc.") + p + "_us",
                  it == phase.phase_us.end() ? 0.0 : median(it->second), "us");
  }
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double lookups =
      hits + static_cast<double>(cache1.misses - cache0.misses);
  report.metric("svc.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                "ratio");
  report.metric("svc.cache_lookups", lookups, "count");
  report.metric("svc.cache_mib", static_cast<double>(cache1.bytes) / (1 << 20),
                "MiB");
  // The client-observed tail, from the untraced quarters: too unsteady
  // between runs on a shared machine to carry a bound.
  report.metric("svc.request_p99_us", untraced.latency_ms.quantile(0.99) * 1e3,
                "us");
  report.metric("obs.trace_overhead_pct",
                100.0 * (untraced.rps() / phase.rps() - 1.0), "%");
  return 0;
}

}  // namespace s2sbench
