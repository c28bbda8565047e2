// bench_svc — closed-loop load generator for the s2sd query daemon.
//
// Starts an in-process server on an ephemeral port over a generated
// fixture archive, then drives it from N client connections, each
// looping a mixed workload (figure digests dominate, so the cold
// numbers measure real analysis work, not framing overhead):
//
//   cold phase: every request carries kFlagNoCache, so the server
//     executes the analysis each time (results are still inserted);
//   warm phase: the same workload without the flag — all cache hits.
//
// Prints a JSON document with requests/sec and client-observed p50/p99
// latency for both phases plus the cache counters, and writes the same
// document to BENCH_svc.json (override with --report PATH, disable with
// --no-report). The warm/cold p50 ratio is the headline: the acceptance
// bar is warm p50 at least 5x lower than cold p50.
//
// Two degraded-mode sections (DESIGN.md section 12) ride along:
//   "degraded": the warm workload replayed through a seeded in-process
//     chaos proxy injecting latency+jitter — requests/sec and p99 under
//     fault vs clean, with the retrying clients' counters; and
//   "overload": 2x the serving capacity offered as pipelined bursts
//     against a tight admission budget — the shed rate and that every
//     busy response carried a retry-after hint.
//
// With --trace PATH the clients stamp every request with a trace
// context and the chrome://tracing JSON is written on exit; because the
// server runs in-process, one export holds both the client attempt /
// retry / hedge spans and the server's per-request phase spans, stitched
// by shared trace ids (DESIGN.md section 13). --no-report additionally
// disables the metrics registry and trace collector, so the warm-phase
// delta vs a default run is the observability overhead.
//
// A "reactor_scaling" section measures the multi-reactor serving tier:
// the cached point-query workload replayed against fresh servers at
// --reactors 1 and at --scale-reactors N (default 4; 0 disables), with
// enough connections to keep every reactor busy. The reported ratio is
// the CI scaling gate's input (req/s at N reactors vs 1 — meaningful
// only on multi-core runners).
//
//   bench_svc [--fast] [--connections N] [--warm-rounds N] [--threads N]
//             [--reactors N] [--scale-reactors N] [--scale-rounds N]
//             [--timeout-ms N] [--retries N] [--hedge]
//             [--hedge-delay-ms N] [--report PATH] [--no-report]
//             [--trace PATH]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "exec/pool.h"
#include "faultsim/chaos_proxy.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "stats/summary.h"
#include "svc/client.h"
#include "svc/dataset.h"
#include "svc/protocol.h"
#include "svc/retry_client.h"
#include "svc/server.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Request {
  s2s::svc::MsgType type;
  std::string payload;
};

struct PhaseResult {
  std::vector<double> latencies_us;
  double wall_s = 0.0;
  std::size_t errors = 0;
  s2s::svc::RetryStats retry;  ///< summed over the phase's clients

  double requests_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(latencies_us.size()) / wall_s
                        : 0.0;
  }
};

PhaseResult run_phase(const char* host, std::uint16_t port,
                      const std::vector<Request>& workload,
                      std::size_t connections, std::size_t rounds,
                      std::uint8_t flags, const s2s::svc::RetryPolicy& policy) {
  std::vector<std::vector<double>> lat(connections);
  std::vector<std::size_t> errors(connections, 0);
  std::vector<s2s::svc::RetryStats> retry(connections);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      s2s::svc::RetryPolicy p = policy;
      p.jitter_seed = policy.jitter_seed + c;  // decorrelate the backoffs
      s2s::svc::RetryingClient client(host, port, p);
      std::string error;
      for (std::size_t r = 0; r < rounds; ++r) {
        for (const Request& req : workload) {
          s2s::svc::MsgType rtype;
          std::string rpayload;
          const auto q0 = Clock::now();
          if (!client.call(req.type, flags, req.payload, &rtype, &rpayload,
                           error) ||
              rtype != s2s::svc::MsgType::kOk) {
            ++errors[c];
            continue;
          }
          lat[c].push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - q0)
                  .count());
        }
      }
      retry[c] = client.stats();
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult out;
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& v : lat) {
    out.latencies_us.insert(out.latencies_us.end(), v.begin(), v.end());
  }
  for (const std::size_t e : errors) out.errors += e;
  for (const auto& s : retry) {
    out.retry.attempts += s.attempts;
    out.retry.retries += s.retries;
    out.retry.failed_attempts += s.failed_attempts;
    out.retry.timeouts += s.timeouts;
    out.retry.busy_rescheduled += s.busy_rescheduled;
    out.retry.hedges += s.hedges;
    out.retry.hedge_wins += s.hedge_wins;
  }
  return out;
}

void phase_json(s2s::obs::json::Writer& w, const char* name,
                const PhaseResult& r, bool with_retry = false) {
  w.key(name).begin_object();
  w.key("requests").value(static_cast<std::uint64_t>(r.latencies_us.size()));
  w.key("errors").value(static_cast<std::uint64_t>(r.errors));
  w.key("wall_s").value(r.wall_s);
  w.key("requests_per_sec").value(r.requests_per_sec());
  w.key("p50_us").value(s2s::stats::quantile(r.latencies_us, 0.50));
  w.key("p99_us").value(s2s::stats::quantile(r.latencies_us, 0.99));
  if (with_retry) {
    w.key("retry").begin_object();
    w.key("attempts").value(r.retry.attempts);
    w.key("retries").value(r.retry.retries);
    w.key("failed_attempts").value(r.retry.failed_attempts);
    w.key("timeouts").value(r.retry.timeouts);
    w.key("busy_rescheduled").value(r.retry.busy_rescheduled);
    w.key("hedges").value(r.retry.hedges);
    w.key("hedge_wins").value(r.retry.hedge_wins);
    w.end_object();
  }
  w.end_object();
}

struct OverloadResult {
  std::size_t clients = 0;
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t other = 0;
  std::uint64_t hints_present = 0;
  double wall_s = 0.0;

  double shed_rate() const {
    const double total = static_cast<double>(ok + busy + other);
    return total > 0.0 ? static_cast<double>(busy) / total : 0.0;
  }
};

/// Offers 2x the admission capacity as pipelined ping bursts: `clients`
/// raw connections each fire `rounds` bursts of `burst` frames at a
/// server whose inflight budget admits roughly half of the offered
/// concurrency, and every shed must carry a retry-after hint.
OverloadResult run_overload(const char* host, std::uint16_t port,
                            std::size_t clients, std::size_t rounds,
                            std::size_t burst) {
  std::vector<OverloadResult> per(clients);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      s2s::svc::Client raw;
      std::string error;
      if (!raw.connect(host, port, error, /*timeout_ms=*/60000)) return;
      std::string batch;
      for (std::size_t i = 0; i < burst; ++i) {
        batch += s2s::svc::encode_frame(s2s::svc::MsgType::kPingEcho, 0, "");
      }
      for (std::size_t r = 0; r < rounds; ++r) {
        if (!raw.send_bytes(batch, error)) return;
        for (std::size_t i = 0; i < burst; ++i) {
          s2s::svc::MsgType rtype;
          std::string rpayload;
          if (!raw.read_frame(&rtype, &rpayload, error)) return;
          if (rtype == s2s::svc::MsgType::kOk) {
            ++per[c].ok;
            continue;
          }
          const auto info = s2s::svc::parse_error_payload(rpayload);
          if (info.code == "busy") {
            ++per[c].busy;
            if (info.retry_after_ms >= 0) ++per[c].hints_present;
          } else {
            ++per[c].other;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  OverloadResult out;
  out.clients = clients;
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const auto& p : per) {
    out.ok += p.ok;
    out.busy += p.busy;
    out.other += p.other;
    out.hints_present += p.hints_present;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s2s;

  std::size_t connections = 4;
  std::size_t warm_rounds = 4;
  std::size_t reactors = 1;
  std::size_t scale_reactors = 4;
  std::size_t scale_rounds = 8;
  int threads = 0;
  bool fast = false;
  bool want_report = true;
  std::string report_path = "BENCH_svc.json";
  std::string trace_path;
  svc::RetryPolicy policy;
  policy.timeout_ms = 60000;  // closed-loop: cold figures can be slow

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (!std::strcmp(argv[i], "--connections")) {
      connections = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--warm-rounds")) {
      warm_rounds = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--reactors")) {
      reactors = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--scale-reactors")) {
      scale_reactors = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--scale-rounds")) {
      scale_rounds = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--fast")) {
      fast = true;
    } else if (!std::strcmp(argv[i], "--timeout-ms")) {
      policy.timeout_ms = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--retries")) {
      policy.max_retries = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--hedge")) {
      policy.hedge = true;
    } else if (!std::strcmp(argv[i], "--hedge-delay-ms")) {
      policy.hedge_delay_ms = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--report")) {
      report_path = next();
    } else if (!std::strcmp(argv[i], "--no-report")) {
      want_report = false;
    } else if (!std::strcmp(argv[i], "--trace")) {
      trace_path = next();
    }
  }
  if (fast) {
    connections = 2;
    warm_rounds = 2;
    scale_rounds = 3;
  }
  if (connections == 0) connections = 1;
  if (reactors == 0) reactors = 1;

  obs::MetricsRegistry::global().reset();
  obs::TraceCollector::global().clear();
  if (!want_report && trace_path.empty()) {
    // The overhead baseline: no registry writes, no span commits — the
    // warm-phase delta vs a default run bounds the cost of observability.
    obs::MetricsRegistry::global().set_enabled(false);
    obs::TraceCollector::global().set_enabled(false);
  }
  if (!trace_path.empty()) policy.trace = true;

  svc::DatasetConfig cfg;
  cfg.archive_path = "bench_svc_fixture.s2sb";
  svc::FixtureParams params;
  if (fast) {
    params.trace_days = 7.0;
    params.ping_days = 3.0;
    params.max_trace_pairs = 6;
    params.max_ping_pairs = 24;
  }
  std::string error;
  std::printf("bench_svc: writing fixture %s\n", cfg.archive_path.c_str());
  if (!svc::write_fixture_archive(cfg.archive_path, cfg, params, error)) {
    std::fprintf(stderr, "bench_svc: fixture write failed: %s\n",
                 error.c_str());
    return 1;
  }

  svc::Dataset dataset(cfg);
  if (!dataset.load(error)) {
    std::fprintf(stderr, "bench_svc: load failed: %s\n", error.c_str());
    return 1;
  }

  exec::ThreadPool pool(threads > 0 ? static_cast<unsigned>(threads) : 0u);
  svc::ServerConfig server_cfg;
  server_cfg.max_inflight = 1024;  // closed-loop clients, no shedding
  server_cfg.reactors = reactors;
  svc::Server server(dataset, &pool, server_cfg);
  if (!server.start(error)) {
    std::fprintf(stderr, "bench_svc: %s\n", error.c_str());
    return 1;
  }
  std::thread serve_thread([&] { server.serve(); });
  const std::uint16_t port = server.port();

  // Workload: figure digests dominate so cold latency is analysis-bound;
  // the point queries use the first traced pair.
  std::vector<Request> workload;
  const auto pairs = dataset.trace_pairs();
  if (!pairs.empty()) {
    svc::PairQuery q;
    q.src = pairs.front().src;
    q.dst = pairs.front().dst;
    q.family = pairs.front().family;
    workload.push_back({svc::MsgType::kPairRtt, svc::encode_pair_query(q)});
    workload.push_back(
        {svc::MsgType::kPathPrevalence, svc::encode_pair_query(q)});
    workload.push_back(
        {svc::MsgType::kCongestionVerdict, svc::encode_pair_query(q)});
    workload.push_back({svc::MsgType::kDualStackDelta,
                        svc::encode_dualstack_query({q.src, q.dst})});
  }
  for (const std::uint8_t figure : {1, 2, 5, 10, 2, 5, 10, 2}) {
    svc::FigureQuery q;
    q.figure = figure;
    workload.push_back(
        {svc::MsgType::kFigureDigest, svc::encode_figure_query(q)});
  }

  std::printf("bench_svc: %zu connections, %zu-request workload, port %u\n",
              connections, workload.size(), static_cast<unsigned>(port));

  const PhaseResult cold = run_phase("127.0.0.1", port, workload, connections,
                                     /*rounds=*/1, svc::kFlagNoCache, policy);
  const PhaseResult warm = run_phase("127.0.0.1", port, workload, connections,
                                     warm_rounds, /*flags=*/0, policy);

  // Degraded mode: the warm workload again, but through a seeded chaos
  // proxy injecting latency+jitter — the delta vs "warm" is what the
  // serving path loses to a degraded network while staying error-free.
  std::printf("bench_svc: degraded phase (chaos latency+jitter)\n");
  faultsim::ChaosConfig chaos_cfg;
  chaos_cfg.seed = 4242;
  chaos_cfg.upstream_port = port;
  chaos_cfg.latency_ms = 2;
  chaos_cfg.jitter_ms = 3;
  faultsim::ChaosProxy proxy(chaos_cfg);
  PhaseResult degraded;
  bool degraded_ran = false;
  if (proxy.start(error)) {
    degraded = run_phase("127.0.0.1", proxy.port(), workload, connections,
                         warm_rounds, /*flags=*/0, policy);
    proxy.stop();
    degraded_ran = true;
  } else {
    std::fprintf(stderr, "bench_svc: chaos proxy failed: %s\n", error.c_str());
  }

  const svc::ResultCache::Stats cache = server.cache_stats();
  server.request_drain();
  serve_thread.join();

  // Overload: a second server over the same dataset with a tight
  // admission budget, offered 2x its inflight capacity as pipelined
  // ping bursts — measures the shed rate and hint coverage.
  std::printf("bench_svc: overload phase (2x admission capacity)\n");
  svc::ServerConfig ov_cfg;
  ov_cfg.max_inflight = 8;
  svc::Server ov_server(dataset, &pool, ov_cfg);
  OverloadResult overload;
  bool overload_ran = false;
  if (ov_server.start(error)) {
    std::thread ov_thread([&] { ov_server.serve(); });
    overload = run_overload("127.0.0.1", ov_server.port(),
                            /*clients=*/2 * connections,
                            /*rounds=*/fast ? 20 : 100,
                            /*burst=*/2 * ov_cfg.max_inflight);
    ov_server.request_drain();
    ov_thread.join();
    overload_ran = true;
  } else {
    std::fprintf(stderr, "bench_svc: overload server failed: %s\n",
                 error.c_str());
  }

  // Reactor scaling: the cached point-query workload (cheap per-request
  // work, so the serving tier — not the analysis — is the bottleneck)
  // against fresh servers at 1 reactor and at scale_reactors, with
  // enough connections to keep every reactor's accept shard busy.
  struct ScalePoint {
    std::size_t reactors = 0;
    double rps = 0.0;
    double p99_us = 0.0;
  };
  std::vector<ScalePoint> scaling;
  bool scaling_ran = false;
  if (scale_reactors > 1) {
    std::vector<Request> hot_workload;
    for (const Request& req : workload) {
      if (req.type != svc::MsgType::kFigureDigest) hot_workload.push_back(req);
    }
    hot_workload.push_back({svc::MsgType::kPingEcho, ""});
    const std::size_t hot_conns = std::max(connections, 2 * scale_reactors);
    scaling_ran = true;
    for (const std::size_t n : {std::size_t{1}, scale_reactors}) {
      std::printf("bench_svc: scaling phase (%zu reactor%s)\n", n,
                  n == 1 ? "" : "s");
      svc::ServerConfig sc_cfg;
      sc_cfg.max_inflight = 1024;
      sc_cfg.reactors = n;
      svc::Server sc_server(dataset, &pool, sc_cfg);
      if (!sc_server.start(error)) {
        std::fprintf(stderr, "bench_svc: scaling server failed: %s\n",
                     error.c_str());
        scaling_ran = false;
        break;
      }
      std::thread sc_thread([&] { sc_server.serve(); });
      // Fill pass: every reactor's cache sees the workload once (the
      // per-reactor caches warm independently), then the measured pass.
      run_phase("127.0.0.1", sc_server.port(), hot_workload, hot_conns,
                /*rounds=*/1, /*flags=*/0, policy);
      const PhaseResult r =
          run_phase("127.0.0.1", sc_server.port(), hot_workload, hot_conns,
                    scale_rounds, /*flags=*/0, policy);
      ScalePoint point;
      point.reactors = n;
      point.rps = r.requests_per_sec();
      point.p99_us = stats::quantile(r.latencies_us, 0.99);
      sc_server.request_drain();
      sc_thread.join();
      if (r.errors > 0) {
        std::fprintf(stderr, "bench_svc: %zu scaling request errors\n",
                     r.errors);
        scaling_ran = false;
        break;
      }
      scaling.push_back(point);
    }
  }

  obs::json::Writer w;
  w.begin_object();
  w.key("tool").value("bench_svc");
  w.key("connections").value(static_cast<std::uint64_t>(connections));
  w.key("workload_requests").value(
      static_cast<std::uint64_t>(workload.size()));
  w.key("warm_rounds").value(static_cast<std::uint64_t>(warm_rounds));
  phase_json(w, "cold", cold);
  phase_json(w, "warm", warm);
  if (degraded_ran) {
    phase_json(w, "degraded", degraded, /*with_retry=*/true);
    const double p99_warm = stats::quantile(warm.latencies_us, 0.99);
    const double p99_deg = stats::quantile(degraded.latencies_us, 0.99);
    w.key("degraded_p99_ratio")
        .value(p99_warm > 0.0 ? p99_deg / p99_warm : 0.0);
  }
  if (overload_ran) {
    w.key("overload").begin_object();
    w.key("clients").value(static_cast<std::uint64_t>(overload.clients));
    w.key("ok").value(overload.ok);
    w.key("busy").value(overload.busy);
    w.key("other").value(overload.other);
    w.key("hints_present").value(overload.hints_present);
    w.key("shed_rate").value(overload.shed_rate());
    w.key("wall_s").value(overload.wall_s);
    w.end_object();
  }
  if (scaling_ran && scaling.size() == 2) {
    w.key("reactor_scaling").begin_object();
    w.key("reactors").value(static_cast<std::uint64_t>(scaling[1].reactors));
    w.key("rps_1").value(scaling[0].rps);
    w.key("p99_us_1").value(scaling[0].p99_us);
    w.key("rps_n").value(scaling[1].rps);
    w.key("p99_us_n").value(scaling[1].p99_us);
    w.key("ratio").value(scaling[0].rps > 0.0 ? scaling[1].rps / scaling[0].rps
                                              : 0.0);
    w.end_object();
  }
  const double p50_cold = stats::quantile(cold.latencies_us, 0.50);
  const double p50_warm = stats::quantile(warm.latencies_us, 0.50);
  w.key("speedup_p50").value(p50_warm > 0.0 ? p50_cold / p50_warm : 0.0);
  w.key("cache").begin_object();
  w.key("hits").value(cache.hits);
  w.key("misses").value(cache.misses);
  w.key("insertions").value(cache.insertions);
  w.key("evictions").value(cache.evictions);
  w.key("entries").value(cache.entries);
  w.key("bytes").value(cache.bytes);
  w.end_object();
  w.end_object();

  const std::string json = w.str();
  std::printf("%s\n", json.c_str());
  if (want_report && !obs::write_text_file(report_path, json)) {
    return 1;
  }
  if (!trace_path.empty()) {
    const auto& collector = obs::TraceCollector::global();
    if (!obs::write_text_file(trace_path, collector.to_chrome_json())) {
      return 1;
    }
    std::printf("bench_svc: chrome trace (%zu spans, %zu dropped): %s\n",
                collector.events().size(), collector.dropped(),
                trace_path.c_str());
  }
  if (cold.errors > 0 || warm.errors > 0 || degraded.errors > 0) {
    std::fprintf(stderr,
                 "bench_svc: %zu cold / %zu warm / %zu degraded request "
                 "errors\n",
                 cold.errors, warm.errors, degraded.errors);
    return 1;
  }
  if (!degraded_ran || !overload_ran) return 1;
  return 0;
}
