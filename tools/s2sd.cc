// s2sd — the analysis query daemon (DESIGN.md section 11).
//
//   s2sd --archive <in.s2sb> [options]        # serve the archive
//   s2sd --make-fixture <out.s2sb> [options]  # write a fixture archive
//
// Serving options:
//   --host A            bind address            (default 127.0.0.1)
//   --listen-addr A     alias of --host; an address with a ':' listens
//                       on IPv6 ("::" = dual-stack wildcard)
//   --port N            listen port             (default 0 = ephemeral)
//   --reactors N        event-loop threads, each with its own epoll
//                       poller and result cache (default 1); more than
//                       one shares the port via SO_REUSEPORT listeners
//   --threads N         analysis pool width     (default 0 = auto)
//   --max-inflight N    parsed-but-unexecuted request cap (count gate)
//   --max-pending-cost N  pending-cost budget (request_cost units; 0 off)
//   --max-client-pending N  per-connection queue bound (0 = unbounded)
//   --busy-retry-ms N   base retry-after hint on busy sheds
//   --allow-damaged     serve despite a failed archive-health check
//   --cache-mb N        result cache budget in MiB
//   --read-timeout-ms N / --write-timeout-ms N
//   --slow-ms N         slow-query log threshold (end-to-end ms; 0 = off)
//   --live-poll-ms N    open-shard delta-pickup poll interval (0 = off);
//                       with a watermark sidecar present the daemon
//                       serves the sealed prefix and folds newly sealed
//                       blocks in as the writer appends
//   --slo-ms N          per-type latency SLO threshold (ms)
//   --window-s N        windowed p50/p99 merge width in seconds
//   --report PATH       RunReport JSON on shutdown (default s2sd_report.json)
//   --no-report
// Deployment provenance (must match the archive's generator):
//   --seed N --servers N --tier1 N --transit N --stub N
// Fixture options: --fast (smaller campaigns), plus the provenance flags.
//
// SIGTERM/SIGINT request a graceful drain: in-flight requests execute
// and flush before the listener closes. SIGHUP re-ingests the archive;
// a changed file changes the digest and thereby invalidates the cache.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exec/pool.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "svc/dataset.h"
#include "svc/server.h"

namespace {

s2s::svc::Server* g_server = nullptr;

void on_drain_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

void on_reload_signal(int) {
  if (g_server != nullptr) g_server->request_reload();
}

int usage() {
  std::fprintf(stderr,
               "usage: s2sd --archive <in.s2sb> [--host A] [--listen-addr A]\n"
               "            [--port N] [--reactors N] [--threads N]\n"
               "            [--max-inflight N]\n"
               "            [--max-pending-cost N] [--max-client-pending N]\n"
               "            [--busy-retry-ms N] [--allow-damaged]\n"
               "            [--cache-mb N] [--read-timeout-ms N]\n"
               "            [--write-timeout-ms N] [--slow-ms N]\n"
               "            [--live-poll-ms N]\n"
               "            [--slo-ms N] [--window-s N] [--report PATH]\n"
               "            [--no-report] [--seed N] [--servers N]\n"
               "            [--tier1 N] [--transit N] [--stub N]\n"
               "       s2sd --make-fixture <out.s2sb> [--fast] "
               "[provenance flags]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s2s;

  std::string archive;
  std::string fixture;
  std::string host = "127.0.0.1";
  std::string report_path = "s2sd_report.json";
  bool want_report = true;
  bool fast = false;
  bool allow_damaged = false;
  int threads = 0;
  svc::DatasetConfig dataset_cfg;
  svc::ServerConfig server_cfg;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (!std::strcmp(argv[i], "--archive")) archive = next();
    else if (!std::strcmp(argv[i], "--make-fixture")) fixture = next();
    else if (!std::strcmp(argv[i], "--host")) host = next();
    else if (!std::strcmp(argv[i], "--listen-addr")) host = next();
    else if (!std::strcmp(argv[i], "--port")) {
      server_cfg.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--reactors")) {
      server_cfg.reactors = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--max-inflight")) {
      server_cfg.max_inflight = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--max-pending-cost")) {
      server_cfg.max_pending_cost = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--max-client-pending")) {
      server_cfg.max_client_pending =
          static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--busy-retry-ms")) {
      server_cfg.busy_retry_after_ms = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--allow-damaged")) {
      allow_damaged = true;
    } else if (!std::strcmp(argv[i], "--cache-mb")) {
      server_cfg.cache_bytes =
          static_cast<std::size_t>(std::atoi(next())) << 20;
    } else if (!std::strcmp(argv[i], "--read-timeout-ms")) {
      server_cfg.read_timeout_ms = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--write-timeout-ms")) {
      server_cfg.write_timeout_ms = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--live-poll-ms")) {
      server_cfg.live_poll_ms = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--slow-ms")) {
      // Fractional thresholds are legal (--slow-ms 0.5 = 500us): smoke
      // tests against tiny fixtures need sub-millisecond cutoffs.
      server_cfg.slow_query_us =
          static_cast<std::int64_t>(std::atof(next()) * 1000.0);
    } else if (!std::strcmp(argv[i], "--slo-ms")) {
      server_cfg.slo_ms = std::atof(next());
    } else if (!std::strcmp(argv[i], "--window-s")) {
      server_cfg.window_seconds = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--report")) {
      report_path = next();
    } else if (!std::strcmp(argv[i], "--no-report")) {
      want_report = false;
    } else if (!std::strcmp(argv[i], "--seed")) {
      dataset_cfg.topo_seed = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--servers")) {
      dataset_cfg.server_count = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--tier1")) {
      dataset_cfg.tier1_count = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--transit")) {
      dataset_cfg.transit_count = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--stub")) {
      dataset_cfg.stub_count = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--fast")) {
      fast = true;
    } else {
      return usage();
    }
  }

  if (!fixture.empty()) {
    dataset_cfg.archive_path = fixture;
    svc::FixtureParams params;
    if (fast) {
      params.trace_days = 7.0;
      params.ping_days = 3.0;
      params.max_trace_pairs = 6;
      params.max_ping_pairs = 24;
    }
    std::string error;
    if (!svc::write_fixture_archive(fixture, dataset_cfg, params, error)) {
      std::fprintf(stderr, "s2sd: fixture write failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("s2sd: fixture written: %s\n", fixture.c_str());
    return 0;
  }

  if (archive.empty()) return usage();
  dataset_cfg.archive_path = archive;

  obs::MetricsRegistry::global().reset();
  obs::TraceCollector::global().clear();

  svc::Dataset dataset(dataset_cfg);
  std::string error;
  if (!dataset.load(error)) {
    std::fprintf(stderr, "s2sd: cannot load %s: %s\n", archive.c_str(),
                 error.c_str());
    return 1;
  }
  // Refuse to serve an archive that ingested with damage: a daemon that
  // silently drops blocks answers queries with confidently wrong data.
  // SIGHUP reloads stay lenient (old data keeps serving on failure).
  if (const std::string damage =
          svc::archive_damage(dataset.ingest(), dataset.live());
      !damage.empty()) {
    if (allow_damaged) {
      std::fprintf(stderr, "s2sd: WARNING: serving damaged archive %s: %s\n",
                   archive.c_str(), damage.c_str());
    } else {
      std::fprintf(stderr,
                   "s2sd: refusing to serve %s: %s (run `s2s_recconv repair`"
                   " or pass --allow-damaged)\n",
                   archive.c_str(), damage.c_str());
      return 1;
    }
  }

  exec::ThreadPool pool(threads > 0 ? static_cast<unsigned>(threads) : 0u);
  server_cfg.bind_address = host;
  svc::Server server(dataset, &pool, server_cfg);
  if (!server.start(error)) {
    std::fprintf(stderr, "s2sd: %s\n", error.c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, on_drain_signal);
  std::signal(SIGINT, on_drain_signal);
  std::signal(SIGHUP, on_reload_signal);
#ifdef SIGPIPE
  std::signal(SIGPIPE, SIG_IGN);
#endif

  if (dataset.live()) {
    std::printf("s2sd: live archive at watermark epoch %lld "
                "(%llu sealed bytes, poll %d ms)\n",
                static_cast<long long>(dataset.watermark().epoch),
                static_cast<unsigned long long>(
                    dataset.watermark().sealed_bytes),
                server_cfg.live_poll_ms);
  }
  std::printf("s2sd: listening on %s:%u (%zu records, %zu timelines, "
              "%zu ping pairs, %zu reactors%s)\n",
              host.c_str(), static_cast<unsigned>(server.port()),
              dataset.ingest().records, dataset.timelines().timeline_count(),
              dataset.pings().pair_count(), server.reactor_count(),
              server.reactor_count() > 1 ? ", reuseport" : "");
  const auto pairs = dataset.trace_pairs();
  if (!pairs.empty()) {
    std::printf("s2sd: example pair: src=%u dst=%u family=%u\n",
                pairs.front().src, pairs.front().dst,
                static_cast<unsigned>(pairs.front().family));
  }
  std::fflush(stdout);

  {
    obs::TraceSpan root("s2sd");
    server.serve();
  }
  g_server = nullptr;

  std::printf("s2sd: drained after %llu requests (%llu reaped, %llu reloads)\n",
              static_cast<unsigned long long>(server.requests_served()),
              static_cast<unsigned long long>(server.connections_reaped()),
              static_cast<unsigned long long>(server.reloads()));

  if (want_report) {
    obs::RunReport report = obs::build_run_report("s2sd");
    server.export_metrics(report.counters, report.gauges);
    report.windowed = server.windowed_snapshots();
    report.slo = server.slo_stats();
    if (obs::write_text_file(report_path, report.to_json())) {
      obs::logf(obs::LogLevel::kInfo, "run report: %s", report_path.c_str());
    } else {
      return 1;
    }
  }
  return 0;
}
