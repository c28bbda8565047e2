// s2s_chaos — deterministic TCP fault injector for the serving path
// (DESIGN.md section 12).
//
//   s2s_chaos --upstream-port N [options]
//
// Options:
//   --host A               bind address            (default 127.0.0.1)
//   --port N               listen port             (default 0 = ephemeral)
//   --upstream-host A      upstream address        (default 127.0.0.1)
//   --seed N               fault-draw seed         (default 99)
//   --latency-ms N         base one-way delay per chunk
//   --jitter-ms N          extra uniform delay in [0, N)
//   --bandwidth-bps N      per-direction byte/s cap (0 = uncapped)
//   --reset-prob P         per-chunk connection reset probability
//   --truncate-prob P      per-chunk mid-frame truncation probability
//   --stall-prob P         per-chunk half-open stall probability
//   --corrupt-prob P       per-chunk single-byte corruption probability
//   --blackout-first N     close the first N accepted connections unserved
//   --stall-first N        stall upstream->client on the first N connections
//   --report PATH          RunReport JSON on shutdown (default none)
//
// Prints "s2s_chaos: listening on HOST:PORT" once ready (scripts parse
// this line), relays until SIGINT/SIGTERM, then prints the injected-
// fault ground truth as JSON on stdout. Exit status: 0 on clean drain,
// 1 on startup failure, 2 on usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "faultsim/chaos_proxy.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: s2s_chaos --upstream-port N [--host A] [--port N]\n"
               "                 [--upstream-host A] [--seed N]\n"
               "                 [--latency-ms N] [--jitter-ms N]\n"
               "                 [--bandwidth-bps N] [--reset-prob P]\n"
               "                 [--truncate-prob P] [--stall-prob P]\n"
               "                 [--corrupt-prob P] [--blackout-first N]\n"
               "                 [--stall-first N] [--report PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s2s;

  faultsim::ChaosConfig cfg;
  std::string report_path;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (!std::strcmp(argv[i], "--host")) cfg.bind_address = next();
    else if (!std::strcmp(argv[i], "--port")) {
      cfg.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--upstream-host")) {
      cfg.upstream_host = next();
    } else if (!std::strcmp(argv[i], "--upstream-port")) {
      cfg.upstream_port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--seed")) {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--latency-ms")) {
      cfg.latency_ms = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--jitter-ms")) {
      cfg.jitter_ms = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--bandwidth-bps")) {
      cfg.bytes_per_sec = static_cast<std::size_t>(
          std::strtoull(next(), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--reset-prob")) {
      cfg.reset_prob = std::atof(next());
    } else if (!std::strcmp(argv[i], "--truncate-prob")) {
      cfg.truncate_prob = std::atof(next());
    } else if (!std::strcmp(argv[i], "--stall-prob")) {
      cfg.stall_prob = std::atof(next());
    } else if (!std::strcmp(argv[i], "--corrupt-prob")) {
      cfg.corrupt_prob = std::atof(next());
    } else if (!std::strcmp(argv[i], "--blackout-first")) {
      cfg.blackout_first_conns = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--stall-first")) {
      cfg.stall_first_conns = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--report")) {
      report_path = next();
    } else {
      return usage();
    }
  }
  if (cfg.upstream_port == 0) return usage();

  obs::MetricsRegistry::global().reset();

  faultsim::ChaosProxy proxy(cfg);
  std::string error;
  if (!proxy.start(error)) {
    std::fprintf(stderr, "s2s_chaos: %s\n", error.c_str());
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
#ifdef SIGPIPE
  std::signal(SIGPIPE, SIG_IGN);
#endif

  std::printf("s2s_chaos: listening on %s:%u (upstream %s:%u, seed %llu)\n",
              cfg.bind_address.c_str(), static_cast<unsigned>(proxy.port()),
              cfg.upstream_host.c_str(),
              static_cast<unsigned>(cfg.upstream_port),
              static_cast<unsigned long long>(cfg.seed));
  std::fflush(stdout);

  while (g_stop == 0) {
    struct timespec ts = {0, 50 * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
  }
  proxy.stop();

  const auto s = proxy.stats();
  std::printf(
      "{\"connections\":%llu,\"blackouts\":%llu,\"chunks_forwarded\":%llu,"
      "\"bytes_forwarded\":%llu,\"corrupted\":%llu,\"truncated\":%llu,"
      "\"resets\":%llu,\"stalls\":%llu,\"delayed_chunks\":%llu,"
      "\"failure_faults\":%llu}\n",
      static_cast<unsigned long long>(s.connections),
      static_cast<unsigned long long>(s.blackouts),
      static_cast<unsigned long long>(s.chunks_forwarded),
      static_cast<unsigned long long>(s.bytes_forwarded),
      static_cast<unsigned long long>(s.corrupted),
      static_cast<unsigned long long>(s.truncated),
      static_cast<unsigned long long>(s.resets),
      static_cast<unsigned long long>(s.stalls),
      static_cast<unsigned long long>(s.delayed_chunks),
      static_cast<unsigned long long>(s.failure_faults()));

  if (!report_path.empty()) {
    obs::RunReport report = obs::build_run_report("s2s_chaos");
    proxy.export_metrics(report.counters);
    if (!obs::write_text_file(report_path, report.to_json())) return 1;
    obs::logf(obs::LogLevel::kInfo, "run report: %s", report_path.c_str());
  }
  return 0;
}
