// s2s_query — one-shot client for a running s2sd (DESIGN.md section 11).
//
//   s2s_query [--host A] --port N <command> [args]
//
// Commands:
//   ping                          liveness echo
//   stats                         server + dataset counters
//   live                          live-ingest status: watermark epoch,
//                                 sealed bytes, lag, pairs tracked
//   pair-rtt SRC DST FAM          RTT quantiles (add --series for samples)
//   prevalence SRC DST FAM [CAP]  ranked AS-path prevalence
//   verdict SRC DST FAM           congestion verdict for the ping series
//   dualstack SRC DST             matched v4-v6 RTT deltas
//   figure N                      figure digest (1, 2, 5 or 10)
//   slice T0 T1                   zero-copy archive slice: blocks whose
//                                 time span intersects [T0, T1] seconds,
//                                 returned as a raw `.s2sb` image; prints
//                                 a JSON summary (record/block counts),
//                                 or add --out PATH to save the image
//   scrape [prom|json]            live metrics dump (default prom); the
//                                 Prometheus text is what a scraper
//                                 ingests, the JSON is what s2s_top reads
//
// --no-cache asks the server to skip the result-cache lookup (the
// response is still inserted). Prints the response JSON payload on
// stdout. Exit status: 0 = ok response, 1 = server error frame,
// 2 = usage, transport failure, or retries exhausted.
//
// Resilience flags (DESIGN.md section 12):
//   --timeout-ms N      per-attempt deadline          (default 10000)
//   --retries N         attempts after the first      (default 0)
//   --hedge             race a second connection when the primary is
//                       silent past --hedge-delay-ms  (default 150)
//   --burst N           first pipeline N copies of the request on one
//                       raw connection and report ok/busy counts on
//                       stderr (exercises server admission control),
//                       then run the real retried call
//   --trace             stamp the request with a trace context
//                       (kFlagTraceContext) so the server's span adopts
//                       this call's trace id
//   --report PATH       write a RunReport JSON (s2s.svc.retry.* counters)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "io/binrec.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "svc/client.h"
#include "svc/protocol.h"
#include "svc/retry_client.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: s2s_query [--host A] --port N [--no-cache] "
               "[--series]\n"
               "  [--timeout-ms N] [--retries N] [--hedge] "
               "[--hedge-delay-ms N]\n"
               "  [--burst N] [--trace] [--report PATH] [--out PATH] "
               "<command>\n"
               "  ping | stats | live | scrape [prom|json] | figure N |\n"
               "  dualstack SRC DST | pair-rtt SRC DST FAM |\n"
               "  prevalence SRC DST FAM [CAP] | verdict SRC DST FAM |\n"
               "  slice T0 T1\n");
  return 2;
}

/// Pipelines `count` copies of the frame on one throwaway connection and
/// counts the responses by kind; how a script provokes (and proves)
/// ordered busy shedding without a concurrent client fleet.
bool run_burst(const std::string& host, std::uint16_t port, int count,
               const std::string& frame, std::string& error) {
  s2s::svc::Client raw;
  if (!raw.connect(host, port, error)) return false;
  std::string wire;
  for (int i = 0; i < count; ++i) wire += frame;
  if (!raw.send_bytes(wire, error)) return false;
  int ok = 0, busy = 0, other = 0;
  for (int i = 0; i < count; ++i) {
    s2s::svc::MsgType type;
    std::string payload;
    if (!raw.read_frame(&type, &payload, error)) return false;
    if (type != s2s::svc::MsgType::kError) {
      ++ok;
    } else if (s2s::svc::parse_error_payload(payload).code == "busy") {
      ++busy;
    } else {
      ++other;
    }
  }
  std::fprintf(stderr, "s2s_query: burst %d: ok=%d busy=%d other=%d\n",
               count, ok, busy, other);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s2s;

  std::string host = "127.0.0.1";
  int port = 0;
  bool no_cache = false;
  bool series = false;
  int burst = 0;
  std::string report_path;
  std::string out_path;
  svc::RetryPolicy policy;
  policy.timeout_ms = 10000;
  policy.max_retries = 0;
  std::vector<std::string> words;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (!std::strcmp(argv[i], "--host")) host = next();
    else if (!std::strcmp(argv[i], "--port")) port = std::atoi(next());
    else if (!std::strcmp(argv[i], "--no-cache")) no_cache = true;
    else if (!std::strcmp(argv[i], "--series")) series = true;
    else if (!std::strcmp(argv[i], "--timeout-ms")) {
      policy.timeout_ms = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--retries")) {
      policy.max_retries = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--hedge")) {
      policy.hedge = true;
    } else if (!std::strcmp(argv[i], "--hedge-delay-ms")) {
      policy.hedge_delay_ms = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--burst")) {
      burst = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--trace")) {
      policy.trace = true;
    } else if (!std::strcmp(argv[i], "--report")) {
      report_path = next();
    } else if (!std::strcmp(argv[i], "--out")) {
      out_path = next();
    } else {
      words.emplace_back(argv[i]);
    }
  }
  if (port <= 0 || port > 65535 || words.empty()) return usage();
  const std::string& command = words[0];

  auto pair_args = [&](std::size_t want, svc::PairQuery& q) {
    if (words.size() < 1 + want) return false;
    q.src = static_cast<std::uint32_t>(std::strtoul(words[1].c_str(),
                                                    nullptr, 10));
    q.dst = static_cast<std::uint32_t>(std::strtoul(words[2].c_str(),
                                                    nullptr, 10));
    if (want >= 3) {
      q.family = static_cast<std::uint8_t>(std::atoi(words[3].c_str()));
    }
    return true;
  };

  svc::MsgType type;
  std::string payload;
  if (command == "ping") {
    type = svc::MsgType::kPingEcho;
  } else if (command == "stats") {
    type = svc::MsgType::kServerStats;
  } else if (command == "live") {
    type = svc::MsgType::kLiveStatus;
  } else if (command == "pair-rtt") {
    svc::PairQuery q;
    if (!pair_args(3, q)) return usage();
    q.arg = series ? 1 : 0;
    type = svc::MsgType::kPairRtt;
    payload = svc::encode_pair_query(q);
  } else if (command == "prevalence") {
    svc::PairQuery q;
    if (!pair_args(3, q)) return usage();
    if (words.size() >= 5) {
      q.arg = static_cast<std::uint8_t>(std::atoi(words[4].c_str()));
    }
    type = svc::MsgType::kPathPrevalence;
    payload = svc::encode_pair_query(q);
  } else if (command == "verdict") {
    svc::PairQuery q;
    if (!pair_args(3, q)) return usage();
    type = svc::MsgType::kCongestionVerdict;
    payload = svc::encode_pair_query(q);
  } else if (command == "dualstack") {
    svc::PairQuery p;
    if (!pair_args(2, p)) return usage();
    svc::DualStackQuery q;
    q.src = p.src;
    q.dst = p.dst;
    type = svc::MsgType::kDualStackDelta;
    payload = svc::encode_dualstack_query(q);
  } else if (command == "figure") {
    if (words.size() < 2) return usage();
    svc::FigureQuery q;
    q.figure = static_cast<std::uint8_t>(std::atoi(words[1].c_str()));
    type = svc::MsgType::kFigureDigest;
    payload = svc::encode_figure_query(q);
  } else if (command == "slice") {
    if (words.size() < 3) return usage();
    svc::SliceQuery q;
    q.t0_s = std::strtoll(words[1].c_str(), nullptr, 10);
    q.t1_s = std::strtoll(words[2].c_str(), nullptr, 10);
    type = svc::MsgType::kArchiveSlice;
    payload = svc::encode_slice_query(q);
  } else if (command == "scrape") {
    svc::MetricsDumpQuery q;
    q.format = svc::MetricsDumpQuery::kPrometheus;
    if (words.size() >= 2 && words[1] == "json") {
      q.format = svc::MetricsDumpQuery::kJson;
    } else if (words.size() >= 2 && words[1] != "prom") {
      return usage();
    }
    type = svc::MsgType::kMetricsDump;
    payload = svc::encode_metrics_dump_query(q);
  } else {
    return usage();
  }

  obs::MetricsRegistry::global().reset();
  std::string error;
  const std::uint8_t flags = no_cache ? svc::kFlagNoCache : 0;

  if (burst > 0 &&
      !run_burst(host, static_cast<std::uint16_t>(port), burst,
                 svc::encode_frame(type, flags, payload), error)) {
    std::fprintf(stderr, "s2s_query: burst failed: %s\n", error.c_str());
    return 2;
  }

  svc::RetryingClient client(host, static_cast<std::uint16_t>(port), policy);
  svc::MsgType response_type;
  std::string response;
  const bool called =
      client.call(type, flags, payload, &response_type, &response, error);

  if (!report_path.empty()) {
    obs::RunReport report = obs::build_run_report("s2s_query");
    client.export_metrics(report.counters);
    obs::write_text_file(report_path, report.to_json());
  }
  if (!called) {
    std::fprintf(stderr, "s2s_query: %s\n", error.c_str());
    return 2;
  }
  const auto& rs = client.stats();
  if (rs.retries > 0 || rs.hedges > 0) {
    std::fprintf(stderr,
                 "s2s_query: attempts=%llu retries=%llu failed=%llu "
                 "busy_rescheduled=%llu hedges=%llu\n",
                 static_cast<unsigned long long>(rs.attempts),
                 static_cast<unsigned long long>(rs.retries),
                 static_cast<unsigned long long>(rs.failed_attempts),
                 static_cast<unsigned long long>(rs.busy_rescheduled),
                 static_cast<unsigned long long>(rs.hedges));
  }
  if (command == "slice" && response_type != svc::MsgType::kError) {
    // The payload is a raw `.s2sb` image sliced zero-copy out of the
    // server's mmap'd archive; prove it parses and summarize it instead
    // of dumping binary to the terminal.
    io::BinRecordMmapReader reader(response.data(), response.size());
    if (!reader.ok()) {
      std::fprintf(stderr, "s2s_query: slice image unreadable: %s\n",
                   reader.error().c_str());
      return 2;
    }
    std::size_t traces = 0, pings = 0;
    reader.read_all([&](const auto&) { ++traces; },
                    [&](const auto&) { ++pings; });
    if (!out_path.empty() &&
        !obs::write_text_file(out_path, response)) {
      std::fprintf(stderr, "s2s_query: cannot write %s\n", out_path.c_str());
      return 2;
    }
    obs::json::Writer w;
    w.begin_object();
    w.key("type").value("archive_slice");
    w.key("bytes").value(static_cast<std::uint64_t>(response.size()));
    w.key("blocks").value(
        static_cast<std::uint64_t>(reader.blocks_read()));
    w.key("corrupt_blocks")
        .value(static_cast<std::uint64_t>(reader.corrupt_blocks()));
    w.key("trace_records").value(static_cast<std::uint64_t>(traces));
    w.key("ping_records").value(static_cast<std::uint64_t>(pings));
    if (!out_path.empty()) w.key("saved").value(out_path);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf("%s\n", response.c_str());
  return response_type == svc::MsgType::kError ? 1 : 0;
}
