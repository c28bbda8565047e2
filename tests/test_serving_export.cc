// One source for every serving fact (DESIGN.md section 13): the server,
// its result caches, the retrying client and the chaos proxy each count
// a fact once, in their own typed counters, and export those counters
// on demand. These tests hold the three places an operator reads the
// server's counters — the metrics-dump JSON, the Prometheus text and
// the RunReport s2sd writes — to one value per fact, and the export to
// per-server scope.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/pool.h"
#include "faultsim/chaos_proxy.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/prometheus.h"
#include "obs/run_report.h"
#include "reactor_gate.h"
#include "svc/client.h"
#include "svc/dataset.h"
#include "svc/protocol.h"
#include "svc/retry_client.h"
#include "svc/server.h"

namespace s2s {
namespace {

using Counters = std::map<std::string, std::uint64_t>;

struct ExportWorld {
  svc::DatasetConfig cfg;
  std::unique_ptr<svc::Dataset> dataset;
};

ExportWorld& world() {
  static ExportWorld* w = [] {
    auto* world = new ExportWorld;
    world->cfg.archive_path = ::testing::TempDir() + "s2s_test_export_" +
                              std::to_string(::getpid()) + ".s2sb";
    svc::FixtureParams params;
    params.trace_days = 7.0;
    params.ping_days = 3.0;
    params.max_trace_pairs = 6;
    params.max_ping_pairs = 24;
    std::string error;
    if (!svc::write_fixture_archive(world->cfg.archive_path, world->cfg,
                                    params, error)) {
      ADD_FAILURE() << "fixture write failed: " << error;
    }
    world->dataset = std::make_unique<svc::Dataset>(world->cfg);
    if (!world->dataset->load(error)) {
      ADD_FAILURE() << "fixture load failed: " << error;
    }
    return world;
  }();
  return *w;
}

/// A served dataset on an ephemeral port, event loop on its own thread.
class TestServer {
 public:
  explicit TestServer(svc::ServerConfig cfg = {})
      : pool_(2), server_(*world().dataset, &pool_, cfg) {
    std::string error;
    if (!server_.start(error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    thread_ = std::thread([this] { server_.serve(); });
  }
  ~TestServer() { drain(); }

  void drain() {
    if (thread_.joinable()) {
      server_.request_drain();
      thread_.join();
    }
  }

  svc::Server& server() { return server_; }

  svc::Client connect() {
    svc::Client client;
    std::string error;
    EXPECT_TRUE(client.connect("127.0.0.1", server_.port(), error)) << error;
    return client;
  }

 private:
  exec::ThreadPool pool_;
  svc::Server server_;
  std::thread thread_;
};

std::string must_call(svc::Client& client, svc::MsgType type,
                      std::uint8_t flags, std::string_view payload) {
  svc::MsgType rtype;
  std::string rpayload;
  std::string error;
  EXPECT_TRUE(client.call(type, flags, payload, &rtype, &rpayload, error))
      << error;
  EXPECT_EQ(rtype, svc::MsgType::kOk)
      << svc::type_name(type) << ": " << rpayload;
  return rpayload;
}

/// Reads `count` response frames in arrival order.
std::vector<std::pair<svc::MsgType, std::string>> read_responses(
    svc::Client& client, int count) {
  std::vector<std::pair<svc::MsgType, std::string>> out;
  std::string error;
  for (int i = 0; i < count; ++i) {
    svc::MsgType rtype;
    std::string rpayload;
    EXPECT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
    out.emplace_back(rtype, rpayload);
  }
  return out;
}

std::string metrics_dump(svc::Client& client, std::uint8_t format) {
  svc::MetricsDumpQuery q;
  q.format = format;
  return must_call(client, svc::MsgType::kMetricsDump, 0,
                   svc::encode_metrics_dump_query(q));
}

/// The "s2s.svc.*" counters of a metrics-dump JSON document.
Counters dump_counters(const std::string& json) {
  Counters out;
  const auto doc = obs::json::parse(json);
  EXPECT_TRUE(doc.has_value()) << json.substr(0, 200);
  if (!doc) return out;
  const auto* counters = doc->find("counters");
  EXPECT_NE(counters, nullptr);
  if (counters == nullptr) return out;
  for (const auto& [name, v] : counters->object) {
    if (name.rfind("s2s.svc.", 0) == 0) out[name] = v.as_u64();
  }
  return out;
}

/// Prometheus exposition text as sample name -> value text.
std::map<std::string, std::string> prometheus_samples(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = line.substr(space + 1);
  }
  return out;
}

std::string ping_frame() {
  return svc::encode_frame(svc::MsgType::kPingEcho, 0, "");
}

TEST(ServingExport, EveryServingCounterReadsOneValueInThreePlaces) {
  svc::ServerConfig cfg;
  cfg.max_client_pending = 2;
  cfg.max_inflight = 3;
  cfg.max_pending_cost = 100;  // below one figure digest (128)
  cfg.slow_query_us = 1;       // every request is a slow query
  cfg.slo_ms = 1e6;            // and every one meets the SLO
  TestServer ts(cfg);
  ReactorGate gate;  // released before the server drains
  svc::Client a = ts.connect();
  svc::Client b = ts.connect();
  svc::Client c = ts.connect();
  must_call(a, svc::MsgType::kPingEcho, 0, "");
  must_call(b, svc::MsgType::kPingEcho, 0, "");

  // A cache miss whose slow-query line holds the reactor while a and b
  // queue their bursts.
  const auto pairs = world().dataset->trace_pairs();
  ASSERT_FALSE(pairs.empty());
  const std::string pair_query = svc::encode_pair_query(
      {pairs.front().src, pairs.front().dst, pairs.front().family, 0});
  gate.arm("\"type\":\"pair_rtt\"");
  must_call(c, svc::MsgType::kPairRtt, 0, pair_query);
  ASSERT_TRUE(gate.wait_held());
  std::string error;
  // a: two admitted, the third trips the per-connection bound.
  ASSERT_TRUE(a.send_bytes(ping_frame() + ping_frame() + ping_frame(), error))
      << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // b: a figure digest over the cost budget, one admitted ping, then a
  // ping past the reactor's inflight cap.
  svc::FigureQuery figure;
  figure.figure = 2;
  ASSERT_TRUE(b.send_bytes(svc::encode_frame(svc::MsgType::kFigureDigest, 0,
                                             svc::encode_figure_query(figure)) +
                               ping_frame() + ping_frame(),
                           error))
      << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();
  const auto from_a = read_responses(a, 3);
  const auto from_b = read_responses(b, 3);
  EXPECT_EQ(from_a[0].first, svc::MsgType::kOk);
  EXPECT_EQ(from_a[1].first, svc::MsgType::kOk);
  EXPECT_NE(from_a[2].second.find("per-connection queue full"),
            std::string::npos)
      << from_a[2].second;
  EXPECT_NE(from_b[0].second.find("pending cost budget exceeded"),
            std::string::npos)
      << from_b[0].second;
  EXPECT_EQ(from_b[1].first, svc::MsgType::kOk);
  EXPECT_NE(from_b[2].second.find("too many requests in flight"),
            std::string::npos)
      << from_b[2].second;

  // A hit, a no-cache bypass and a bad-CRC frame (connection survives).
  must_call(c, svc::MsgType::kPairRtt, 0, pair_query);
  must_call(c, svc::MsgType::kPairRtt, svc::kFlagNoCache, pair_query);
  std::string bad = svc::encode_frame(svc::MsgType::kPingEcho, 0, "x");
  bad.back() ^= 0x01;
  ASSERT_TRUE(c.send_bytes(bad, error)) << error;
  const auto crc = read_responses(c, 1);
  EXPECT_EQ(svc::parse_error_payload(crc[0].second).code, "bad_crc");

  // The three places, read in this order over one connection.
  const std::string json_text = metrics_dump(c, svc::MetricsDumpQuery::kJson);
  const std::string prom_text =
      metrics_dump(c, svc::MetricsDumpQuery::kPrometheus);
  ts.drain();
  obs::RunReport built = obs::build_run_report("s2sd");
  ts.server().export_metrics(built.counters, built.gauges);
  const auto report = obs::RunReport::parse(built.to_json());
  ASSERT_TRUE(report.has_value());

  const Counters json = dump_counters(json_text);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.at("s2s.svc.busy_rejected"), 3u);
  EXPECT_EQ(json.at("s2s.svc.shed.client"), 1u);
  EXPECT_EQ(json.at("s2s.svc.shed.cost"), 1u);
  EXPECT_EQ(json.at("s2s.svc.shed.inflight"), 1u);
  EXPECT_EQ(json.at("s2s.svc.protocol_errors"), 1u);
  EXPECT_EQ(json.at("s2s.svc.cache_misses"), 1u);
  EXPECT_EQ(json.at("s2s.svc.cache_hits"), 1u);
  EXPECT_EQ(json.at("s2s.svc.cache_insertions"), 1u);
  EXPECT_EQ(json.at("s2s.svc.conns_accepted"), 3u);
  EXPECT_EQ(json.at("s2s.svc.conns_reaped"), 0u);
  EXPECT_GE(json.at("s2s.svc.slow_queries.emitted"), 1u);

  // Each read is itself a request: what it moves, and by how much. It
  // also logs itself as a slow query, emitted or suppressed by the rate
  // limit, so those two counters move by one between them.
  const auto frame_bytes = [](const std::string& payload) {
    return static_cast<std::uint64_t>(svc::kFrameHeaderBytes + payload.size());
  };
  const std::uint64_t dump_request = svc::kFrameHeaderBytes + 1;
  Counters json_to_prom = {{"s2s.svc.requests", 1},
                           {"s2s.svc.bytes_rx", dump_request},
                           {"s2s.svc.bytes_tx", frame_bytes(json_text)},
                           {"s2s.svc.slo.metrics_dump.good", 1},
                           {"s2s.svc.slo.metrics_dump.total", 1}};
  Counters prom_to_report = {{"s2s.svc.bytes_tx", frame_bytes(prom_text)},
                             {"s2s.svc.slo.metrics_dump.good", 1},
                             {"s2s.svc.slo.metrics_dump.total", 1}};

  const auto prom = prometheus_samples(prom_text);
  Counters report_svc;
  for (const auto& [name, v] : report->counters) {
    if (name.rfind("s2s.svc.", 0) == 0) report_svc[name] = v;
  }
  EXPECT_EQ(report_svc.size(), json.size());
  std::uint64_t slow_json = 0, slow_prom = 0, slow_report = 0;
  for (const auto& [name, value] : json) {
    // Counters gain the conventional suffix unless they already end in it
    // (s2s.svc.slo.<type>.total).
    std::string prom_name = obs::prometheus_name(name);
    if (!prom_name.ends_with("_total")) prom_name += "_total";
    const auto sample = prom.find(prom_name);
    ASSERT_NE(sample, prom.end()) << name;
    const std::uint64_t in_prom = std::stoull(sample->second);
    ASSERT_TRUE(report_svc.count(name)) << name;
    if (name.starts_with("s2s.svc.slow_queries.")) {
      EXPECT_LE(value, in_prom) << name;
      EXPECT_LE(in_prom, report_svc.at(name)) << name;
      slow_json += value;
      slow_prom += in_prom;
      slow_report += report_svc.at(name);
      continue;
    }
    EXPECT_EQ(in_prom, value + json_to_prom[name]) << name;
    EXPECT_EQ(report_svc.at(name), in_prom + prom_to_report[name]) << name;
  }
  EXPECT_EQ(slow_prom, slow_json + 1);
  EXPECT_EQ(slow_report, slow_prom + 1);
}

TEST(ServingExport, EachServerReportsOnlyItsOwnRequests) {
  constexpr int kFirstRequests = 40;
  {
    TestServer first;
    svc::Client client = first.connect();
    std::thread load([&] {
      for (int i = 0; i < kFirstRequests; ++i) {
        must_call(client, svc::MsgType::kPingEcho, 0, "");
      }
    });
    // The export reads the reactor's counters while it serves.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    std::uint64_t last = 0;
    while (last < static_cast<std::uint64_t>(kFirstRequests) &&
           std::chrono::steady_clock::now() < deadline) {
      Counters counters;
      std::map<std::string, double> gauges;
      first.server().export_metrics(counters, gauges);
      EXPECT_GE(counters.at("s2s.svc.requests"), last);
      last = counters.at("s2s.svc.requests");
      std::this_thread::yield();
    }
    load.join();
    EXPECT_EQ(last, static_cast<std::uint64_t>(kFirstRequests));
  }
  TestServer second;
  svc::Client client = second.connect();
  must_call(client, svc::MsgType::kPingEcho, 0, "");
  const Counters counters =
      dump_counters(metrics_dump(client, svc::MetricsDumpQuery::kJson));
  ASSERT_TRUE(counters.count("s2s.svc.requests"));
  // The ping and the dump itself; nothing of the first server's.
  EXPECT_EQ(counters.at("s2s.svc.requests"), 2u);
  EXPECT_EQ(counters.at("s2s.svc.conns_accepted"), 1u);
}

TEST(ServingExport, RetryClientAndChaosProxyExportTheirStats) {
  TestServer ts;
  faultsim::ChaosConfig ccfg;
  ccfg.seed = 31;
  ccfg.upstream_port = ts.server().port();
  ccfg.blackout_first_conns = 2;
  faultsim::ChaosProxy proxy(ccfg);
  std::string error;
  ASSERT_TRUE(proxy.start(error)) << error;
  svc::RetryPolicy policy;
  policy.max_retries = 5;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 5;
  svc::RetryingClient client("127.0.0.1", proxy.port(), policy);
  for (int i = 0; i < 3; ++i) {
    svc::MsgType rtype;
    std::string rpayload;
    ASSERT_TRUE(client.call(svc::MsgType::kPingEcho, 0, "", &rtype,
                            &rpayload, error))
        << error;
  }

  proxy.stop();
  Counters chaos_export;
  proxy.export_metrics(chaos_export);
  const faultsim::ChaosStats cs = proxy.stats();
  EXPECT_EQ(cs.blackouts, 2u);
  const Counters chaos_expected = {
      {"s2s.chaos.connections", cs.connections},
      {"s2s.chaos.blackouts", cs.blackouts},
      {"s2s.chaos.corrupted", cs.corrupted},
      {"s2s.chaos.truncated", cs.truncated},
      {"s2s.chaos.resets", cs.resets},
      {"s2s.chaos.stalls", cs.stalls},
      {"s2s.chaos.bytes_forwarded", cs.bytes_forwarded}};
  EXPECT_EQ(chaos_export, chaos_expected);

  Counters retry_export;
  client.export_metrics(retry_export);
  const svc::RetryStats& rs = client.stats();
  EXPECT_EQ(rs.failed_attempts, 2u);
  const Counters retry_expected = {
      {"s2s.svc.retry.attempts", rs.attempts},
      {"s2s.svc.retry.retries", rs.retries},
      {"s2s.svc.retry.failed_attempts", rs.failed_attempts},
      {"s2s.svc.retry.timeouts", rs.timeouts},
      {"s2s.svc.retry.reconnects", rs.reconnects},
      {"s2s.svc.retry.busy_rescheduled", rs.busy_rescheduled},
      {"s2s.svc.retry.hedges", rs.hedges},
      {"s2s.svc.retry.hedge_wins", rs.hedge_wins},
      {"s2s.svc.retry.breaker_fast_fails", rs.breaker_fast_fails},
      {"s2s.svc.retry.giveups", rs.giveups}};
  EXPECT_EQ(retry_export, retry_expected);
}

}  // namespace
}  // namespace s2s
