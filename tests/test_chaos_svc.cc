// End-to-end fault tolerance for the serving path (DESIGN.md section 12):
// a seeded faultsim::ChaosProxy sits between a RetryingClient and a live
// server, and every fault class must (a) converge to responses
// byte-identical to a fault-free run, (b) never crash the daemon, and
// (c) reconcile exactly — the faults the proxy injected equal the failed
// attempts the client counted, fault by fault, because both sides draw
// from seeded deterministic streams. Overload tests hold the server's
// cost-based admission control to the same exactness standard, and the
// startup suite proves the archive-health diagnostic catches what
// recover_archive() then fixes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/pool.h"
#include "faultsim/chaos_proxy.h"
#include "io/binrec.h"
#include "obs/metrics.h"
#include "reactor_gate.h"
#include "svc/client.h"
#include "svc/dataset.h"
#include "svc/protocol.h"
#include "svc/retry_client.h"
#include "svc/server.h"

namespace s2s {
namespace {

svc::FixtureParams fast_fixture_params() {
  svc::FixtureParams params;
  params.trace_days = 7.0;
  params.ping_days = 3.0;
  params.max_trace_pairs = 6;
  params.max_ping_pairs = 24;
  return params;
}

struct ChaosWorld {
  svc::DatasetConfig cfg;
  std::unique_ptr<svc::Dataset> dataset;
};

ChaosWorld& world() {
  static ChaosWorld* w = [] {
    auto* world = new ChaosWorld;
    world->cfg.archive_path = ::testing::TempDir() + "s2s_test_chaos_" +
                              std::to_string(::getpid()) + ".s2sb";
    std::string error;
    if (!svc::write_fixture_archive(world->cfg.archive_path, world->cfg,
                                    fast_fixture_params(), error)) {
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

class TestServer {
 public:
  explicit TestServer(svc::Dataset& dataset, unsigned threads = 2,
                      svc::ServerConfig cfg = {})
      : pool_(threads), server_(dataset, &pool_, cfg) {
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
  std::uint16_t port() const { return server_.port(); }

 private:
  exec::ThreadPool pool_;
  svc::Server server_;
  std::thread thread_;
};

/// The mixed read-only workload every chaos run replays: small frames
/// (ping, pair queries) plus the heavyweight figure digests.
std::vector<std::pair<svc::MsgType, std::string>> chaos_workload(
    bool small_frames_only = false) {
  const auto pairs = world().dataset->trace_pairs();
  EXPECT_FALSE(pairs.empty());
  svc::PairQuery q;
  q.src = pairs.front().src;
  q.dst = pairs.front().dst;
  q.family = pairs.front().family;
  std::vector<std::pair<svc::MsgType, std::string>> out;
  for (int round = 0; round < 4; ++round) {
    out.emplace_back(svc::MsgType::kPingEcho, "");
    out.emplace_back(svc::MsgType::kPairRtt, svc::encode_pair_query(q));
    out.emplace_back(svc::MsgType::kPathPrevalence,
                     svc::encode_pair_query(q));
    if (small_frames_only) continue;
    out.emplace_back(svc::MsgType::kCongestionVerdict,
                     svc::encode_pair_query(q));
    svc::FigureQuery f;
    f.figure = round < 2 ? 1 : 2;
    out.emplace_back(svc::MsgType::kFigureDigest, svc::encode_figure_query(f));
  }
  return out;
}

/// Fault-free ground truth, collected over a direct connection.
std::vector<std::string> baseline_responses(
    TestServer& ts,
    const std::vector<std::pair<svc::MsgType, std::string>>& workload) {
  svc::Client client;
  std::string error;
  EXPECT_TRUE(client.connect("127.0.0.1", ts.port(), error)) << error;
  std::vector<std::string> out;
  for (const auto& [type, payload] : workload) {
    svc::MsgType rtype;
    std::string rpayload;
    EXPECT_TRUE(client.call(type, 0, payload, &rtype, &rpayload, error))
        << error;
    EXPECT_EQ(rtype, svc::MsgType::kOk) << rpayload;
    out.push_back(rpayload);
  }
  return out;
}

struct ChaosOutcome {
  std::vector<std::string> responses;
  svc::RetryStats retry;
  faultsim::ChaosStats chaos;
};

/// Replays the workload through a chaos proxy with a retrying client;
/// every call must converge to an kOk response despite the faults.
ChaosOutcome run_through_chaos(
    TestServer& ts, faultsim::ChaosConfig ccfg, svc::RetryPolicy policy,
    const std::vector<std::pair<svc::MsgType, std::string>>& workload) {
  ChaosOutcome out;
  ccfg.upstream_port = ts.port();
  faultsim::ChaosProxy proxy(ccfg);
  std::string error;
  EXPECT_TRUE(proxy.start(error)) << error;
  svc::RetryingClient client("127.0.0.1", proxy.port(), policy);
  for (const auto& [type, payload] : workload) {
    svc::MsgType rtype;
    std::string rpayload;
    const bool ok = client.call(type, 0, payload, &rtype, &rpayload, error);
    EXPECT_TRUE(ok) << svc::type_name(type) << ": " << error;
    if (!ok) break;
    EXPECT_EQ(rtype, svc::MsgType::kOk) << rpayload;
    out.responses.push_back(rpayload);
  }
  out.retry = client.stats();
  proxy.stop();
  out.chaos = proxy.stats();
  return out;
}

svc::RetryPolicy chaos_policy(int timeout_ms = 2000) {
  svc::RetryPolicy policy;
  policy.timeout_ms = timeout_ms;
  policy.max_retries = 12;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 20;
  return policy;
}

std::uint64_t server_counter(const svc::Server& server,
                             const std::string& name) {
  obs::MetricsSnapshot snapshot;
  server.export_metrics(snapshot.counters, snapshot.gauges);
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Fault classes, one at a time: byte identity + exact reconciliation.
// ---------------------------------------------------------------------------

TEST(ChaosSvc, LatencyJitterAndBandwidthAreLossless) {
  TestServer ts(*world().dataset);
  const auto workload = chaos_workload();
  const auto want = baseline_responses(ts, workload);
  faultsim::ChaosConfig ccfg;
  ccfg.seed = 101;
  ccfg.latency_ms = 3;
  ccfg.jitter_ms = 4;
  ccfg.bytes_per_sec = 400'000;
  const auto got = run_through_chaos(ts, ccfg, chaos_policy(), workload);
  EXPECT_EQ(got.responses, want);
  // Pure delay injects zero failures: nothing to retry, only waiting.
  EXPECT_EQ(got.retry.failed_attempts, 0u);
  EXPECT_EQ(got.retry.retries, 0u);
  EXPECT_EQ(got.chaos.failure_faults(), 0u);
  EXPECT_GT(got.chaos.delayed_chunks, 0u);
}

TEST(ChaosSvc, ConnectionResetsReconcileExactly) {
  TestServer ts(*world().dataset);
  const auto workload = chaos_workload();
  const auto want = baseline_responses(ts, workload);
  faultsim::ChaosConfig ccfg;
  ccfg.seed = 202;
  ccfg.reset_prob = 0.06;
  const auto got = run_through_chaos(ts, ccfg, chaos_policy(), workload);
  EXPECT_EQ(got.responses, want);
  // Every injected reset kills exactly one attempt, and nothing else
  // does: injected == observed, not merely "some failures happened".
  EXPECT_GT(got.chaos.resets, 0u) << "seed injected nothing; bump probs";
  EXPECT_EQ(got.retry.failed_attempts, got.chaos.resets);
  EXPECT_EQ(got.retry.timeouts, 0u);
  EXPECT_EQ(got.retry.reconnects, got.chaos.resets);
}

TEST(ChaosSvc, MidFrameTruncationReconcilesExactly) {
  TestServer ts(*world().dataset);
  const auto workload = chaos_workload();
  const auto want = baseline_responses(ts, workload);
  faultsim::ChaosConfig ccfg;
  ccfg.seed = 303;
  ccfg.truncate_prob = 0.06;
  const auto got = run_through_chaos(ts, ccfg, chaos_policy(), workload);
  EXPECT_EQ(got.responses, want);
  EXPECT_GT(got.chaos.truncated, 0u) << "seed injected nothing; bump probs";
  EXPECT_EQ(got.retry.failed_attempts, got.chaos.truncated);
}

TEST(ChaosSvc, HalfOpenStallsTimeOutAndReconcileExactly) {
  TestServer ts(*world().dataset);
  const auto workload = chaos_workload(/*small_frames_only=*/true);
  const auto want = baseline_responses(ts, workload);
  faultsim::ChaosConfig ccfg;
  ccfg.seed = 404;
  ccfg.stall_prob = 0.05;
  const auto got = run_through_chaos(ts, ccfg, chaos_policy(250), workload);
  EXPECT_EQ(got.responses, want);
  EXPECT_GT(got.chaos.stalls, 0u) << "seed injected nothing; bump probs";
  // A half-open stall is only observable as a deadline expiry, so the
  // timeout counter must reconcile too.
  EXPECT_EQ(got.retry.failed_attempts, got.chaos.stalls);
  EXPECT_EQ(got.retry.timeouts, got.chaos.stalls);
}

TEST(ChaosSvc, ByteCorruptionReconcilesExactly) {
  TestServer ts(*world().dataset);
  // Small frames only: one frame = one forwarded chunk, so one corrupted
  // chunk = one failed attempt (either the server's bad_crc error frame
  // or a client-side checksum mismatch).
  const auto workload = chaos_workload(/*small_frames_only=*/true);
  const auto want = baseline_responses(ts, workload);
  faultsim::ChaosConfig ccfg;
  ccfg.seed = 505;
  ccfg.corrupt_prob = 0.07;
  // Short per-attempt deadline: a corrupted length field shifts the
  // frame boundary and the server waits for a phantom payload, so that
  // flavor of corruption surfaces as a timeout.
  const auto got = run_through_chaos(ts, ccfg, chaos_policy(300), workload);
  EXPECT_EQ(got.responses, want);
  EXPECT_GT(got.chaos.corrupted, 0u) << "seed injected nothing; bump probs";
  EXPECT_EQ(got.retry.failed_attempts, got.chaos.corrupted);
}

TEST(ChaosSvc, AcceptBlackoutReconnectStormIsCountedExactly) {
  TestServer ts(*world().dataset);
  faultsim::ChaosConfig ccfg;
  ccfg.seed = 606;
  ccfg.upstream_port = ts.port();
  ccfg.blackout_first_conns = 3;
  faultsim::ChaosProxy proxy(ccfg);
  std::string error;
  ASSERT_TRUE(proxy.start(error)) << error;
  svc::RetryingClient client("127.0.0.1", proxy.port(), chaos_policy());
  svc::MsgType rtype;
  std::string rpayload;
  ASSERT_TRUE(client.call(svc::MsgType::kPingEcho, 0, "", &rtype, &rpayload,
                          error))
      << error;
  EXPECT_EQ(rtype, svc::MsgType::kOk);
  proxy.stop();
  EXPECT_EQ(proxy.stats().blackouts, 3u);
  EXPECT_EQ(client.stats().failed_attempts, 3u);
  EXPECT_EQ(client.stats().reconnects, 3u);
  EXPECT_EQ(client.stats().attempts, 4u);
}

TEST(ChaosSvc, MixedFaultSoupConvergesByteIdentical) {
  TestServer ts(*world().dataset);
  const auto workload = chaos_workload(/*small_frames_only=*/true);
  const auto want = baseline_responses(ts, workload);
  faultsim::ChaosConfig ccfg;
  ccfg.seed = 707;
  ccfg.latency_ms = 1;
  ccfg.jitter_ms = 2;
  ccfg.reset_prob = 0.02;
  ccfg.truncate_prob = 0.02;
  ccfg.stall_prob = 0.02;
  ccfg.corrupt_prob = 0.02;
  const auto got = run_through_chaos(ts, ccfg, chaos_policy(250), workload);
  EXPECT_EQ(got.responses, want);
  EXPECT_GT(got.chaos.failure_faults() + got.chaos.corrupted, 0u);
  EXPECT_EQ(got.retry.failed_attempts,
            got.chaos.failure_faults() + got.chaos.corrupted);
}

TEST(ChaosSvc, MultiReactorFaultSoupConvergesByteIdentical) {
  // The fault soup against a 4-reactor tier: the kernel hashes every
  // reconnect to some reactor's SO_REUSEPORT listener, possibly one with
  // a cold cache, and identity must hold anyway.
  svc::ServerConfig cfg;
  cfg.reactors = 4;
  TestServer ts(*world().dataset, 2, cfg);
  const auto workload = chaos_workload(/*small_frames_only=*/true);
  const auto want = baseline_responses(ts, workload);
  faultsim::ChaosConfig ccfg;
  ccfg.seed = 1001;
  ccfg.reset_prob = 0.03;
  ccfg.truncate_prob = 0.03;
  const auto got = run_through_chaos(ts, ccfg, chaos_policy(), workload);
  EXPECT_EQ(got.responses, want);
  EXPECT_EQ(got.retry.failed_attempts,
            got.chaos.resets + got.chaos.truncated);
  ts.drain();
  EXPECT_GT(ts.server().requests_served(), 0u);
}

TEST(ChaosSvc, HedgeWinsWhenThePrimaryConnectionStalls) {
  TestServer ts(*world().dataset);
  faultsim::ChaosConfig ccfg;
  ccfg.seed = 909;
  ccfg.upstream_port = ts.port();
  ccfg.stall_first_conns = 1;
  faultsim::ChaosProxy proxy(ccfg);
  std::string error;
  ASSERT_TRUE(proxy.start(error)) << error;
  svc::RetryPolicy policy;
  policy.timeout_ms = 3000;
  policy.max_retries = 0;
  policy.hedge = true;
  policy.hedge_delay_ms = 50;
  svc::RetryingClient client("127.0.0.1", proxy.port(), policy);
  svc::MsgType rtype;
  std::string rpayload;
  ASSERT_TRUE(client.call(svc::MsgType::kPingEcho, 0, "", &rtype, &rpayload,
                          error))
      << error;
  EXPECT_EQ(rtype, svc::MsgType::kOk);
  proxy.stop();
  EXPECT_EQ(client.stats().hedges, 1u);
  EXPECT_EQ(client.stats().hedge_wins, 1u);
  // The stalled primary never failed — the hedge raced past it.
  EXPECT_EQ(client.stats().failed_attempts, 0u);
  EXPECT_EQ(client.stats().giveups, 0u);
}

// ---------------------------------------------------------------------------
// Overload control: ordered sheds, exact counts, honored hints.
// ---------------------------------------------------------------------------

/// Pipelines `frames` on one raw connection and returns the responses in
/// arrival order.
std::vector<std::pair<svc::MsgType, std::string>> pipeline_raw(
    std::uint16_t port, const std::string& frames, int count) {
  svc::Client raw;
  std::string error;
  EXPECT_TRUE(raw.connect("127.0.0.1", port, error)) << error;
  EXPECT_TRUE(raw.send_bytes(frames, error)) << error;
  std::vector<std::pair<svc::MsgType, std::string>> out;
  for (int i = 0; i < count; ++i) {
    svc::MsgType rtype;
    std::string rpayload;
    EXPECT_TRUE(raw.read_frame(&rtype, &rpayload, error)) << error;
    out.emplace_back(rtype, rpayload);
  }
  return out;
}

TEST(SvcOverload, BusyShedsArriveInRequestOrderWithHints) {
  // Regression for the DESIGN.md section 11 caveat: busy responses used
  // to be emitted ahead of the admitted request's response; they must
  // arrive in request order, each carrying a retry-after hint.
  svc::ServerConfig cfg;
  cfg.max_inflight = 1;
  cfg.busy_retry_after_ms = 25;
  TestServer ts(*world().dataset, 2, cfg);
  std::string batch;
  for (int i = 0; i < 8; ++i) {
    batch += svc::encode_frame(svc::MsgType::kPingEcho, 0, "");
  }
  const auto responses = pipeline_raw(ts.port(), batch, 8);
  ASSERT_EQ(responses.size(), 8u);
  // Request 1 was admitted; its kOk leads. Requests 2..8 were shed; their
  // busy frames follow in order, never jumping the queue.
  EXPECT_EQ(responses[0].first, svc::MsgType::kOk) << responses[0].second;
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(responses[i].first, svc::MsgType::kError) << i;
    const auto info = svc::parse_error_payload(responses[i].second);
    EXPECT_EQ(info.code, "busy") << responses[i].second;
    EXPECT_GE(info.retry_after_ms, cfg.busy_retry_after_ms)
        << responses[i].second;
  }
  ts.drain();
  EXPECT_EQ(server_counter(ts.server(), "s2s.svc.shed.inflight"), 7u);
}

TEST(SvcOverload, CostBudgetShedsExpensiveWorkButAdmitsCheap) {
  svc::ServerConfig cfg;
  cfg.max_inflight = 64;
  cfg.max_pending_cost = svc::request_cost(svc::MsgType::kFigureDigest) + 2;
  TestServer ts(*world().dataset, 2, cfg);
  svc::FigureQuery f;
  f.figure = 1;
  const std::string fig =
      svc::encode_frame(svc::MsgType::kFigureDigest, 0,
                        svc::encode_figure_query(f));
  const std::string ping = svc::encode_frame(svc::MsgType::kPingEcho, 0, "");
  // figure(admitted: empty queue always makes progress), figure(shed:
  // budget exhausted), figure(shed), ping(admitted: cost 1 still fits).
  const auto responses = pipeline_raw(ts.port(), fig + fig + fig + ping, 4);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].first, svc::MsgType::kOk) << responses[0].second;
  EXPECT_EQ(svc::parse_error_payload(responses[1].second).code, "busy");
  EXPECT_EQ(svc::parse_error_payload(responses[2].second).code, "busy");
  EXPECT_EQ(responses[3].first, svc::MsgType::kOk) << responses[3].second;
  ts.drain();
  EXPECT_EQ(server_counter(ts.server(), "s2s.svc.shed.cost"), 2u);
}

TEST(SvcOverload, PerClientQueueBoundShedsTheExcess) {
  svc::ServerConfig cfg;
  cfg.max_inflight = 1000;
  cfg.max_client_pending = 2;
  TestServer ts(*world().dataset, 2, cfg);
  std::string batch;
  for (int i = 0; i < 8; ++i) {
    batch += svc::encode_frame(svc::MsgType::kPingEcho, 0, "");
  }
  const auto responses = pipeline_raw(ts.port(), batch, 8);
  ASSERT_EQ(responses.size(), 8u);
  int ok = 0, busy = 0;
  for (const auto& [rtype, rpayload] : responses) {
    if (rtype == svc::MsgType::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(svc::parse_error_payload(rpayload).code, "busy");
      ++busy;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(busy, 6);
  ts.drain();
  EXPECT_EQ(server_counter(ts.server(), "s2s.svc.shed.client"), 6u);
}

TEST(SvcOverload, RetryingClientHonorsBusyHintsUnderFlood) {
  svc::ServerConfig cfg;
  cfg.max_inflight = 1;
  cfg.busy_retry_after_ms = 5;
  cfg.slow_query_us = 1;  // every request logs a line: the gate's hook
  TestServer ts(*world().dataset, 2, cfg);
  ReactorGate gate;  // released before the server drains

  // The retry budget outlasts the flood: every busy sleeps the >=5ms
  // hint, so 400 retries span >=2s against one batch of figure work.
  svc::RetryPolicy policy;
  policy.timeout_ms = 5000;
  policy.max_retries = 400;
  svc::RetryingClient client("127.0.0.1", ts.port(), policy);
  std::string error;
  svc::Client flood, holder;
  ASSERT_TRUE(flood.connect("127.0.0.1", ts.port(), error)) << error;
  ASSERT_TRUE(holder.connect("127.0.0.1", ts.port(), error)) << error;
  const auto call_ping = [&client] {
    svc::MsgType rtype;
    std::string rpayload;
    std::string error;
    const bool ok = client.call(svc::MsgType::kPingEcho, 0, "", &rtype,
                                &rpayload, error);
    EXPECT_TRUE(ok) << error;
    if (ok) {
      EXPECT_EQ(rtype, svc::MsgType::kOk);
    }
  };
  // Both connections accepted before the reactor is held.
  call_ping();
  {
    svc::MsgType rtype;
    std::string rpayload;
    ASSERT_TRUE(flood.call(svc::MsgType::kPingEcho, 0, "", &rtype, &rpayload,
                           error))
        << error;
  }

  // Hold the reactor in a server_stats request's log line while the
  // flood's batch of no-cache figure work and then the client's ping
  // arrive. The next poll round parses them in that order: the first
  // figure is admitted, so the ping meets a full inflight budget and is
  // shed with a busy hint, which the client sleeps and retries through.
  svc::FigureQuery f;
  f.figure = 10;
  std::string batch;
  for (int i = 0; i < 8; ++i) {
    batch += svc::encode_frame(svc::MsgType::kFigureDigest, svc::kFlagNoCache,
                               svc::encode_figure_query(f));
  }
  gate.arm("\"type\":\"server_stats\"");
  ASSERT_TRUE(holder.send_bytes(
      svc::encode_frame(svc::MsgType::kServerStats, 0, ""), error))
      << error;
  ASSERT_TRUE(gate.wait_held());
  ASSERT_TRUE(flood.send_bytes(batch, error)) << error;
  // The ping is sent inside call_ping(); release once it is on the wire.
  std::thread releaser([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    gate.release();
  });
  call_ping();
  releaser.join();
  for (int i = 0; i < 8; ++i) {
    svc::MsgType rtype;
    std::string rpayload;
    ASSERT_TRUE(flood.read_frame(&rtype, &rpayload, error)) << error;
  }
  // Busy frames are schedules, not failures: the client slept the
  // server's hint and got through without burning a failed attempt.
  EXPECT_GT(client.stats().busy_rescheduled, 0u);
  EXPECT_GE(client.stats().busy_hint_ms,
            client.stats().busy_rescheduled *
                static_cast<std::uint64_t>(cfg.busy_retry_after_ms));
  EXPECT_EQ(client.stats().failed_attempts, 0u);
}

// ---------------------------------------------------------------------------
// Circuit breaker.
// ---------------------------------------------------------------------------

TEST(SvcResilience, BreakerOpensFastFailsAndHalfOpens) {
  // A drained server's port refuses connections deterministically.
  std::uint16_t dead_port = 0;
  {
    TestServer ts(*world().dataset);
    dead_port = ts.port();
  }
  svc::RetryPolicy policy;
  policy.timeout_ms = 200;
  policy.max_retries = 0;
  policy.breaker_failures = 2;
  policy.breaker_cooldown_ms = 100;
  svc::RetryingClient client("127.0.0.1", dead_port, policy);
  svc::MsgType rtype;
  std::string rpayload;
  std::string error;
  EXPECT_FALSE(
      client.call(svc::MsgType::kPingEcho, 0, "", &rtype, &rpayload, error));
  EXPECT_FALSE(
      client.call(svc::MsgType::kPingEcho, 0, "", &rtype, &rpayload, error));
  EXPECT_EQ(client.stats().giveups, 2u);
  EXPECT_EQ(client.stats().attempts, 2u);
  EXPECT_TRUE(client.breaker_open());
  // Open breaker: fail fast, no wire attempt.
  EXPECT_FALSE(
      client.call(svc::MsgType::kPingEcho, 0, "", &rtype, &rpayload, error));
  EXPECT_EQ(client.stats().breaker_fast_fails, 1u);
  EXPECT_EQ(client.stats().attempts, 2u);
  // After the cooldown a half-open probe goes back on the wire.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(
      client.call(svc::MsgType::kPingEcho, 0, "", &rtype, &rpayload, error));
  EXPECT_EQ(client.stats().attempts, 3u);
}

// ---------------------------------------------------------------------------
// Strict startup: the archive-health diagnostic and its repair.
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(SvcStartup, MissingArchiveFailsLoudly) {
  svc::DatasetConfig cfg = world().cfg;
  cfg.archive_path = ::testing::TempDir() + "does_not_exist.s2sb";
  svc::Dataset dataset(cfg, &world().dataset->net());
  std::string error;
  EXPECT_FALSE(dataset.load(error));
  EXPECT_FALSE(error.empty());
}

TEST(SvcStartup, DamageDiagnosticCatchesWhatRepairThenFixes) {
  const std::string image = read_file(world().cfg.archive_path);
  ASSERT_FALSE(image.empty());
  const auto blocks = io::scan_blocks(image.data(), image.size());
  ASSERT_TRUE(blocks.has_value());
  ASSERT_GT(blocks->size(), 2u);

  // A corrupt interior block: load succeeds (readers skip damage) but the
  // health check must refuse to bless the ingest.
  svc::DatasetConfig cfg = world().cfg;
  cfg.archive_path = ::testing::TempDir() + "s2s_chaos_damaged_" +
                     std::to_string(::getpid()) + ".s2sb";
  std::string corrupted = image;
  corrupted[(*blocks)[1].payload_offset + 3] ^= 0x40;
  write_file(cfg.archive_path, corrupted);
  svc::Dataset dataset(cfg, &world().dataset->net());
  std::string error;
  ASSERT_TRUE(dataset.load(error)) << error;
  EXPECT_NE(svc::archive_damage(dataset.ingest()).find("corrupt"),
            std::string::npos)
      << svc::archive_damage(dataset.ingest());

  // A torn tail (killed writer) is flagged too.
  write_file(cfg.archive_path,
             image.substr(0, blocks->back().payload_offset + 7));
  svc::Dataset torn(cfg, &world().dataset->net());
  ASSERT_TRUE(torn.load(error)) << error;
  EXPECT_NE(svc::archive_damage(torn.ingest()).find("torn"),
            std::string::npos)
      << svc::archive_damage(torn.ingest());

  // recover_archive() is the prescribed fix: after repair the diagnostic
  // comes back clean and the dataset serves the surviving prefix.
  const auto res = io::recover_archive(cfg.archive_path);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.repaired);
  svc::Dataset repaired(cfg, &world().dataset->net());
  ASSERT_TRUE(repaired.load(error)) << error;
  EXPECT_EQ(svc::archive_damage(repaired.ingest()), "");
  EXPECT_GT(repaired.ingest().records, 0u);
}

}  // namespace
}  // namespace s2s
