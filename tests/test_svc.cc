// s2sd service-layer tests: protocol framing, the LRU result cache, and
// the server's acceptance contract (DESIGN.md section 11) —
// byte-identical responses cold vs. cache-hit and at 1 vs. 8 pool
// threads, protocol-error frames that leave the connection usable,
// slow-loris reaping, busy backpressure, and graceful drain.
//
// One fixture archive and one simulated deployment are built once and
// shared across every test (the topology build is the expensive part).
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "exec/pool.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/client.h"
#include "svc/dataset.h"
#include "svc/protocol.h"
#include "svc/result_cache.h"
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

struct SvcWorld {
  svc::DatasetConfig cfg;
  std::unique_ptr<svc::Dataset> dataset;  ///< owns the shared deployment
};

SvcWorld& world() {
  static SvcWorld* w = [] {
    auto* world = new SvcWorld;
    // Per-process path: parallel ctest invocations each build their own
    // fixture, and rewriting a file another process has mmap'd is SIGBUS.
    world->cfg.archive_path = ::testing::TempDir() + "s2s_test_svc_" +
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

/// A served dataset on an ephemeral port with the event loop on its own
/// thread. Destruction drains.
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

/// One request of every cacheable type against the fixture's first pair.
std::vector<std::pair<svc::MsgType, std::string>> cacheable_workload() {
  const auto pairs = world().dataset->trace_pairs();
  EXPECT_FALSE(pairs.empty());
  svc::PairQuery q;
  q.src = pairs.front().src;
  q.dst = pairs.front().dst;
  q.family = pairs.front().family;
  std::vector<std::pair<svc::MsgType, std::string>> out;
  out.emplace_back(svc::MsgType::kPairRtt, svc::encode_pair_query(q));
  out.emplace_back(svc::MsgType::kPathPrevalence, svc::encode_pair_query(q));
  out.emplace_back(svc::MsgType::kCongestionVerdict,
                   svc::encode_pair_query(q));
  out.emplace_back(svc::MsgType::kDualStackDelta,
                   svc::encode_dualstack_query({q.src, q.dst}));
  for (const int figure : {1, 2, 5, 10}) {
    svc::FigureQuery f;
    f.figure = static_cast<std::uint8_t>(figure);
    out.emplace_back(svc::MsgType::kFigureDigest,
                     svc::encode_figure_query(f));
  }
  return out;
}

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

/// The server's JSON metrics dump, fetched over the wire and parsed.
obs::json::Value json_dump(svc::Client& client) {
  svc::MetricsDumpQuery q;
  q.format = svc::MetricsDumpQuery::kJson;
  const std::string text = must_call(client, svc::MsgType::kMetricsDump, 0,
                                     svc::encode_metrics_dump_query(q));
  auto doc = obs::json::parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return doc ? std::move(*doc) : obs::json::Value{};
}

/// One value of a parsed dump's "counters" or "gauges" object; -1 (and a
/// test failure) when absent.
double dump_fact(const obs::json::Value& doc, std::string_view section,
                 std::string_view name) {
  const auto* group = doc.find(section);
  const auto* v = group ? group->find(name) : nullptr;
  EXPECT_NE(v, nullptr) << section << " lacks " << name;
  return v ? v->number : -1.0;
}

std::uint64_t server_counter(const svc::Server& server,
                             const std::string& name) {
  obs::MetricsSnapshot snapshot;
  server.export_metrics(snapshot.counters, snapshot.gauges);
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Protocol unit tests.
// ---------------------------------------------------------------------------

TEST(SvcProtocol, FrameRoundTrip) {
  const std::string frame =
      svc::encode_frame(svc::MsgType::kPairRtt, svc::kFlagNoCache, "payload");
  ASSERT_EQ(frame.size(), svc::kFrameHeaderBytes + 7);
  const auto* bytes = reinterpret_cast<const unsigned char*>(frame.data());
  svc::FrameHeader header;
  ASSERT_EQ(svc::parse_frame_header(bytes, header), svc::HeaderStatus::kOk);
  EXPECT_EQ(header.version, svc::kProtocolVersion);
  EXPECT_EQ(header.type, svc::MsgType::kPairRtt);
  EXPECT_EQ(header.flags, svc::kFlagNoCache);
  EXPECT_EQ(header.payload_bytes, 7u);
  EXPECT_EQ(svc::frame_crc(bytes, "payload"), header.crc);
  EXPECT_NE(svc::frame_crc(bytes, "payloaX"), header.crc);
}

TEST(SvcProtocol, RejectsBadMagicAndVersion) {
  std::string frame = svc::encode_frame(svc::MsgType::kPingEcho, 0, "");
  svc::FrameHeader header;
  std::string bad = frame;
  bad[0] = 'X';
  EXPECT_EQ(svc::parse_frame_header(
                reinterpret_cast<const unsigned char*>(bad.data()), header),
            svc::HeaderStatus::kBadMagic);
  bad = frame;
  bad[4] = 99;
  EXPECT_EQ(svc::parse_frame_header(
                reinterpret_cast<const unsigned char*>(bad.data()), header),
            svc::HeaderStatus::kBadVersion);
}

TEST(SvcProtocol, PayloadCodecs) {
  svc::PairQuery q;
  q.src = 12345;
  q.dst = 678;
  q.family = 6;
  q.arg = 9;
  const std::string encoded = svc::encode_pair_query(q);
  EXPECT_EQ(encoded.size(), 10u);
  svc::PairQuery back;
  ASSERT_TRUE(svc::decode_pair_query(encoded, back));
  EXPECT_EQ(back.src, q.src);
  EXPECT_EQ(back.dst, q.dst);
  EXPECT_EQ(back.family, q.family);
  EXPECT_EQ(back.arg, q.arg);
  EXPECT_FALSE(svc::decode_pair_query("short", back));
  std::string bad_family = encoded;
  bad_family[8] = 5;
  EXPECT_FALSE(svc::decode_pair_query(bad_family, back));

  svc::DualStackQuery d;
  d.src = 3;
  d.dst = 4;
  svc::DualStackQuery d2;
  ASSERT_TRUE(svc::decode_dualstack_query(svc::encode_dualstack_query(d), d2));
  EXPECT_EQ(d2.src, 3u);
  EXPECT_EQ(d2.dst, 4u);

  svc::FigureQuery f;
  f.figure = 10;
  svc::FigureQuery f2;
  ASSERT_TRUE(svc::decode_figure_query(svc::encode_figure_query(f), f2));
  EXPECT_EQ(f2.figure, 10u);
}

TEST(SvcProtocol, TypePredicates) {
  EXPECT_TRUE(svc::is_request(svc::MsgType::kPingEcho));
  EXPECT_TRUE(svc::is_request(svc::MsgType::kMetricsDump));
  EXPECT_FALSE(svc::is_request(svc::MsgType::kOk));
  EXPECT_FALSE(svc::is_request(static_cast<svc::MsgType>(0x42)));
  EXPECT_TRUE(svc::is_cacheable(svc::MsgType::kFigureDigest));
  EXPECT_FALSE(svc::is_cacheable(svc::MsgType::kPingEcho));
  EXPECT_FALSE(svc::is_cacheable(svc::MsgType::kMetricsDump));
  EXPECT_STREQ(svc::type_name(svc::MsgType::kPairRtt), "pair_rtt");
  EXPECT_STREQ(svc::type_name(svc::MsgType::kMetricsDump), "metrics_dump");
}

TEST(SvcProtocol, TraceContextRoundTripAndShortPayload) {
  const svc::TraceContext ctx{0x1122334455667788ull, 0x99aabbccddeeff00ull};
  const std::string prefixed = svc::encode_trace_context(ctx) + "rest";
  svc::TraceContext back;
  std::string_view rest;
  ASSERT_TRUE(svc::strip_trace_context(prefixed, back, rest));
  EXPECT_EQ(back.trace_id, ctx.trace_id);
  EXPECT_EQ(back.span_id, ctx.span_id);
  EXPECT_EQ(rest, "rest");
  // An empty request payload after the prefix is legal (ping).
  ASSERT_TRUE(
      svc::strip_trace_context(svc::encode_trace_context(ctx), back, rest));
  EXPECT_TRUE(rest.empty());
  EXPECT_FALSE(svc::strip_trace_context("short", back, rest));
}

TEST(SvcProtocol, MetricsDumpQueryCodec) {
  svc::MetricsDumpQuery q;
  q.format = svc::MetricsDumpQuery::kPrometheus;
  svc::MetricsDumpQuery back;
  ASSERT_TRUE(
      svc::decode_metrics_dump_query(svc::encode_metrics_dump_query(q), back));
  EXPECT_EQ(back.format, svc::MetricsDumpQuery::kPrometheus);
  EXPECT_FALSE(svc::decode_metrics_dump_query("", back));
  EXPECT_FALSE(svc::decode_metrics_dump_query("\x07", back));
}

// ---------------------------------------------------------------------------
// Result cache unit tests.
// ---------------------------------------------------------------------------

std::shared_ptr<const std::string> shared(std::string value) {
  return std::make_shared<const std::string>(std::move(value));
}

TEST(SvcCache, LruHitMissAndKey) {
  svc::ResultCache cache;
  const std::string key = svc::ResultCache::make_key(7, 2, "req");
  EXPECT_EQ(key.size(), 9u + 3u);
  EXPECT_NE(key, svc::ResultCache::make_key(8, 2, "req"));
  EXPECT_NE(key, svc::ResultCache::make_key(7, 3, "req"));
  EXPECT_FALSE(cache.find(key));
  cache.insert(key, shared("response"));
  auto value = cache.find(key);
  ASSERT_TRUE(value);
  EXPECT_EQ(*value, "response");
  cache.insert(key, shared("updated"));
  value = cache.find(key);
  ASSERT_TRUE(value);
  EXPECT_EQ(*value, "updated");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SvcCache, EvictsLeastRecentlyUsed) {
  // Budget for about three 40-byte entries.
  svc::ResultCache cache(128);
  const auto big = shared(std::string(30, 'v'));
  for (int i = 0; i < 3; ++i) {
    cache.insert(svc::ResultCache::make_key(1, 1, std::string(1, 'a' + i)),
                 big);
  }
  // Touch "a" so "b" is the LRU victim when "d" lands.
  ASSERT_TRUE(cache.find(svc::ResultCache::make_key(1, 1, "a")));
  cache.insert(svc::ResultCache::make_key(1, 1, "d"), big);
  EXPECT_TRUE(cache.find(svc::ResultCache::make_key(1, 1, "a")));
  EXPECT_FALSE(cache.find(svc::ResultCache::make_key(1, 1, "b")));
  EXPECT_TRUE(cache.find(svc::ResultCache::make_key(1, 1, "d")));
  EXPECT_GE(cache.stats().evictions, 1u);
  // An entry larger than the whole budget is not cached at all.
  cache.insert(svc::ResultCache::make_key(1, 1, "huge"),
               shared(std::string(4096, 'x')));
  EXPECT_FALSE(cache.find(svc::ResultCache::make_key(1, 1, "huge")));
}

// ---------------------------------------------------------------------------
// Server acceptance tests.
// ---------------------------------------------------------------------------

TEST(SvcServer, ColdCacheHitAndNoCacheAreByteIdentical) {
  TestServer ts(*world().dataset);
  svc::Client client = ts.connect();
  const std::uint64_t hits_before =
      server_counter(ts.server(), "s2s.svc.cache_hits");
  for (const auto& [type, payload] : cacheable_workload()) {
    const std::string cold = must_call(client, type, 0, payload);
    const std::string hit = must_call(client, type, 0, payload);
    const std::string forced =
        must_call(client, type, svc::kFlagNoCache, payload);
    EXPECT_EQ(cold, hit) << svc::type_name(type);
    EXPECT_EQ(cold, forced) << svc::type_name(type);
  }
  const auto stats = ts.server().cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(server_counter(ts.server(), "s2s.svc.cache_hits"), hits_before);
}

TEST(SvcServer, CacheHoldsAnEntryUpToTheWholeReactorBudget) {
  // A reactor's cache is one LRU under one budget: any answer that fits
  // the whole budget is cached and served as a hit — here one bigger
  // than an eighth of it.
  svc::FigureQuery f;
  f.figure = 2;
  const std::string request = svc::encode_figure_query(f);
  std::size_t entry_bytes = 0;
  {
    TestServer probe(*world().dataset);
    svc::Client client = probe.connect();
    entry_bytes =
        svc::ResultCache::make_key(0, 0, request).size() +
        must_call(client, svc::MsgType::kFigureDigest, 0, request).size();
  }
  svc::ServerConfig cfg;
  cfg.cache_bytes = 2 * entry_bytes;
  ASSERT_GT(entry_bytes, cfg.cache_bytes / 8);
  TestServer ts(*world().dataset, 2, cfg);
  svc::Client client = ts.connect();
  const std::string cold =
      must_call(client, svc::MsgType::kFigureDigest, 0, request);
  EXPECT_EQ(must_call(client, svc::MsgType::kFigureDigest, 0, request), cold);
  const auto stats = ts.server().cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, entry_bytes);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(SvcServer, OneAndEightThreadResponsesAreByteIdentical) {
  svc::Dataset shared(world().cfg, &world().dataset->net());
  std::string error;
  ASSERT_TRUE(shared.load(error)) << error;
  TestServer serial(*world().dataset, 1);
  TestServer wide(shared, 8);
  svc::Client c1 = serial.connect();
  svc::Client c8 = wide.connect();
  for (const auto& [type, payload] : cacheable_workload()) {
    EXPECT_EQ(must_call(c1, type, 0, payload),
              must_call(c8, type, 0, payload))
        << svc::type_name(type);
  }
}

TEST(SvcServer, BadCrcAndUnknownTypeFramesKeepConnection) {
  TestServer ts(*world().dataset);
  svc::Client client = ts.connect();
  std::string error;

  // Corrupt the CRC field of a valid frame: error frame, survives.
  std::string frame = svc::encode_frame(svc::MsgType::kPingEcho, 0, "");
  frame[12] = static_cast<char>(frame[12] ^ 0x5a);
  ASSERT_TRUE(client.send_bytes(frame, error)) << error;
  svc::MsgType rtype;
  std::string rpayload;
  ASSERT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
  EXPECT_EQ(rtype, svc::MsgType::kError);
  EXPECT_NE(rpayload.find("bad_crc"), std::string::npos) << rpayload;

  // Unknown frame type with a valid CRC: error frame, survives. 0x07 and
  // 0x0A are retired request ids and must stay unknown.
  for (const std::uint8_t type : {0x42, 0x07, 0x0A}) {
    ASSERT_TRUE(client.send_bytes(
        svc::encode_frame(static_cast<svc::MsgType>(type), 0, ""), error));
    ASSERT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
    EXPECT_EQ(rtype, svc::MsgType::kError) << int{type};
    EXPECT_NE(rpayload.find("bad_request"), std::string::npos)
        << int{type} << ": " << rpayload;
    must_call(client, svc::MsgType::kPingEcho, 0, "");
  }

  // Truncated request payload: decode fails, error frame, survives.
  ASSERT_TRUE(client.send_bytes(
      svc::encode_frame(svc::MsgType::kPairRtt, 0, "abc"), error));
  ASSERT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
  EXPECT_EQ(rtype, svc::MsgType::kError);
  EXPECT_NE(rpayload.find("bad_request"), std::string::npos) << rpayload;

  // The connection still serves requests.
  must_call(client, svc::MsgType::kPingEcho, 0, "");
}

TEST(SvcServer, OversizedFrameSurvivesAndBadMagicCloses) {
  svc::ServerConfig cfg;
  cfg.max_request_bytes = 64;
  TestServer ts(*world().dataset, 2, cfg);
  svc::Client client = ts.connect();
  std::string error;

  // Oversized (but under the discard cap): error frame, payload drained,
  // connection survives.
  ASSERT_TRUE(client.send_bytes(
      svc::encode_frame(svc::MsgType::kPingEcho, 0, std::string(500, 'z')),
      error));
  svc::MsgType rtype;
  std::string rpayload;
  ASSERT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
  EXPECT_EQ(rtype, svc::MsgType::kError);
  EXPECT_NE(rpayload.find("oversized"), std::string::npos) << rpayload;
  must_call(client, svc::MsgType::kPingEcho, 0, "");

  // Garbage that is not a frame: error frame, then the server closes.
  ASSERT_TRUE(client.send_bytes(std::string(16, 'X'), error));
  ASSERT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
  EXPECT_EQ(rtype, svc::MsgType::kError);
  EXPECT_NE(rpayload.find("bad_frame"), std::string::npos) << rpayload;
  EXPECT_TRUE(client.read_eof());
}

TEST(SvcServer, SlowLorisConnectionIsReaped) {
  svc::ServerConfig cfg;
  cfg.read_timeout_ms = 200;
  TestServer ts(*world().dataset, 2, cfg);
  svc::Client client = ts.connect();
  std::string error;
  // Half a header, then silence: the read deadline must close the
  // connection even though the socket stays open.
  const std::string frame = svc::encode_frame(svc::MsgType::kPingEcho, 0, "");
  ASSERT_TRUE(client.send_bytes(frame.substr(0, 8), error)) << error;
  EXPECT_TRUE(client.read_eof());
  // Idle-but-quiet connections (no partial frame buffered) are keep-alive
  // and must NOT be reaped.
  svc::Client idle = ts.connect();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  must_call(idle, svc::MsgType::kPingEcho, 0, "");
  EXPECT_GE(ts.server().connections_reaped(), 1u);
}

TEST(SvcServer, BusyBackpressureShedsExcessPipelinedRequests) {
  svc::ServerConfig cfg;
  cfg.max_inflight = 1;
  TestServer ts(*world().dataset, 2, cfg);
  svc::Client client = ts.connect();
  std::string batch;
  for (int i = 0; i < 8; ++i) {
    batch += svc::encode_frame(svc::MsgType::kPingEcho, 0, "");
  }
  std::string error;
  ASSERT_TRUE(client.send_bytes(batch, error)) << error;
  int ok = 0, busy = 0;
  for (int i = 0; i < 8; ++i) {
    svc::MsgType rtype;
    std::string rpayload;
    ASSERT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
    if (rtype == svc::MsgType::kOk) {
      ++ok;
    } else {
      EXPECT_NE(rpayload.find("busy"), std::string::npos) << rpayload;
      ++busy;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(busy, 1);
}

TEST(SvcServer, DrainServesInflightThenClosesListener) {
  TestServer ts(*world().dataset);
  svc::Client client = ts.connect();
  std::string error;
  svc::FigureQuery f;
  f.figure = 2;
  ASSERT_TRUE(client.send_bytes(
      svc::encode_frame(svc::MsgType::kFigureDigest, 0,
                        svc::encode_figure_query(f)),
      error));
  const std::uint16_t port = ts.port();
  ts.server().request_drain();
  // The request raced the drain; its response must still arrive.
  svc::MsgType rtype;
  std::string rpayload;
  ASSERT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
  EXPECT_EQ(rtype, svc::MsgType::kOk) << rpayload;
  ts.drain();
  svc::Client late;
  EXPECT_FALSE(late.connect("127.0.0.1", port, error, 1000));
}

/// Waits up to ~2s for `pred` over the global collector's events; the
/// server commits its request span just after flushing the response, so
/// a client that already read the reply can race the commit.
std::vector<obs::SpanEvent> wait_for_spans(
    const std::function<bool(const std::vector<obs::SpanEvent>&)>& pred) {
  for (int i = 0; i < 200; ++i) {
    auto events = obs::TraceCollector::global().events();
    if (pred(events)) return events;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return obs::TraceCollector::global().events();
}

TEST(SvcServer, TracedRequestAdoptsClientTraceIdWithPhaseSpans) {
  obs::TraceCollector::global().clear();
  TestServer ts(*world().dataset);
  svc::Client client = ts.connect();
  std::string error;

  const svc::TraceContext ctx{0xabcdef0123456789ull, 0x42ull};
  svc::FigureQuery f;
  f.figure = 2;
  ASSERT_TRUE(client.send_bytes(
      svc::encode_frame(svc::MsgType::kFigureDigest, svc::kFlagTraceContext,
                        svc::encode_trace_context(ctx) +
                            svc::encode_figure_query(f)),
      error));
  svc::MsgType rtype;
  std::string rpayload;
  ASSERT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
  EXPECT_EQ(rtype, svc::MsgType::kOk) << rpayload;

  const auto events = wait_for_spans([&](const auto& evs) {
    for (const auto& e : evs) {
      if (e.name == "server:figure_digest") return true;
    }
    return false;
  });
  const obs::SpanEvent* request = nullptr;
  for (const auto& e : events) {
    if (e.name == "server:figure_digest") request = &e;
  }
  ASSERT_NE(request, nullptr);
  // The server span adopts the wire identity: same trace id, parented
  // under the client's span.
  EXPECT_EQ(request->trace_id, ctx.trace_id);
  EXPECT_EQ(request->parent_span_id, ctx.span_id);
  // Phase sub-spans share the trace id and hang off the request span.
  std::size_t phases = 0;
  for (const auto& e : events) {
    if (e.name == "queue_wait" || e.name == "cache_lookup" ||
        e.name == "exec" || e.name == "encode" || e.name == "write") {
      EXPECT_EQ(e.trace_id, ctx.trace_id) << e.name;
      EXPECT_EQ(e.parent_span_id, request->span_id) << e.name;
      ++phases;
    }
  }
  EXPECT_GE(phases, 4u);  // queue_wait, cache_lookup, exec, encode, write
}

TEST(SvcServer, UntracedClientsAndShortTraceContextKeepWorking) {
  TestServer ts(*world().dataset);
  svc::Client client = ts.connect();
  std::string error;

  // Old client: no flag, no prefix — served exactly as before.
  must_call(client, svc::MsgType::kPingEcho, 0, "");

  // The flag without the 16-byte prefix is a protocol error, not a
  // dropped connection.
  const std::uint64_t errors_before =
      server_counter(ts.server(), "s2s.svc.protocol_errors");
  ASSERT_TRUE(client.send_bytes(
      svc::encode_frame(svc::MsgType::kPingEcho, svc::kFlagTraceContext,
                        "short"),
      error));
  svc::MsgType rtype;
  std::string rpayload;
  ASSERT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
  EXPECT_EQ(rtype, svc::MsgType::kError);
  EXPECT_NE(rpayload.find("bad_request"), std::string::npos) << rpayload;
  must_call(client, svc::MsgType::kPingEcho, 0, "");
  EXPECT_GT(server_counter(ts.server(), "s2s.svc.protocol_errors"),
            errors_before);
}

TEST(SvcServer, TraceContextDoesNotForkTheCacheKey) {
  // A traced and an untraced request for the same query must share one
  // cache entry: the key is built from the stripped payload.
  TestServer ts(*world().dataset);
  svc::Client client = ts.connect();
  std::string error;
  svc::FigureQuery f;
  f.figure = 5;
  const std::string query = svc::encode_figure_query(f);
  const std::string plain =
      must_call(client, svc::MsgType::kFigureDigest, 0, query);
  const svc::TraceContext ctx{7, 8};
  ASSERT_TRUE(client.send_bytes(
      svc::encode_frame(svc::MsgType::kFigureDigest, svc::kFlagTraceContext,
                        svc::encode_trace_context(ctx) + query),
      error));
  svc::MsgType rtype;
  std::string rpayload;
  ASSERT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
  EXPECT_EQ(rtype, svc::MsgType::kOk);
  EXPECT_EQ(rpayload, plain);
  const auto stats = ts.server().cache_stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_GE(stats.hits, 1u);
}

TEST(SvcServer, MetricsDumpServesJsonAndPrometheus) {
  TestServer ts(*world().dataset);
  svc::Client client = ts.connect();
  must_call(client, svc::MsgType::kPingEcho, 0, "");

  svc::MetricsDumpQuery q;
  q.format = svc::MetricsDumpQuery::kJson;
  const std::string json = must_call(client, svc::MsgType::kMetricsDump, 0,
                                     svc::encode_metrics_dump_query(q));
  const auto doc = obs::json::parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  EXPECT_EQ(doc->find("type")->string, "metrics_dump");
  EXPECT_GE(doc->find("uptime_s")->number, 0.0);
  const auto* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->find("s2s.svc.requests")->as_u64(), 1u);
  const auto* windowed = doc->find("windowed");
  ASSERT_NE(windowed, nullptr);
  const auto* ping = windowed->find("s2s.svc.windowed_us.ping_echo");
  ASSERT_NE(ping, nullptr);
  EXPECT_GE(ping->find("total")->as_u64(), 1u);
  const auto* slo = doc->find("slo");
  ASSERT_NE(slo, nullptr);
  ASSERT_NE(slo->find("s2s.svc.slo.ping_echo"), nullptr);

  q.format = svc::MetricsDumpQuery::kPrometheus;
  const std::string text = must_call(client, svc::MsgType::kMetricsDump, 0,
                                     svc::encode_metrics_dump_query(q));
  EXPECT_EQ(text.rfind("# TYPE", 0), 0u) << text.substr(0, 80);
  EXPECT_NE(text.find("s2s_svc_requests_total "), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);

  // Malformed selector: error frame, connection survives.
  std::string error;
  ASSERT_TRUE(client.send_bytes(
      svc::encode_frame(svc::MsgType::kMetricsDump, 0, "\x07"), error));
  svc::MsgType rtype;
  std::string rpayload;
  ASSERT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
  EXPECT_EQ(rtype, svc::MsgType::kError);
  must_call(client, svc::MsgType::kPingEcho, 0, "");
}

TEST(SvcServer, StatsFieldsMoveBetweenCalls) {
  TestServer ts(*world().dataset);
  svc::Client client = ts.connect();
  const auto doc1 = json_dump(client);
  const double uptime1 = dump_fact(doc1, "gauges", "s2s.svc.uptime_s");
  const double requests1 = dump_fact(doc1, "counters", "s2s.svc.requests");
  const double misses1 = dump_fact(doc1, "counters", "s2s.svc.cache_misses");

  // Work the cache: one miss, one hit.
  svc::FigureQuery f;
  f.figure = 1;
  const std::string payload = svc::encode_figure_query(f);
  must_call(client, svc::MsgType::kFigureDigest, 0, payload);
  must_call(client, svc::MsgType::kFigureDigest, 0, payload);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  const auto doc2 = json_dump(client);
  EXPECT_GT(dump_fact(doc2, "gauges", "s2s.svc.uptime_s"), uptime1);
  EXPECT_GT(dump_fact(doc2, "counters", "s2s.svc.requests"), requests1);
  EXPECT_GT(dump_fact(doc2, "counters", "s2s.svc.cache_misses"), misses1);
  EXPECT_GE(dump_fact(doc2, "counters", "s2s.svc.cache_hits"), 1.0);
  // The slow-query log is off by default, so it emits nothing.
  EXPECT_EQ(dump_fact(doc2, "counters", "s2s.svc.slow_queries.emitted"), 0.0);
}

TEST(SvcServer, SlowQueriesEmitStructuredLines) {
  std::mutex mu;
  std::vector<std::string> lines;
  obs::set_log_sink([&](obs::LogLevel, std::string_view m) {
    const std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(m);
  });
  svc::ServerConfig cfg;
  cfg.slow_query_us = 1;  // everything is slow
  {
    TestServer ts(*world().dataset, 2, cfg);
    svc::Client client = ts.connect();
    svc::FigureQuery f;
    f.figure = 2;
    must_call(client, svc::MsgType::kFigureDigest, 0,
              svc::encode_figure_query(f));
    ts.drain();  // the event loop owns the log; flush before reading
    EXPECT_GE(server_counter(ts.server(), "s2s.svc.slow_queries.emitted"),
              1u);
  }
  obs::set_log_sink({});
  const std::lock_guard<std::mutex> lock(mu);
  bool saw_figure = false;
  for (const auto& line : lines) {
    if (line.rfind("slow_query {", 0) == 0) {
      const auto doc = obs::json::parse(line.substr(11));
      ASSERT_TRUE(doc.has_value()) << line;
      ASSERT_NE(doc->find("type"), nullptr) << line;
      EXPECT_GT(doc->find("total_us")->as_i64(), 0) << line;
      if (doc->find("type")->string != "figure_digest") continue;
      saw_figure = true;
      EXPECT_EQ(doc->find("response")->string, "ok") << line;
    }
  }
  EXPECT_TRUE(saw_figure);
}

TEST(SvcServer, RetryingClientAndServerSpansShareTraceIds) {
  obs::TraceCollector::global().clear();
  TestServer ts(*world().dataset);
  svc::RetryPolicy policy;
  policy.trace = true;
  svc::RetryingClient client("127.0.0.1", ts.port(), policy);
  svc::MsgType rtype;
  std::string rpayload;
  std::string error;
  svc::FigureQuery f;
  f.figure = 10;
  ASSERT_TRUE(client.call(svc::MsgType::kFigureDigest, 0,
                          svc::encode_figure_query(f), &rtype, &rpayload,
                          error))
      << error;
  ASSERT_EQ(rtype, svc::MsgType::kOk);

  const auto events = wait_for_spans([](const auto& evs) {
    bool rpc = false, server = false;
    for (const auto& e : evs) {
      if (e.name == "rpc:figure_digest") rpc = true;
      if (e.name == "server:figure_digest") server = true;
    }
    return rpc && server;
  });
  const obs::SpanEvent* rpc = nullptr;
  const obs::SpanEvent* attempt = nullptr;
  const obs::SpanEvent* server = nullptr;
  for (const auto& e : events) {
    if (e.name == "rpc:figure_digest") rpc = &e;
    if (e.name == "attempt") attempt = &e;
    if (e.name == "server:figure_digest") server = &e;
  }
  ASSERT_NE(rpc, nullptr);
  ASSERT_NE(attempt, nullptr);
  ASSERT_NE(server, nullptr);
  EXPECT_NE(rpc->trace_id, 0u);
  EXPECT_EQ(attempt->trace_id, rpc->trace_id);
  EXPECT_EQ(attempt->parent_span_id, rpc->span_id);
  // The server half of the request carries the client's identity.
  EXPECT_EQ(server->trace_id, rpc->trace_id);
  EXPECT_EQ(server->parent_span_id, attempt->span_id);
}

TEST(SvcServer, ReloadKeepsServingAndStatsReport) {
  svc::Dataset own(world().cfg, &world().dataset->net());
  std::string error;
  ASSERT_TRUE(own.load(error)) << error;
  TestServer ts(own);
  svc::Client client = ts.connect();
  must_call(client, svc::MsgType::kPingEcho, 0, "");
  ts.server().request_reload();
  // The reload happens on the event loop; the next request observes it.
  const auto doc = json_dump(client);
  EXPECT_EQ(doc.find("type")->string, "metrics_dump");
  EXPECT_EQ(dump_fact(doc, "counters", "s2s.svc.reloads"), 1.0);
  // The reloaded snapshot is loaded: it reports its ingest facts.
  EXPECT_GT(dump_fact(doc, "counters", "s2s.io.binrec.records_read"), 0.0);
  must_call(client, svc::MsgType::kPingEcho, 0, "");
  EXPECT_EQ(ts.server().reloads(), 1u);
}

}  // namespace
}  // namespace s2s
