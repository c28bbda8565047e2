// Multi-reactor serving-tier tests (DESIGN.md section 14): responses
// must be byte-identical at any reactor count and on whichever reactor
// the kernel's SO_REUSEPORT hash lands a connection, a 1-reactor
// listener must stay exclusive, a drain must quiesce every reactor
// before the listeners close, a SIGHUP-style reload under concurrent
// load must never serve a torn dataset, EMFILE accept failures must
// pause and re-arm the listener instead of busy-spinning, the daemon
// must serve IPv6 loopback, and the zero-copy kArchiveSlice path must
// round-trip a parseable `.s2sb` image whose record counts match the
// ingest.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/pool.h"
#include "io/binrec.h"
#include "obs/metrics.h"
#include "svc/client.h"
#include "svc/dataset.h"
#include "svc/protocol.h"
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

struct ReactorWorld {
  svc::DatasetConfig cfg;
  std::unique_ptr<svc::Dataset> dataset;
};

ReactorWorld& world() {
  static ReactorWorld* w = [] {
    auto* world = new ReactorWorld;
    world->cfg.archive_path = ::testing::TempDir() + "s2s_test_reactor_" +
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

/// One request of every cacheable type against the fixture's first pair,
/// plus a ping — the byte-identity workload.
std::vector<std::pair<svc::MsgType, std::string>> identity_workload() {
  const auto pairs = world().dataset->trace_pairs();
  EXPECT_FALSE(pairs.empty());
  svc::PairQuery q;
  q.src = pairs.front().src;
  q.dst = pairs.front().dst;
  q.family = pairs.front().family;
  std::vector<std::pair<svc::MsgType, std::string>> out;
  out.emplace_back(svc::MsgType::kPingEcho, "");
  out.emplace_back(svc::MsgType::kPairRtt, svc::encode_pair_query(q));
  out.emplace_back(svc::MsgType::kPathPrevalence, svc::encode_pair_query(q));
  out.emplace_back(svc::MsgType::kCongestionVerdict,
                   svc::encode_pair_query(q));
  out.emplace_back(svc::MsgType::kDualStackDelta,
                   svc::encode_dualstack_query({q.src, q.dst}));
  for (const int figure : {1, 2}) {
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

std::vector<std::string> run_workload(
    TestServer& ts,
    const std::vector<std::pair<svc::MsgType, std::string>>& workload) {
  svc::Client client = ts.connect();
  std::vector<std::string> out;
  for (const auto& [type, payload] : workload) {
    out.push_back(must_call(client, type, 0, payload));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Byte identity across reactor counts; an exclusive 1-reactor listener.
// ---------------------------------------------------------------------------

/// The workload with a fresh connection per request: every request may
/// land on a different reactor (and its cold cache).
std::vector<std::string> run_workload_spread(
    TestServer& ts,
    const std::vector<std::pair<svc::MsgType, std::string>>& workload) {
  std::vector<std::string> out;
  for (const auto& [type, payload] : workload) {
    svc::Client client = ts.connect();
    out.push_back(must_call(client, type, 0, payload));
  }
  return out;
}

TEST(SvcReactor, ResponsesAreByteIdenticalAtAnyReactorCount) {
  const auto workload = identity_workload();
  TestServer one(*world().dataset, 2, {});
  const auto want = run_workload(one, workload);

  svc::Dataset shared(world().cfg, &world().dataset->net());
  std::string error;
  ASSERT_TRUE(shared.load(error)) << error;

  svc::ServerConfig four;
  four.reactors = 4;
  TestServer wide(shared, 2, four);
  EXPECT_EQ(wide.server().reactor_count(), 4u);
  EXPECT_EQ(run_workload(wide, workload), want);

  // A second 4-reactor tier, one connection per request: identity must
  // not depend on which reactor the kernel picks.
  TestServer spread(shared, 2, four);
  EXPECT_EQ(run_workload_spread(spread, workload), want);
}

TEST(SvcReactor, SingleReactorListenerIsExclusive) {
  // SO_REUSEPORT is set only when reactors > 1: a 1-reactor server owns
  // its port, so a second one cannot start on it.
  TestServer first(*world().dataset, 2, {});
  ASSERT_NE(first.port(), 0);
  exec::ThreadPool pool(1);
  svc::ServerConfig cfg;
  cfg.port = first.port();
  svc::Server second(*world().dataset, &pool, cfg);
  std::string error;
  EXPECT_FALSE(second.start(error));
  EXPECT_NE(error.find("bind"), std::string::npos) << error;
  // The first server still answers.
  svc::Client client = first.connect();
  must_call(client, svc::MsgType::kPingEcho, 0, "");
}

TEST(SvcReactor, ReuseportListenersServeEveryConnection) {
  svc::ServerConfig cfg;
  cfg.reactors = 4;
  TestServer ts(*world().dataset, 2, cfg);
  ASSERT_EQ(ts.server().reactor_count(), 4u);
  // The kernel hashes connections by 4-tuple, so the spread is not
  // deterministic — but every connection must land somewhere and serve.
  std::vector<svc::Client> clients;
  for (int i = 0; i < 12; ++i) {
    clients.push_back(ts.connect());
    must_call(clients.back(), svc::MsgType::kPingEcho, 0, "");
  }
  const auto accepted = ts.server().reactor_accepted();
  std::uint64_t total = 0;
  for (const auto n : accepted) total += n;
  EXPECT_EQ(total, 12u);
}

// ---------------------------------------------------------------------------
// Lifecycle: drain quiesces all reactors; reload never tears the dataset.
// ---------------------------------------------------------------------------

TEST(SvcReactor, DrainQuiescesAllReactorsBeforeListenersClose) {
  svc::ServerConfig cfg;
  cfg.reactors = 4;
  TestServer ts(*world().dataset, 2, cfg);
  const std::uint16_t port = ts.port();

  // One in-flight figure request per connection, spread over enough
  // connections that several reactors hold work when the drain lands.
  std::vector<svc::Client> clients;
  std::string error;
  svc::FigureQuery f;
  f.figure = 2;
  const std::string frame = svc::encode_frame(
      svc::MsgType::kFigureDigest, 0, svc::encode_figure_query(f));
  for (int i = 0; i < 8; ++i) {
    clients.push_back(ts.connect());
    ASSERT_TRUE(clients.back().send_bytes(frame, error)) << error;
  }
  ts.server().request_drain();
  // Every request raced the drain; every response must still arrive.
  for (auto& client : clients) {
    svc::MsgType rtype;
    std::string rpayload;
    ASSERT_TRUE(client.read_frame(&rtype, &rpayload, error)) << error;
    EXPECT_EQ(rtype, svc::MsgType::kOk) << rpayload;
  }
  ts.drain();
  // Only after every reactor quiesced do the listeners close.
  svc::Client late;
  EXPECT_FALSE(late.connect("127.0.0.1", port, error, 1000));
  EXPECT_GE(ts.server().requests_served(), 8u);
}

TEST(SvcReactor, ReloadUnderLoadNeverServesATornDataset) {
  const auto workload = identity_workload();
  TestServer baseline_ts(*world().dataset, 2, {});
  const auto want = run_workload(baseline_ts, workload);
  baseline_ts.drain();

  svc::Dataset shared(world().cfg, &world().dataset->net());
  std::string error;
  ASSERT_TRUE(shared.load(error)) << error;
  svc::ServerConfig cfg;
  cfg.reactors = 4;
  TestServer ts(shared, 2, cfg);

  // Four client threads hammer the workload while reloads land between
  // (and under) their requests. The archive file is unchanged, so the
  // digest is stable and every response must stay byte-identical: any
  // torn snapshot (digest from one dataset, execution on another) would
  // break identity or crash.
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        svc::Client client;
        std::string cerr;
        if (!client.connect("127.0.0.1", ts.port(), cerr)) {
          ++mismatches[static_cast<std::size_t>(t)];
          return;
        }
        for (std::size_t i = 0; i < workload.size(); ++i) {
          svc::MsgType rtype;
          std::string rpayload;
          if (!client.call(workload[i].first, 0, workload[i].second, &rtype,
                           &rpayload, cerr) ||
              rtype != svc::MsgType::kOk || rpayload != want[i]) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (int i = 0; i < 3; ++i) {
    ts.server().request_reload();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  ts.drain();
  EXPECT_GE(ts.server().reloads(), 1u);
  // Post-reload the server keeps serving byte-identical responses.
}

// ---------------------------------------------------------------------------
// EMFILE: pause the listener, count, re-arm — never busy-spin.
// ---------------------------------------------------------------------------

TEST(SvcReactor, EmfileAcceptPausesCountsAndRearms) {
  svc::ServerConfig cfg;
  cfg.accept_rearm_ms = 20;
  TestServer ts(*world().dataset, 2, cfg);
  {
    svc::Client warm = ts.connect();
    must_call(warm, svc::MsgType::kPingEcho, 0, "");
  }

  // A client socket made before the fd squeeze: its connect() completes
  // in the listener's backlog even while the server cannot accept().
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit squeezed = saved;
  if (squeezed.rlim_cur > 512) {
    squeezed.rlim_cur = 512;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &squeezed), 0);
  }
  // Hoard every remaining fd so the next accept() fails with EMFILE.
  std::vector<int> hoard;
  while (true) {
    int p[2];
    if (::pipe(p) != 0) break;
    hoard.push_back(p[0]);
    hoard.push_back(p[1]);
    ASSERT_LT(hoard.size(), 4096u) << "fd limit did not bite";
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  // The reactor must observe EMFILE, count it, and unwatch the listener
  // instead of spinning on its readability.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ts.server().accept_emfile() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(ts.server().accept_emfile(), 1u);

  for (const int fd : hoard) ::close(fd);
  ::setrlimit(RLIMIT_NOFILE, &saved);

  // After accept_rearm_ms the listener re-arms and the backlogged
  // connection gets accepted and served.
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(probe, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  const std::string ping = svc::encode_frame(svc::MsgType::kPingEcho, 0, "");
  ASSERT_EQ(::send(probe, ping.data(), ping.size(), 0),
            static_cast<ssize_t>(ping.size()));
  std::string response;
  while (response.size() < svc::kFrameHeaderBytes) {
    char buf[64];
    const ssize_t n = ::recv(probe, buf, sizeof buf, 0);
    ASSERT_GT(n, 0) << "backlogged connection never served after re-arm";
    response.append(buf, static_cast<std::size_t>(n));
  }
  svc::FrameHeader header;
  ASSERT_EQ(svc::parse_frame_header(
                reinterpret_cast<const unsigned char*>(response.data()),
                header),
            svc::HeaderStatus::kOk);
  EXPECT_EQ(header.type, svc::MsgType::kOk);
  ::close(probe);

  // And a fresh connection works again too.
  svc::Client again = ts.connect();
  must_call(again, svc::MsgType::kPingEcho, 0, "");
  EXPECT_GT(ts.server().accept_emfile(), 0u);
}

// ---------------------------------------------------------------------------
// Dual-stack listening.
// ---------------------------------------------------------------------------

TEST(SvcReactor, IPv6LoopbackServes) {
  exec::ThreadPool pool(2);
  svc::ServerConfig cfg;
  cfg.bind_address = "::1";
  cfg.reactors = 2;
  svc::Server server(*world().dataset, &pool, cfg);
  std::string error;
  if (!server.start(error)) {
    GTEST_SKIP() << "no IPv6 loopback here: " << error;
  }
  std::thread serve([&server] { server.serve(); });
  svc::Client client;
  ASSERT_TRUE(client.connect("::1", server.port(), error)) << error;
  must_call(client, svc::MsgType::kPingEcho, 0, "");
  const auto pairs = world().dataset->trace_pairs();
  ASSERT_FALSE(pairs.empty());
  svc::PairQuery q;
  q.src = pairs.front().src;
  q.dst = pairs.front().dst;
  q.family = pairs.front().family;
  must_call(client, svc::MsgType::kPairRtt, 0, svc::encode_pair_query(q));
  server.request_drain();
  serve.join();
  EXPECT_GE(server.requests_served(), 2u);
}

// ---------------------------------------------------------------------------
// Zero-copy archive slices.
// ---------------------------------------------------------------------------

TEST(SvcReactor, ArchiveSliceRoundTripsAsAParseableArchive) {
  ASSERT_TRUE(world().dataset->mmap_resident());
  TestServer ts(*world().dataset);
  svc::Client client = ts.connect();

  // A slice spanning all time returns the whole archive: the payload is
  // a valid footerless `.s2sb` image whose record count matches ingest.
  svc::SliceQuery q;
  q.t0_s = 0;
  q.t1_s = std::int64_t{1} << 40;
  const std::string image = must_call(client, svc::MsgType::kArchiveSlice, 0,
                                      svc::encode_slice_query(q));
  io::BinRecordMmapReader reader(image.data(), image.size());
  ASSERT_TRUE(reader.ok()) << reader.error();
  std::size_t traces = 0, pings = 0;
  reader.read_all([&](const auto&) { ++traces; },
                  [&](const auto&) { ++pings; });
  EXPECT_EQ(reader.corrupt_blocks(), 0u);
  EXPECT_EQ(traces + pings, world().dataset->ingest().records);
  EXPECT_GT(traces, 0u);
  EXPECT_GT(pings, 0u);

  // A window past the campaign intersects nothing: still a valid image,
  // zero records.
  q.t0_s = (std::int64_t{1} << 40) + 1;
  q.t1_s = q.t0_s + 10;
  const std::string empty = must_call(
      client, svc::MsgType::kArchiveSlice, 0, svc::encode_slice_query(q));
  io::BinRecordMmapReader empty_reader(empty.data(), empty.size());
  ASSERT_TRUE(empty_reader.ok()) << empty_reader.error();
  std::size_t none = 0;
  empty_reader.read_all([&](const auto&) { ++none; },
                        [&](const auto&) { ++none; });
  EXPECT_EQ(none, 0u);

  // An inverted window is a malformed request, not a server error.
  svc::MsgType rtype;
  std::string rpayload;
  std::string error;
  std::string inverted(16, '\0');
  inverted[0] = 9;  // t0 = 9 > t1 = 0
  ASSERT_TRUE(client.call(svc::MsgType::kArchiveSlice, 0, inverted, &rtype,
                          &rpayload, error))
      << error;
  EXPECT_EQ(rtype, svc::MsgType::kError);
  EXPECT_NE(rpayload.find("bad_request"), std::string::npos) << rpayload;
  // The connection survives the rejection.
  must_call(client, svc::MsgType::kPingEcho, 0, "");
}

TEST(SvcReactor, SliceIsByteIdenticalAcrossReactorCounts) {
  svc::Dataset shared(world().cfg, &world().dataset->net());
  std::string error;
  ASSERT_TRUE(shared.load(error)) << error;
  TestServer one(*world().dataset, 2, {});
  svc::ServerConfig cfg;
  cfg.reactors = 4;
  TestServer four(shared, 2, cfg);
  svc::Client c1 = one.connect();
  svc::Client c4 = four.connect();
  svc::SliceQuery q;
  q.t0_s = 0;
  q.t1_s = std::int64_t{1} << 40;
  const std::string payload = svc::encode_slice_query(q);
  EXPECT_EQ(must_call(c1, svc::MsgType::kArchiveSlice, 0, payload),
            must_call(c4, svc::MsgType::kArchiveSlice, 0, payload));
}

}  // namespace
}  // namespace s2s
