// Live ingest tests (DESIGN.md section 16): the watermark sidecar, the
// open-shard writer's durability protocol (bounded reads, crash + resume
// byte-identity), the fold that builds a live shard's ping store and
// counters, one verdict for a live shard and its sealed prefix loaded as
// a batch archive at every watermark, and the serving path's delta
// pickup — a daemon that never reloads yet converges on the same bytes
// a fresh batch load produces.
//
// One simulated deployment and one per-epoch record corpus are built
// once and shared across every test (the topology build is the
// expensive part).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/congestion_detect.h"
#include "core/ping_series.h"
#include "exec/pool.h"
#include "io/binrec.h"
#include "io/mmap_file.h"
#include "live/incremental.h"
#include "live/open_shard.h"
#include "live/watermark.h"
#include "obs/json.h"
#include "probe/campaign.h"
#include "simnet/network.h"
#include "svc/client.h"
#include "svc/dataset.h"
#include "svc/protocol.h"
#include "svc/server.h"

namespace s2s {
namespace {

/// Shared deployment + the ping campaign's records grouped by epoch, so
/// tests can replay any prefix/delta split without re-running campaigns.
struct LiveWorld {
  svc::DatasetConfig cfg;
  std::unique_ptr<simnet::Network> net;
  std::vector<std::pair<topology::ServerId, topology::ServerId>> pairs;
  std::vector<std::vector<probe::PingRecord>> epochs;
};

LiveWorld& world() {
  static LiveWorld* w = [] {
    auto* world = new LiveWorld;
    world->net =
        std::make_unique<simnet::Network>(svc::dataset_net_config(world->cfg));
    world->pairs = svc::fixture_pairs(world->net->topo(), 12);
    probe::PingCampaignConfig ping;
    ping.start_day = world->cfg.ping_start_day;
    // 768 epochs at 15 minutes: past one week, so the verdict window
    // slides over the last day.
    ping.days = 8.0;
    ping.interval_s = world->cfg.ping_interval_s;
    ping.seed = 31;
    std::vector<probe::PingRecord> current;
    ping.on_epoch = [world, &current](std::size_t) {
      world->epochs.push_back(std::move(current));
      current.clear();
    };
    probe::PingCampaign campaign(*world->net, ping, world->pairs);
    campaign.run([&](const probe::PingRecord& r) { current.push_back(r); });
    EXPECT_EQ(world->epochs.size(), 768u);
    return world;
  }();
  return *w;
}

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem + "_" + std::to_string(::getpid()) +
         ".s2sb";
}

/// Writes epochs [0, upto) of the corpus, sealing each epoch.
std::unique_ptr<live::OpenShardWriter> write_epochs(
    const std::string& path, std::size_t upto, std::size_t block_records) {
  auto writer = std::make_unique<live::OpenShardWriter>(
      path, live::OpenShardConfig{block_records});
  EXPECT_TRUE(writer->ok()) << writer->error();
  std::string error;
  for (std::size_t e = 0; e < upto; ++e) {
    for (const auto& r : world().epochs[e]) writer->write(r);
    EXPECT_TRUE(writer->seal(static_cast<std::int64_t>(e), error)) << error;
  }
  return writer;
}

/// Appends epochs [from, upto) to an already-open writer, sealing each.
void append_epochs(live::OpenShardWriter& writer, std::size_t from,
                   std::size_t upto) {
  std::string error;
  for (std::size_t e = from; e < upto; ++e) {
    for (const auto& r : world().epochs[e]) writer.write(r);
    ASSERT_TRUE(writer.seal(static_cast<std::int64_t>(e), error)) << error;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A live shard's congestion state as the ingest builds it: the ping
/// store, whose grid reaches the sealed watermark, and the fold counters.
struct LiveFold {
  core::PingSeriesStore store{world().cfg.ping_start_day,
                              world().cfg.ping_interval_s, 0,
                              core::PingSeriesStore::Grid::kGrow};
  live::IncrementalState state;

  void add(const probe::PingRecord& r) {
    state.count(store.commit(store.prepare(r)));
  }
  /// Seals epoch `e`: the grid grows to cover it, as clone_advanced's
  /// grow-copy does.
  void seal(std::size_t e) {
    store = core::PingSeriesStore(store, e + 1);
    state.advance_watermark(static_cast<std::int64_t>(e), store.pair_count());
  }
};

using Verdicts = std::vector<std::tuple<std::uint64_t, core::SeriesVerdict>>;

/// The served verdict of every pair, in key order.
Verdicts all_verdicts(const core::PingSeriesStore& store) {
  Verdicts out;
  store.for_each([&](topology::ServerId src, topology::ServerId dst,
                     net::Family fam, const core::PingSeriesStore::Series& s) {
    out.emplace_back(
        (std::uint64_t{src} << 40) | (std::uint64_t{dst} << 8) |
            (fam == net::Family::kIPv6 ? 6u : 4u),
        core::window_verdict(s, store.samples_per_day(), world().cfg.detect,
                             world().cfg.detect_min_fraction));
  });
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::get<0>(a) < std::get<0>(b);
  });
  return out;
}

/// Bit-exact verdict equality: the equivalence contract is byte
/// identity, so doubles compare with ==, not a tolerance.
void expect_verdicts_equal(const Verdicts& a, const Verdicts& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::get<0>(a[i]), std::get<0>(b[i]));
    const auto& va = std::get<1>(a[i]);
    const auto& vb = std::get<1>(b[i]);
    EXPECT_EQ(va.samples, vb.samples);
    EXPECT_EQ(va.missing_samples, vb.missing_samples);
    EXPECT_EQ(va.insufficient, vb.insufficient);
    EXPECT_EQ(va.variation_ms, vb.variation_ms);
    EXPECT_EQ(va.diurnal_ratio, vb.diurnal_ratio);
    EXPECT_EQ(va.high_variation, vb.high_variation);
    EXPECT_EQ(va.strong_diurnal, vb.strong_diurnal);
  }
}

TEST(LiveWatermark, SidecarRoundTrip) {
  const std::string path = temp_path("live_wm_roundtrip");
  live::Watermark wm;
  wm.sealed_bytes = 123456;
  wm.blocks = 77;
  wm.records = 4242;
  wm.epoch = 665;
  std::string error;
  ASSERT_TRUE(live::write_watermark_file(path, wm, error)) << error;
  live::Watermark back;
  EXPECT_EQ(live::read_watermark_file(path, back),
            live::WatermarkStatus::kValid);
  EXPECT_EQ(back, wm);
  EXPECT_TRUE(live::remove_watermark_file(path));
  EXPECT_EQ(live::read_watermark_file(path, back),
            live::WatermarkStatus::kAbsent);
  EXPECT_TRUE(live::remove_watermark_file(path));  // idempotent
}

TEST(LiveWatermark, CorruptSidecarFailsSafe) {
  const std::string path = temp_path("live_wm_corrupt");
  live::Watermark wm;
  wm.sealed_bytes = 1000;
  wm.epoch = 3;
  std::string error;
  ASSERT_TRUE(live::write_watermark_file(path, wm, error)) << error;

  // Flip one payload byte: the CRC must catch it.
  const std::string wm_path = live::watermark_path(path);
  std::string bytes = slurp(wm_path);
  ASSERT_EQ(bytes.size(), live::kWatermarkBytes);
  bytes[9] = static_cast<char>(bytes[9] ^ 0x40);
  { std::ofstream(wm_path, std::ios::binary) << bytes; }
  live::Watermark back;
  EXPECT_EQ(live::read_watermark_file(path, back),
            live::WatermarkStatus::kInvalid);

  // A truncated sidecar is equally invalid.
  { std::ofstream(wm_path, std::ios::binary) << bytes.substr(0, 20); }
  EXPECT_EQ(live::read_watermark_file(path, back),
            live::WatermarkStatus::kInvalid);
  live::remove_watermark_file(path);
}

TEST(LiveOpenShard, SealBoundsWhatReadersSee) {
  const std::string path = temp_path("live_shard_bound");
  auto writer = write_epochs(path, 4, 32);

  // Write epoch 4 WITHOUT sealing: the sidecar must still describe the
  // 4-epoch prefix, and a watermark-bounded read must decode exactly the
  // sealed records with no truncation or corruption.
  for (const auto& r : world().epochs[4]) writer->write(r);
  live::Watermark wm;
  ASSERT_EQ(live::read_watermark_file(path, wm),
            live::WatermarkStatus::kValid);
  EXPECT_EQ(wm.epoch, 3);
  std::size_t sealed_records = 0;
  for (std::size_t e = 0; e < 4; ++e) {
    sealed_records += world().epochs[e].size();
  }
  EXPECT_EQ(wm.records, sealed_records);

  io::MmapFile file;
  ASSERT_TRUE(file.open(path)) << file.error();
  ASSERT_GE(file.size(), wm.sealed_bytes);
  io::BinRecordMmapReader reader(file.data(),
                                 static_cast<std::size_t>(wm.sealed_bytes));
  ASSERT_TRUE(reader.ok()) << reader.error();
  std::size_t pings = 0;
  reader.read_all([](const probe::TracerouteRecord&) {},
                  [&](const probe::PingRecord&) { ++pings; });
  EXPECT_EQ(pings, sealed_records);
  EXPECT_EQ(reader.counters().corrupt_blocks, 0u);
  EXPECT_FALSE(reader.counters().truncated);

  std::string error;
  ASSERT_TRUE(writer->finish(error)) << error;
  std::remove(path.c_str());
  live::remove_watermark_file(path);
}

TEST(LiveOpenShard, CrashResumeIsByteIdenticalToUninterrupted) {
  const std::string crashed = temp_path("live_shard_crash");
  const std::string reference = temp_path("live_shard_ref");

  // Crash scenario: seal 5 epochs, then die mid-append — an unsealed
  // epoch of records plus a torn half-written block of garbage.
  {
    auto writer = write_epochs(crashed, 5, 32);
    for (const auto& r : world().epochs[5]) writer->write(r);
    // Abandon without seal/finish; the destructor may flush bytes past
    // the watermark, which is exactly the tail resume must discard.
  }
  {
    std::ofstream out(crashed, std::ios::binary | std::ios::app);
    out << "S2BKtorn-half-block-garbage";
  }

  // A reader bounded at the watermark never sees the torn tail.
  live::Watermark wm;
  ASSERT_EQ(live::read_watermark_file(crashed, wm),
            live::WatermarkStatus::kValid);
  EXPECT_EQ(wm.epoch, 4);
  {
    io::MmapFile file;
    ASSERT_TRUE(file.open(crashed)) << file.error();
    io::BinRecordMmapReader reader(file.data(),
                                   static_cast<std::size_t>(wm.sealed_bytes));
    ASSERT_TRUE(reader.ok()) << reader.error();
    std::size_t pings = 0;
    reader.read_all([](const probe::TracerouteRecord&) {},
                  [&](const probe::PingRecord&) { ++pings; });
    EXPECT_EQ(pings, wm.records);
    EXPECT_EQ(reader.counters().corrupt_blocks, 0u);
    EXPECT_FALSE(reader.counters().truncated);
  }

  // Resume truncates the tail and continues the stream; the finished
  // shard must be byte-identical to one written without the crash.
  std::string error;
  auto resumed =
      live::OpenShardWriter::resume(crashed, live::OpenShardConfig{32}, error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_EQ(resumed->watermark().epoch, 4);
  append_epochs(*resumed, 5, 8);
  ASSERT_TRUE(resumed->finish(error)) << error;

  auto ref = write_epochs(reference, 8, 32);
  ASSERT_TRUE(ref->finish(error)) << error;

  EXPECT_EQ(slurp(crashed), slurp(reference));
  EXPECT_EQ(resumed->watermark(), ref->watermark());

  std::remove(crashed.c_str());
  std::remove(reference.c_str());
  live::remove_watermark_file(crashed);
  live::remove_watermark_file(reference);
}

TEST(LiveOpenShard, ResumeRefusesDamagedPrefix) {
  const std::string path = temp_path("live_shard_damaged");
  { write_epochs(path, 3, 32); }
  // Corrupt a byte INSIDE the sealed prefix: that tail recovery cannot
  // reach, so resume must refuse rather than re-serve damaged blocks.
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  { std::ofstream(path, std::ios::binary) << bytes; }
  std::string error;
  auto resumed =
      live::OpenShardWriter::resume(path, live::OpenShardConfig{32}, error);
  EXPECT_EQ(resumed, nullptr);
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
  live::remove_watermark_file(path);
}

TEST(LiveIncremental, MatchesBatchRefoldAtEveryWatermark) {
  // Folding epoch by epoch and refolding the whole prefix at once give
  // the same store, counters and verdicts at every sampled watermark.
  LiveFold streaming;
  for (std::size_t e = 0; e < world().epochs.size(); ++e) {
    for (const auto& r : world().epochs[e]) streaming.add(r);
    streaming.seal(e);
    // Every 64th watermark and the last keep the quadratic refold cheap.
    if (e % 64 != 63 && e + 1 != world().epochs.size()) continue;
    LiveFold batch;
    for (std::size_t b = 0; b <= e; ++b) {
      for (const auto& r : world().epochs[b]) batch.add(r);
    }
    batch.seal(e);
    EXPECT_EQ(streaming.state.records_folded(), batch.state.records_folded());
    EXPECT_EQ(streaming.state.records_dropped(),
              batch.state.records_dropped());
    EXPECT_EQ(streaming.state.pairs_tracked(), batch.state.pairs_tracked());
    expect_verdicts_equal(all_verdicts(streaming.store),
                          all_verdicts(batch.store));
  }
  EXPECT_GT(streaming.state.pairs_tracked(), 0u);
  EXPECT_EQ(streaming.state.watermark_epoch(),
            static_cast<std::int64_t>(world().epochs.size()) - 1);
}

TEST(LiveIncremental, CopyThenFoldEqualsSequentialFold) {
  // The delta-pickup primitive: copy the published store and counters,
  // fold the delta into the copy — must equal folding everything
  // sequentially.
  const std::size_t split = world().epochs.size() / 2;
  LiveFold prefix;
  for (std::size_t e = 0; e < split; ++e) {
    for (const auto& r : world().epochs[e]) prefix.add(r);
    prefix.seal(e);
  }
  LiveFold clone = prefix;
  for (std::size_t e = split; e < world().epochs.size(); ++e) {
    for (const auto& r : world().epochs[e]) clone.add(r);
    clone.seal(e);
  }
  LiveFold full;
  for (std::size_t e = 0; e < world().epochs.size(); ++e) {
    for (const auto& r : world().epochs[e]) full.add(r);
    full.seal(e);
  }
  EXPECT_EQ(clone.state.records_folded(), full.state.records_folded());
  EXPECT_EQ(clone.state.records_dropped(), full.state.records_dropped());
  expect_verdicts_equal(all_verdicts(clone.store), all_verdicts(full.store));
  // The prefix is untouched by the clone's folds.
  EXPECT_EQ(prefix.store.epochs(), split);
}

/// Verdict responses for every ping pair, via the public execute path.
std::vector<std::string> verdict_payloads(const svc::Dataset& ds) {
  std::vector<std::string> out;
  for (const auto& pk : ds.ping_pairs()) {
    svc::PairQuery q;
    q.src = pk.src;
    q.dst = pk.dst;
    q.family = pk.family;
    const auto resp = ds.execute(svc::MsgType::kCongestionVerdict,
                                 svc::encode_pair_query(q), nullptr);
    EXPECT_EQ(resp.type, svc::MsgType::kOk) << resp.payload;
    out.push_back(resp.payload);
  }
  return out;
}

TEST(LiveDataset, DeltaPickupMatchesFreshLoadByteForByte) {
  const std::string path = temp_path("live_ds_pickup");
  auto writer = write_epochs(path, 96, 256);

  svc::DatasetConfig cfg = world().cfg;
  cfg.archive_path = path;
  auto base = std::make_shared<svc::Dataset>(cfg, world().net.get());
  std::string error;
  ASSERT_TRUE(base->load(error)) << error;
  ASSERT_TRUE(base->live());
  EXPECT_EQ(base->watermark().epoch, 95);

  // Unchanged watermark: clone_advanced is a clean no-op, not an error.
  auto unchanged = base->clone_advanced(error);
  EXPECT_EQ(unchanged, nullptr);
  EXPECT_TRUE(error.empty());

  append_epochs(*writer, 96, 160);
  auto advanced = base->clone_advanced(error);
  ASSERT_NE(advanced, nullptr) << error;
  EXPECT_EQ(advanced->watermark().epoch, 159);
  EXPECT_EQ(advanced->ping_epochs(), 160u);

  // The clone (prefix load + delta fold) must serve the same bytes as a
  // from-scratch load of the same watermark, including the cache digest.
  auto fresh = std::make_shared<svc::Dataset>(cfg, world().net.get());
  ASSERT_TRUE(fresh->load(error)) << error;
  EXPECT_EQ(advanced->digest(), fresh->digest());
  EXPECT_EQ(verdict_payloads(*advanced), verdict_payloads(*fresh));
  // ...and export the same load facts: a snapshot's counts are its own
  // whole-shard totals, however many pickups built it.
  std::map<std::string, std::uint64_t> from_pickup, from_load;
  advanced->export_metrics(from_pickup);
  fresh->export_metrics(from_load);
  EXPECT_EQ(from_pickup, from_load);
  EXPECT_EQ(from_load.at("s2s.io.binrec.records_read"),
            fresh->ingest().records);
  EXPECT_EQ(from_load.at("s2s.ping_store.records"),
            fresh->live_state()->records_folded());

  // Growth states never share a digest (the ResultCache satellite).
  EXPECT_NE(base->digest(), advanced->digest());

  // A rewritten (regressed) shard is an error, not a silent pickup.
  auto rewound = write_epochs(path, 8, 256);
  auto bad = advanced->clone_advanced(error);
  EXPECT_EQ(bad, nullptr);
  EXPECT_FALSE(error.empty());

  std::remove(path.c_str());
  live::remove_watermark_file(path);
}

std::string summary(const svc::Dataset& ds) {
  obs::json::Writer w;
  w.begin_object();
  ds.summary_json(w);
  w.end_object();
  return w.str();
}

TEST(LiveDataset, LoadAtAnyWidthAndPickupChainMatchFreshLoad) {
  const std::string path = temp_path("live_ds_widths");
  auto writer = write_epochs(path, 48, 64);
  svc::DatasetConfig cfg = world().cfg;
  cfg.archive_path = path;
  std::string error;

  // load_live on one lane and on eight: same stores, same bytes.
  exec::ThreadPool one(1), eight(8);
  auto base = std::make_shared<svc::Dataset>(cfg, world().net.get());
  ASSERT_TRUE(base->load(error, one)) << error;
  svc::Dataset wide(cfg, world().net.get());
  ASSERT_TRUE(wide.load(error, eight)) << error;
  ASSERT_TRUE(base->live() && wide.live());
  EXPECT_EQ(wide.digest(), base->digest());
  EXPECT_EQ(summary(wide), summary(*base));
  EXPECT_EQ(verdict_payloads(wide), verdict_payloads(*base));

  // A chain of pickups, a few epochs each, ends where a fresh load of
  // the final watermark starts.
  std::shared_ptr<svc::Dataset> snap = base;
  for (std::size_t e = 48; e < 96; e += 12) {
    append_epochs(*writer, e, e + 12);
    auto next = snap->clone_advanced(error);
    ASSERT_NE(next, nullptr) << error;
    snap = next;
  }
  svc::Dataset fresh(cfg, world().net.get());
  ASSERT_TRUE(fresh.load(error)) << error;
  EXPECT_EQ(snap->watermark().epoch, 95);
  EXPECT_EQ(snap->ping_epochs(), fresh.ping_epochs());
  EXPECT_EQ(snap->digest(), fresh.digest());
  EXPECT_EQ(summary(*snap), summary(fresh));
  EXPECT_EQ(verdict_payloads(*snap), verdict_payloads(fresh));

  std::remove(path.c_str());
  live::remove_watermark_file(path);
}

TEST(LiveDataset, VerdictMatchesFinalizedShardAtEveryWatermark) {
  // At every sealed watermark, the live snapshot (a load, then one
  // clone_advanced per epoch) serves every pair the same verdict bytes
  // as a copy of that sealed prefix with no sidecar, loaded as a batch
  // archive: one verdict, whatever the archive's state. Every epoch of
  // the corpus carries pings, so both ping grids end at the watermark.
  // The chain starts from a load at width 8, the batch loads alternate
  // between widths 1 and 8, and the pickups run on the shared load
  // pool, whose width S2S_THREADS sets. The shard carries the first
  // three measured pairs (12 series), which keeps the 768 watermarks
  // affordable in sanitizer builds.
  const auto& measured = world().pairs;
  const auto in_shard = [&](const probe::PingRecord& r) {
    for (std::size_t i = 0; i < 3; ++i) {
      const auto [a, b] = measured[i];
      if ((r.src == a && r.dst == b) || (r.src == b && r.dst == a)) {
        return true;
      }
    }
    return false;
  };
  const std::string path = temp_path("live_ds_finalized");
  const std::string batch_path = temp_path("live_ds_finalized_batch");
  live::OpenShardWriter writer(path, live::OpenShardConfig{256});
  ASSERT_TRUE(writer.ok()) << writer.error();
  svc::DatasetConfig cfg = world().cfg;
  cfg.archive_path = path;
  svc::DatasetConfig batch_cfg = cfg;
  batch_cfg.archive_path = batch_path;

  exec::ThreadPool one(1), eight(8);
  exec::ThreadPool* pools[] = {&one, &eight};
  std::shared_ptr<svc::Dataset> snap;
  std::string error;
  for (std::size_t e = 0; e < world().epochs.size(); ++e) {
    for (const auto& r : world().epochs[e]) {
      if (in_shard(r)) writer.write(r);
    }
    ASSERT_TRUE(writer.seal(static_cast<std::int64_t>(e), error)) << error;
    {
      const std::string sealed =
          slurp(path).substr(0, writer.watermark().sealed_bytes);
      std::ofstream(batch_path, std::ios::binary | std::ios::trunc) << sealed;
    }
    svc::Dataset batch(batch_cfg, world().net.get());
    ASSERT_TRUE(batch.load(error, *pools[e % 2])) << error;
    ASSERT_FALSE(batch.live());
    ASSERT_EQ(batch.ping_epochs(), e + 1);
    if (snap == nullptr) {
      snap = std::make_shared<svc::Dataset>(cfg, world().net.get());
      ASSERT_TRUE(snap->load(error, eight)) << error;
    } else {
      auto next = snap->clone_advanced(error);
      ASSERT_NE(next, nullptr) << "watermark " << e << ": " << error;
      snap = next;
    }
    ASSERT_TRUE(snap->live());
    ASSERT_EQ(snap->ping_epochs(), e + 1);
    ASSERT_EQ(verdict_payloads(*snap), verdict_payloads(batch))
        << "watermark " << e;
  }

  std::remove(path.c_str());
  std::remove(batch_path.c_str());
  live::remove_watermark_file(path);
}

TEST(LiveDataset, DamagedSidecarRefusesLoad) {
  const std::string path = temp_path("live_ds_badwm");
  write_epochs(path, 4, 256);
  const std::string wm_path = live::watermark_path(path);
  std::string bytes = slurp(wm_path);
  bytes[12] = static_cast<char>(bytes[12] ^ 0x08);
  { std::ofstream(wm_path, std::ios::binary) << bytes; }

  svc::DatasetConfig cfg = world().cfg;
  cfg.archive_path = path;
  svc::Dataset ds(cfg, world().net.get());
  std::string error;
  EXPECT_FALSE(ds.load(error));
  EXPECT_NE(error.find("watermark"), std::string::npos) << error;

  std::remove(path.c_str());
  live::remove_watermark_file(path);
}

/// Flips one payload byte of the first block whose header starts at or
/// after `from` (the block then fails its CRC; its framing stays intact).
void corrupt_block_at_or_after(const std::string& path, std::size_t from) {
  const std::string bytes = slurp(path);
  const auto blocks = io::scan_blocks(bytes.data(), bytes.size());
  ASSERT_TRUE(blocks.has_value());
  for (const io::BlockRef& b : *blocks) {
    if (b.header_offset < from || b.payload_bytes == 0) continue;
    const std::size_t at = b.payload_offset + b.payload_bytes / 2;
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(at));
    f.put(static_cast<char>(bytes[at] ^ 0x10));
    return;
  }
  FAIL() << "no block at or after offset " << from;
}

TEST(LiveDataset, DamagedSealedPrefixRefusesLoadAndPickup) {
  svc::DatasetConfig cfg = world().cfg;
  std::string error;

  // A corrupt block inside the watermark: the load fails, and a dataset
  // that was serving keeps its stores.
  {
    const std::string path = temp_path("live_ds_corrupt_prefix");
    cfg.archive_path = path;
    auto writer = write_epochs(path, 8, 64);
    svc::Dataset ds(cfg, world().net.get());
    ASSERT_TRUE(ds.load(error)) << error;
    const std::uint64_t digest = ds.digest();
    corrupt_block_at_or_after(path, io::kBinFileHeaderBytes);
    EXPECT_FALSE(ds.load(error));
    EXPECT_NE(error.find("corrupt block"), std::string::npos) << error;
    EXPECT_TRUE(ds.loaded());
    EXPECT_EQ(ds.digest(), digest);
    std::remove(path.c_str());
    live::remove_watermark_file(path);
  }

  // A shard shorter than its watermark: no load, and no pickup either.
  {
    const std::string path = temp_path("live_ds_short");
    cfg.archive_path = path;
    auto writer = write_epochs(path, 8, 64);
    svc::Dataset ds(cfg, world().net.get());
    ASSERT_TRUE(ds.load(error)) << error;
    append_epochs(*writer, 8, 12);
    const auto sealed = writer->watermark().sealed_bytes;
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(sealed - 10)), 0);
    EXPECT_EQ(ds.clone_advanced(error), nullptr);
    EXPECT_NE(error.find("shorter than its watermark"), std::string::npos)
        << error;
    svc::Dataset fresh(cfg, world().net.get());
    EXPECT_FALSE(fresh.load(error));
    EXPECT_NE(error.find("shorter than its watermark"), std::string::npos)
        << error;
    EXPECT_FALSE(fresh.loaded());
    std::remove(path.c_str());
    live::remove_watermark_file(path);
  }

  // Damage in a newly sealed tail: the pickup fails, while the snapshot
  // it started from is untouched and still serves.
  {
    const std::string path = temp_path("live_ds_corrupt_tail");
    cfg.archive_path = path;
    auto writer = write_epochs(path, 8, 64);
    auto base = std::make_shared<svc::Dataset>(cfg, world().net.get());
    ASSERT_TRUE(base->load(error)) << error;
    const auto before = verdict_payloads(*base);
    const std::size_t old_sealed = base->watermark().sealed_bytes;
    append_epochs(*writer, 8, 12);
    corrupt_block_at_or_after(path, old_sealed);
    EXPECT_EQ(base->clone_advanced(error), nullptr);
    EXPECT_NE(error.find("corrupt block"), std::string::npos) << error;
    EXPECT_EQ(base->watermark().epoch, 7);
    EXPECT_EQ(verdict_payloads(*base), before);
    std::remove(path.c_str());
    live::remove_watermark_file(path);
  }
}

TEST(LiveServer, ServesAcrossDeltaPickupsWithoutReload) {
  const std::string path = temp_path("live_srv_pickup");
  auto writer = write_epochs(path, 64, 256);

  svc::DatasetConfig cfg = world().cfg;
  cfg.archive_path = path;
  svc::Dataset dataset(cfg, world().net.get());
  std::string error;
  ASSERT_TRUE(dataset.load(error)) << error;

  exec::ThreadPool pool(2);
  svc::ServerConfig server_cfg;
  server_cfg.live_poll_ms = 5;
  svc::Server server(dataset, &pool, server_cfg);
  ASSERT_TRUE(server.start(error)) << error;
  std::thread serve_thread([&] { server.serve(); });

  auto live_status = [&](std::int64_t* epoch_out) {
    svc::Client client;
    std::string err;
    EXPECT_TRUE(client.connect("127.0.0.1", server.port(), err)) << err;
    svc::MsgType rtype;
    std::string payload;
    EXPECT_TRUE(client.call(svc::MsgType::kLiveStatus, 0, "", &rtype,
                            &payload, err))
        << err;
    EXPECT_EQ(rtype, svc::MsgType::kOk) << payload;
    const auto root = obs::json::parse(payload);
    ASSERT_TRUE(root && root->is_object());
    const auto* wm = root->find("watermark_epoch");
    ASSERT_TRUE(wm && wm->is_number());
    *epoch_out = static_cast<std::int64_t>(wm->number);
  };

  std::int64_t epoch = -1;
  live_status(&epoch);
  EXPECT_EQ(epoch, 63);

  // Append while the server runs; the poller must pick the delta up with
  // no SIGHUP and no restart.
  append_epochs(*writer, 64, 192);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (epoch != 191 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    live_status(&epoch);
  }
  EXPECT_EQ(epoch, 191);
  EXPECT_GE(server.live_pickups(), 1u);

  // Served verdicts at the final watermark match a fresh batch-load of
  // the same shard byte for byte.
  svc::Dataset fresh(cfg, world().net.get());
  ASSERT_TRUE(fresh.load(error)) << error;
  const auto expected = verdict_payloads(fresh);
  std::size_t i = 0;
  for (const auto& pk : fresh.ping_pairs()) {
    svc::PairQuery q;
    q.src = pk.src;
    q.dst = pk.dst;
    q.family = pk.family;
    svc::Client client;
    std::string err;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), err)) << err;
    svc::MsgType rtype;
    std::string payload;
    ASSERT_TRUE(client.call(svc::MsgType::kCongestionVerdict, 0,
                            svc::encode_pair_query(q), &rtype, &payload, err))
        << err;
    EXPECT_EQ(rtype, svc::MsgType::kOk) << payload;
    EXPECT_EQ(payload, expected[i]) << "pair index " << i;
    ++i;
  }
  // The server exports the served snapshot's load facts, the same as
  // the fresh load's, beside the live fold count.
  std::map<std::string, std::uint64_t> counters, loaded;
  std::map<std::string, double> gauges;
  server.export_metrics(counters, gauges);
  fresh.export_metrics(loaded);
  ASSERT_TRUE(loaded.count("s2s.timeline.records"));
  for (const auto& [name, v] : loaded) {
    ASSERT_TRUE(counters.count(name)) << name;
    EXPECT_EQ(counters.at(name), v) << name;
  }
  EXPECT_EQ(counters.at("s2s.live.records_folded"),
            fresh.live_state()->records_folded());

  server.request_drain();
  serve_thread.join();
  std::remove(path.c_str());
  live::remove_watermark_file(path);
}

}  // namespace
}  // namespace s2s
