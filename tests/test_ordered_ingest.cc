// Ordered parallel ingest (DESIGN.md section 17): the block pipeline
// must build exactly the stores a single-threaded, record-at-a-time
// read builds — same series, timelines, path ids, quality and Table 1
// counters, read counters, footer verdict and digest CRC — at every
// lane count, on clean, footerless, damaged and dirty archives.
//
// One deployment and one fixture record stream are built once and
// shared; each case writes its own archive variant to a temp file.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/ping_series.h"
#include "core/timeline.h"
#include "exec/pool.h"
#include "io/binrec.h"
#include "io/crc32c.h"
#include "io/mmap_file.h"
#include "io/records_io.h"
#include "live/watermark.h"
#include "simnet/network.h"
#include "svc/dataset.h"
#include "svc/ingest.h"
#include "svc/protocol.h"

namespace s2s {
namespace {

struct World {
  svc::DatasetConfig cfg;
  std::unique_ptr<simnet::Network> net;
  std::vector<probe::TracerouteRecord> traces;
  std::vector<probe::PingRecord> pings;
};

std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + stem + "_" + std::to_string(::getpid()) +
         ".s2sb";
}

const World& world() {
  static const World* w = [] {
    auto* out = new World;
    out->net =
        std::make_unique<simnet::Network>(svc::dataset_net_config(out->cfg));
    svc::FixtureParams params;
    params.trace_days = 4.0;
    params.ping_days = 2.0;
    params.max_trace_pairs = 6;
    params.max_ping_pairs = 12;
    const std::string path = temp_path("ordered_world");
    std::string error;
    EXPECT_TRUE(svc::write_fixture_archive(path, out->cfg, params, error))
        << error;
    io::ingest_record_file(
        path,
        [&](const probe::TracerouteRecord& r) { out->traces.push_back(r); },
        [&](const probe::PingRecord& r) { out->pings.push_back(r); });
    std::remove(path.c_str());
    return out;
  }();
  return *w;
}

/// Writes records in the given order; small blocks so every archive has
/// dozens of pipeline items.
void write_archive(const std::string& path,
                   const std::vector<probe::TracerouteRecord>& traces,
                   const std::vector<probe::PingRecord>& pings, bool footer) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  io::BinWriterConfig cfg;
  cfg.block_records = 97;
  cfg.write_footer = footer;
  io::BinRecordWriter writer(out, cfg);
  for (const auto& r : traces) writer.write(r);
  writer.flush_block();
  for (const auto& r : pings) writer.write(r);
  writer.finish();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Everything observable about the stores and the read, as text, so one
/// EXPECT_EQ compares it all and a mismatch prints the difference.
std::string dump(const core::TimelineStore& tl, const core::PingSeriesStore& ps,
                 const io::BinReadCounters& counters, io::FooterStatus footer,
                 std::uint32_t crc) {
  std::ostringstream o;
  o << "read blocks=" << counters.blocks_read
    << " corrupt=" << counters.corrupt_blocks
    << " records=" << counters.records_read
    << " rejected=" << counters.records_rejected
    << " truncated=" << counters.truncated
    << " footer=" << static_cast<int>(footer) << " crc=" << crc << "\n";
  o << "pings epochs=" << ps.epochs() << " pairs=" << ps.pair_count() << " "
    << ps.quality().to_string() << "\n";
  std::map<std::tuple<std::uint32_t, std::uint32_t, int>, std::string> rows;
  ps.for_each([&](topology::ServerId s, topology::ServerId d, net::Family f,
                  const core::PingSeriesStore::Series& series) {
    std::ostringstream row;
    row << "valid=" << series.valid << ":";
    for (const auto v : series.rtt_tenths) row << " " << v;
    rows[{s, d, static_cast<int>(f)}] = row.str();
  });
  for (const auto& [k, row] : rows) {
    o << std::get<0>(k) << ">" << std::get<1>(k) << "/" << std::get<2>(k)
      << " " << row << "\n";
  }
  const auto& t = tl.table1();
  for (const auto* fam : {&t.v4, &t.v6}) {
    o << "table1 " << fam->collected << " " << fam->complete << " "
      << fam->as_loops << " " << fam->complete_as << " " << fam->missing_as
      << " " << fam->missing_ip << "\n";
  }
  o << "timelines n=" << tl.timeline_count() << " max_epoch=" << tl.max_epoch()
    << " " << tl.quality().to_string() << "\n";
  for (std::uint32_t id = 0; id < tl.interner().size(); ++id) {
    o << "path " << id << " " << net::to_string(tl.interner().path(id)) << "\n";
  }
  rows.clear();
  tl.for_each([&](topology::ServerId s, topology::ServerId d, net::Family f,
                  const core::TraceTimeline& timeline) {
    std::ostringstream row;
    for (const auto p : timeline.local_paths) row << " g" << p;
    row << " :";
    for (const auto& ob : timeline.obs) {
      row << " " << ob.epoch << "/" << ob.rtt_tenths << "/" << ob.path;
    }
    rows[{s, d, static_cast<int>(f)}] = row.str();
  });
  for (const auto& [k, row] : rows) {
    o << std::get<0>(k) << ">" << std::get<1>(k) << "/" << std::get<2>(k)
      << row << "\n";
  }
  return o.str();
}

core::TimelineStore make_timelines() {
  return core::TimelineStore(
      world().net->topo(), world().net->rib(),
      core::TimelineStoreConfig{world().cfg.trace_start_day,
                                world().cfg.trace_interval_s});
}

/// The reference: one single-threaded read, every record add()ed as it
/// is delivered, into a ping store whose fixed grid was sized by a
/// separate pre-pass over the read's last ping epoch (the two-pass load
/// the pipeline replaces).
std::string reference(const std::string& bytes) {
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  std::int64_t max_epoch = -1;
  io::BinRecordMmapReader(data, bytes.size())
      .read_all([](const probe::TracerouteRecord&) {},
                [&](const probe::PingRecord& r) {
                  max_epoch = std::max(
                      max_epoch, net::grid_epoch(r.time,
                                                 world().cfg.ping_start_day,
                                                 world().cfg.ping_interval_s));
                });
  auto timelines = make_timelines();
  core::PingSeriesStore pings(world().cfg.ping_start_day,
                              world().cfg.ping_interval_s,
                              static_cast<std::size_t>(max_epoch + 1));
  io::BinRecordMmapReader reader(data, bytes.size());
  reader.read_all([&](const probe::TracerouteRecord& r) { timelines.add(r); },
                  [&](const probe::PingRecord& r) { pings.add(r); });
  return dump(timelines, pings, reader.counters(), reader.footer_status(),
              io::crc32c(data, bytes.size()));
}

/// The same archive through the block pipeline at `width` lanes.
std::string pipelined(const std::string& bytes, unsigned width) {
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  const io::BinRecordMmapReader reader(data, bytes.size());
  const io::BlockPlan plan = reader.plan();
  auto timelines = make_timelines();
  core::PingSeriesStore pings(world().cfg.ping_start_day,
                              world().cfg.ping_interval_s, 0,
                              core::PingSeriesStore::Grid::kGrow);
  exec::ThreadPool pool(width);
  const auto outcome =
      svc::ingest_blocks({data, 0, bytes.size(), 0, nullptr}, plan,
                         {&timelines, &pings, nullptr}, &pool);
  return dump(timelines, pings, outcome.counters, plan.footer, outcome.crc);
}

void expect_same_at_every_width(const std::string& path) {
  const std::string bytes = slurp(path);
  ASSERT_FALSE(bytes.empty());
  const std::string want = reference(bytes);
  for (const unsigned width : {1u, 2u, 8u}) {
    EXPECT_EQ(pipelined(bytes, width), want) << "width " << width;
  }
}

TEST(OrderedIngest, FooterIndexedArchive) {
  const std::string path = temp_path("ordered_footer");
  write_archive(path, world().traces, world().pings, /*footer=*/true);
  const std::string bytes = slurp(path);
  ASSERT_EQ(io::BinRecordMmapReader(bytes.data(), bytes.size()).footer_status(),
            io::FooterStatus::kValid);
  expect_same_at_every_width(path);
  std::remove(path.c_str());
}

TEST(OrderedIngest, FooterlessArchive) {
  const std::string path = temp_path("ordered_footerless");
  write_archive(path, world().traces, world().pings, /*footer=*/false);
  expect_same_at_every_width(path);
  std::remove(path.c_str());
}

TEST(OrderedIngest, CorruptBlockAndTornTail) {
  const std::string path = temp_path("ordered_damaged");
  write_archive(path, world().traces, world().pings, /*footer=*/false);
  std::string bytes = slurp(path);
  const auto blocks = io::scan_blocks(bytes.data(), bytes.size());
  ASSERT_TRUE(blocks.has_value());
  ASSERT_GT(blocks->size(), 10u);
  // One CRC failure in the middle, and the last block cut in half.
  const auto& victim = (*blocks)[blocks->size() / 2];
  bytes[victim.payload_offset + victim.payload_bytes / 2] ^= 0x20;
  const auto& last = blocks->back();
  bytes.resize(last.payload_offset + last.payload_bytes / 2);
  spit(path, bytes);

  io::BinRecordMmapReader reader(bytes.data(), bytes.size());
  reader.read_all([](const probe::TracerouteRecord&) {},
                  [](const probe::PingRecord&) {});
  EXPECT_EQ(reader.corrupt_blocks(), 2u);  // the flipped block + the tear
  EXPECT_TRUE(reader.counters().truncated);
  expect_same_at_every_width(path);
  std::remove(path.c_str());
}

TEST(OrderedIngest, DuplicatedReorderedInvalidAndOffGridRecords) {
  std::vector<probe::TracerouteRecord> traces = world().traces;
  std::vector<probe::PingRecord> pings = world().pings;
  ASSERT_GT(traces.size(), 200u);
  ASSERT_GT(pings.size(), 400u);
  // Re-deliveries near the original (caught by the dedup window) and a
  // reordered run (accepted, tallied as reordered).
  for (std::size_t i = 0; i < 40; ++i) {
    traces.insert(traces.begin() + 100 + 3 * i, traces[90 + i]);
    pings.insert(pings.begin() + 300 + 3 * i, pings[290 + i]);
  }
  std::reverse(traces.begin() + 10, traces.begin() + 60);
  std::reverse(pings.begin() + 20, pings.begin() + 200);
  // RTTs no decoder accepts (rejected at read), timestamps before the
  // grid (out of grid in both stores) and past the trace grid.
  traces[5].hops.back().rtt_ms = std::numeric_limits<double>::quiet_NaN();
  pings[7].rtt_ms = -1.0;
  traces[8].time = net::SimTime(-7200);
  pings[9].time = net::SimTime(-3600);
  traces[11].time = net::SimTime(std::int64_t{70000} * net::kThreeHours);
  const std::string path = temp_path("ordered_dirty");
  write_archive(path, traces, pings, /*footer=*/true);
  expect_same_at_every_width(path);
  std::remove(path.c_str());
}

TEST(OrderedIngest, LastPingEpochCarriedOnlyByDroppedRecords) {
  // The archive's last ping epoch is carried only by a failed probe and
  // its re-delivery, which the store drops as a duplicate: no slot is
  // ever written there, yet the grid a pre-pass would size covers it,
  // so the growing grid must too.
  std::vector<probe::PingRecord> pings = world().pings;
  probe::PingRecord last = pings.back();
  last.time = net::SimTime(last.time.seconds() + 5 * net::kFifteenMinutes);
  last.success = false;
  pings.push_back(last);
  pings.push_back(last);
  const std::string path = temp_path("ordered_dup_tail");
  write_archive(path, world().traces, pings, /*footer=*/true);
  expect_same_at_every_width(path);

  const std::string bytes = slurp(path);
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  auto timelines = make_timelines();
  core::PingSeriesStore grown(world().cfg.ping_start_day,
                              world().cfg.ping_interval_s, 0,
                              core::PingSeriesStore::Grid::kGrow);
  svc::ingest_blocks({data, 0, bytes.size(), 0, nullptr},
                     io::BinRecordMmapReader(data, bytes.size()).plan(),
                     {&timelines, &grown, nullptr}, nullptr);
  EXPECT_EQ(grown.epochs(),
            static_cast<std::size_t>(net::grid_epoch(
                last.time, world().cfg.ping_start_day,
                world().cfg.ping_interval_s)) +
                1);
  EXPECT_GE(grown.quality().duplicates_dropped, 1u);
  std::remove(path.c_str());
}

/// What a client sees of a loaded dataset: its load facts (exported
/// counters, digest, watermark) and the answer to every request type
/// over every pair.
std::string served(const svc::Dataset& ds) {
  std::map<std::string, std::uint64_t> counters;
  ds.export_metrics(counters);
  const live::Watermark& wm = ds.watermark();
  std::string out = std::to_string(ds.digest()) +
                    (ds.live() ? " live" : " batch") +
                    " epoch=" + std::to_string(wm.epoch) +
                    " sealed_bytes=" + std::to_string(wm.sealed_bytes) +
                    " blocks=" + std::to_string(wm.blocks) +
                    " records=" + std::to_string(wm.records);
  for (const auto& [name, value] : counters) {
    out += " " + name + "=" + std::to_string(value);
  }
  out += "\n";
  for (const std::uint8_t fig : {1, 2, 5, 10}) {
    out += ds.execute(svc::MsgType::kFigureDigest,
                      svc::encode_figure_query({fig}), nullptr)
               .payload +
           "\n";
  }
  for (const auto& k : ds.ping_pairs()) {
    const auto q = svc::encode_pair_query({k.src, k.dst, k.family, 1});
    for (const auto type :
         {svc::MsgType::kPairRtt, svc::MsgType::kPathPrevalence,
          svc::MsgType::kCongestionVerdict}) {
      out += ds.execute(type, q, nullptr).payload + "\n";
    }
  }
  return out;
}

TEST(OrderedIngest, DatasetServesIdenticalBytesAtAnyWidth) {
  const std::string path = temp_path("ordered_dataset");
  write_archive(path, world().traces, world().pings, /*footer=*/true);
  svc::DatasetConfig cfg = world().cfg;
  cfg.archive_path = path;
  const std::string bytes = slurp(path);

  std::string want;
  std::uint64_t want_digest = 0;
  for (const unsigned width : {1u, 2u, 8u}) {
    svc::Dataset ds(cfg, world().net.get());
    exec::ThreadPool pool(width);
    std::string error;
    ASSERT_TRUE(ds.load(error, pool)) << error;
    EXPECT_EQ(ds.ingest().footer, io::FooterStatus::kValid);
    EXPECT_TRUE(ds.mmap_resident());
    const std::string got = served(ds);
    if (width == 1) {
      want = got;
      want_digest = ds.digest();
    }
    EXPECT_EQ(got, want) << "width " << width;
    EXPECT_EQ(ds.digest(), want_digest) << "width " << width;
    // The retained mapping still serves the archive's own bytes after
    // the ingest released its pages.
    const auto slice = ds.archive_slice(std::numeric_limits<std::int64_t>::min(),
                                        std::numeric_limits<std::int64_t>::max());
    ASSERT_TRUE(slice.ok) << slice.error;
    std::string joined = slice.file_header;
    for (const auto b : slice.blocks) joined += b;
    EXPECT_EQ(joined, bytes.substr(0, joined.size()));
  }
  // The process-wide pool gives the same bytes too.
  svc::Dataset shared(cfg, world().net.get());
  std::string error;
  ASSERT_TRUE(shared.load(error)) << error;
  EXPECT_EQ(served(shared), want);
  EXPECT_EQ(shared.digest(), want_digest);
  std::remove(path.c_str());
}

TEST(OrderedIngest, TextArchiveLoadsLikeRecordAtATimeAdd) {
  // A text archive is parsed straight from the load's mapping; its
  // stores are the record-at-a-time ones, and a bad line is counted.
  const std::string path = temp_path("ordered_text");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const auto& r : world().traces) out << io::to_line(r) << '\n';
    out << "not a record\n";
    for (const auto& r : world().pings) out << io::to_line(r) << '\n';
  }
  svc::DatasetConfig cfg = world().cfg;
  cfg.archive_path = path;
  svc::Dataset ds(cfg, world().net.get());
  std::string error;
  ASSERT_TRUE(ds.load(error)) << error;
  EXPECT_FALSE(ds.ingest().binary);
  EXPECT_EQ(ds.ingest().records, world().traces.size() + world().pings.size());
  EXPECT_EQ(ds.ingest().malformed_lines, 1u);
  EXPECT_FALSE(ds.mmap_resident());

  std::int64_t max_epoch = -1;
  for (const auto& r : world().pings) {
    max_epoch = std::max(max_epoch, net::grid_epoch(r.time,
                                                    world().cfg.ping_start_day,
                                                    world().cfg.ping_interval_s));
  }
  auto timelines = make_timelines();
  core::PingSeriesStore pings(world().cfg.ping_start_day,
                              world().cfg.ping_interval_s,
                              static_cast<std::size_t>(max_epoch + 1));
  for (const auto& r : world().traces) timelines.add(r);
  for (const auto& r : world().pings) pings.add(r);
  EXPECT_EQ(dump(ds.timelines(), ds.pings(), {}, io::FooterStatus::kAbsent, 0),
            dump(timelines, pings, {}, io::FooterStatus::kAbsent, 0));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace s2s
