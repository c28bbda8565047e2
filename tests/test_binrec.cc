// Round-trip property tests for the `.s2sb` binary columnar format:
// every record sequence must survive write -> read bit-exact through
// the reader (over a mapped file or an in-memory image), and a binary
// archive must be analysis-equivalent to the text archive of the same
// records — identical DataQualityReports, identical store contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/ping_series.h"
#include "core/segment_series.h"
#include "net/timebase.h"
#include "io/binrec.h"
#include "io/crc32c.h"
#include "io/records_io.h"
#include "io/varint.h"
#include "stats/rng.h"
#include "svc/dataset.h"

namespace s2s {
namespace {

using probe::PingRecord;
using probe::TracerouteRecord;

// -- bit-exact record equality ----------------------------------------------

void expect_same(const PingRecord& a, const PingRecord& b, std::size_t i) {
  EXPECT_EQ(a.src, b.src) << "ping " << i;
  EXPECT_EQ(a.dst, b.dst) << "ping " << i;
  EXPECT_EQ(a.family, b.family) << "ping " << i;
  EXPECT_EQ(a.time.seconds(), b.time.seconds()) << "ping " << i;
  EXPECT_EQ(a.success, b.success) << "ping " << i;
  // Bitwise, not approximate: the format contract is exactness on the
  // 1e-3 ms grid both formats share.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rtt_ms),
            std::bit_cast<std::uint64_t>(b.rtt_ms))
      << "ping " << i << " rtt " << a.rtt_ms << " vs " << b.rtt_ms;
}

void expect_same(const TracerouteRecord& a, const TracerouteRecord& b,
                 std::size_t i) {
  EXPECT_EQ(a.src, b.src) << "trace " << i;
  EXPECT_EQ(a.dst, b.dst) << "trace " << i;
  EXPECT_EQ(a.family, b.family) << "trace " << i;
  EXPECT_EQ(a.time.seconds(), b.time.seconds()) << "trace " << i;
  EXPECT_EQ(a.method, b.method) << "trace " << i;
  EXPECT_EQ(a.complete, b.complete) << "trace " << i;
  EXPECT_EQ(a.src_addr, b.src_addr) << "trace " << i;
  EXPECT_EQ(a.dst_addr, b.dst_addr) << "trace " << i;
  ASSERT_EQ(a.hops.size(), b.hops.size()) << "trace " << i;
  for (std::size_t h = 0; h < a.hops.size(); ++h) {
    EXPECT_EQ(a.hops[h].addr.has_value(), b.hops[h].addr.has_value())
        << "trace " << i << " hop " << h;
    if (a.hops[h].addr && b.hops[h].addr) {
      EXPECT_EQ(*a.hops[h].addr, *b.hops[h].addr)
          << "trace " << i << " hop " << h;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.hops[h].rtt_ms),
              std::bit_cast<std::uint64_t>(b.hops[h].rtt_ms))
        << "trace " << i << " hop " << h;
  }
}

template <typename Record>
void expect_same_sequence(const std::vector<Record>& want,
                          const std::vector<Record>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_same(want[i], got[i], i);
  }
}

// -- seeded generators -------------------------------------------------------

/// An RTT on the 1e-3 ms grid — the exact values "%.3f" text can carry,
/// including the extreme-but-valid boundaries.
double grid_rtt(stats::Rng& rng) {
  switch (rng.below(8)) {
    case 0:
      return 0.0;
    case 1:
      return 0.001;  // smallest nonzero grid point
    case 2:
      return probe::kMaxPlausibleRttMs;  // largest valid value
    case 3:
      return probe::kMaxPlausibleRttMs - 0.001;
    default:
      return static_cast<double>(rng.below(60'000'000)) / 1000.0;
  }
}

std::int64_t boundary_time(stats::Rng& rng) {
  switch (rng.below(6)) {
    case 0:
      return 0;  // epoch floor
    case 1:
      return probe::kMaxTimestampS;  // epoch ceiling
    case 2:
      return probe::kMaxTimestampS - 1;
    default:
      return static_cast<std::int64_t>(rng.below(1000)) * 10'800;
  }
}

net::IPAddr random_addr(stats::Rng& rng) {
  if (rng.chance(0.5)) {
    return net::IPv4Addr(static_cast<std::uint32_t>(rng()));
  }
  return net::IPv6Addr::from_halves(rng(), rng());
}

PingRecord random_ping(stats::Rng& rng) {
  PingRecord r;
  r.src = static_cast<topology::ServerId>(rng.below(40));
  r.dst = static_cast<topology::ServerId>(rng.below(40));
  r.family = rng.chance(0.5) ? net::Family::kIPv4 : net::Family::kIPv6;
  r.time = net::SimTime(boundary_time(rng));
  r.success = rng.chance(0.9);
  r.rtt_ms = grid_rtt(rng);
  return r;
}

TracerouteRecord random_trace(stats::Rng& rng) {
  TracerouteRecord r;
  r.src = static_cast<topology::ServerId>(rng.below(40));
  r.dst = static_cast<topology::ServerId>(rng.below(40));
  r.family = rng.chance(0.5) ? net::Family::kIPv4 : net::Family::kIPv6;
  r.time = net::SimTime(boundary_time(rng));
  r.method = rng.chance(0.5) ? probe::TracerouteMethod::kParis
                             : probe::TracerouteMethod::kClassic;
  const std::size_t hops = rng.below(12);  // 0 hops is a valid record
  for (std::size_t h = 0; h < hops; ++h) {
    probe::Hop hop;
    if (!rng.chance(0.15)) {  // 15% unresponsive ("*")
      hop.addr = random_addr(rng);
      hop.rtt_ms = grid_rtt(rng);
    }
    r.hops.push_back(hop);
  }
  r.src_addr = random_addr(rng);
  r.dst_addr = random_addr(rng);
  r.complete = !r.hops.empty() && r.hops.back().addr.has_value() &&
               rng.chance(0.75);
  if (r.complete) r.hops.back().addr = r.dst_addr;
  return r;
}

struct Generated {
  std::vector<TracerouteRecord> traces;
  std::vector<PingRecord> pings;
  std::string image;  ///< the serialized `.s2sb` bytes
};

/// Generates a mixed record stream and serializes it with per-kind block
/// interleaving and explicit epoch-style flushes.
Generated generate(std::uint64_t seed, std::size_t n,
                   io::BinWriterConfig config = {.block_records = 64,
                                                  .resume_index = {}}) {
  Generated g;
  stats::Rng rng(seed);
  std::ostringstream out(std::ios::binary);
  io::BinRecordWriter writer(out, config);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.5)) {
      g.traces.push_back(random_trace(rng));
      writer.write(g.traces.back());
    } else {
      g.pings.push_back(random_ping(rng));
      writer.write(g.pings.back());
    }
    if (rng.chance(0.02)) writer.flush_block();  // epoch boundary
  }
  writer.finish();
  EXPECT_EQ(writer.written(), n);
  g.image = out.str();
  return g;
}

struct Collected {
  std::vector<TracerouteRecord> traces;
  std::vector<PingRecord> pings;
};

Collected collect_mmap(const std::string& image,
                       io::BinReadCounters* counters = nullptr) {
  Collected c;
  io::BinRecordMmapReader reader(image.data(), image.size());
  EXPECT_TRUE(reader.ok()) << reader.error();
  reader.read_all([&](const TracerouteRecord& r) { c.traces.push_back(r); },
                  [&](const PingRecord& r) { c.pings.push_back(r); });
  if (counters != nullptr) *counters = reader.counters();
  return c;
}

// -- RTT fixed-point encoding ------------------------------------------------

TEST(BinRecRtt, GridValuesRoundTripExactly) {
  stats::Rng rng(17);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint32_t k =
        static_cast<std::uint32_t>(rng.below(60'000'001));
    const double ms = static_cast<double>(k) / 1000.0;
    ASSERT_EQ(io::encode_rtt_thousandths(ms), k) << ms;
    const auto back = io::decode_rtt_thousandths(k);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(std::bit_cast<std::uint64_t>(*back),
              std::bit_cast<std::uint64_t>(ms));
  }
}

TEST(BinRecRtt, BoundariesAndInvalids) {
  EXPECT_EQ(io::encode_rtt_thousandths(0.0), 0u);
  EXPECT_EQ(io::encode_rtt_thousandths(probe::kMaxPlausibleRttMs),
            60'000'000u);
  // NaN-adjacent and out-of-range inputs all hit the sentinel.
  EXPECT_EQ(io::encode_rtt_thousandths(std::nan("")),
            io::kInvalidRttThousandths);
  EXPECT_EQ(io::encode_rtt_thousandths(std::numeric_limits<double>::infinity()),
            io::kInvalidRttThousandths);
  EXPECT_EQ(io::encode_rtt_thousandths(-0.001), io::kInvalidRttThousandths);
  EXPECT_EQ(io::encode_rtt_thousandths(
                std::nextafter(probe::kMaxPlausibleRttMs,
                               std::numeric_limits<double>::infinity())),
            io::kInvalidRttThousandths);
  // Negative zero is a valid zero.
  EXPECT_EQ(io::encode_rtt_thousandths(-0.0), 0u);
  EXPECT_FALSE(io::decode_rtt_thousandths(io::kInvalidRttThousandths));
  EXPECT_FALSE(io::decode_rtt_thousandths(60'000'001u));
  EXPECT_TRUE(io::decode_rtt_thousandths(60'000'000u));
}

// -- round-trip properties ---------------------------------------------------

TEST(BinRecRoundTrip, StreamArmIsBitExact) {
  const auto g = generate(101, 3000);
  io::BinReadCounters counters;
  const auto got = collect_mmap(g.image, &counters);
  expect_same_sequence(g.traces, got.traces);
  expect_same_sequence(g.pings, got.pings);
  EXPECT_EQ(counters.corrupt_blocks, 0u);
  EXPECT_EQ(counters.records_rejected, 0u);
  EXPECT_EQ(counters.records_read, g.traces.size() + g.pings.size());
}

TEST(BinRecRoundTrip, MmapArmIsBitExact) {
  const auto g = generate(202, 3000);
  io::BinReadCounters counters;
  const auto got = collect_mmap(g.image, &counters);
  expect_same_sequence(g.traces, got.traces);
  expect_same_sequence(g.pings, got.pings);
  EXPECT_EQ(counters.corrupt_blocks, 0u);
}

TEST(BinRecRoundTrip, ArmsAgreeOnEveryBlockSize) {
  for (const std::size_t block_records : {1ul, 7ul, 64ul, 4096ul}) {
    const auto g =
        generate(303 + block_records, 500,
                 io::BinWriterConfig{.block_records = block_records,
                                     .resume_index = {}});
    const auto m = collect_mmap(g.image);
    expect_same_sequence(g.traces, m.traces);
    expect_same_sequence(g.pings, m.pings);
  }
}

TEST(BinRecRoundTrip, FooterlessArchiveFallsBackToSequentialWalk) {
  const auto g = generate(404, 800,
                          io::BinWriterConfig{.block_records = 32,
                                              .write_header = true,
                                              .write_footer = false,
                                              .resume_index = {}});
  io::BinRecordMmapReader footerless(g.image.data(), g.image.size());
  EXPECT_TRUE(footerless.ok());
  EXPECT_FALSE(footerless.has_index());
  const auto m = collect_mmap(g.image);
  expect_same_sequence(g.traces, m.traces);
  expect_same_sequence(g.pings, m.pings);
}

TEST(BinRecRoundTrip, EmptyArchive) {
  std::ostringstream out(std::ios::binary);
  {
    io::BinRecordWriter writer(out);
    writer.flush_block();  // flushing nothing emits nothing
    writer.finish();
    EXPECT_EQ(writer.blocks_written(), 0u);
  }
  const std::string image = out.str();
  EXPECT_EQ(image.size(),
            io::kBinFileHeaderBytes + 4 + io::kBinFooterTailBytes);
  const auto m = collect_mmap(image);
  EXPECT_TRUE(m.traces.empty() && m.pings.empty());
}

TEST(BinRecRoundTrip, CraftedEmptyBlockIsValid) {
  // A zero-record block is not something the writer emits, but the
  // format allows it; readers must accept and count it.
  std::string image;
  {
    std::ostringstream out(std::ios::binary);
    io::BinRecordWriter writer(out);
    writer.finish();
    image = out.str().substr(0, io::kBinFileHeaderBytes);  // header only
  }
  std::string header;
  io::put_u32le(header, io::kBinBlockMagic);
  header.push_back(1);  // kind: traceroute
  header.push_back(0);
  io::put_u16le(header, 0);  // record_count = 0
  io::put_u32le(header, 0);  // payload_bytes = 0
  const std::uint32_t crc = io::crc32c(
      reinterpret_cast<const unsigned char*>(header.data()) + 4, 8);
  io::put_u32le(header, crc);
  image += header;

  io::BinReadCounters mc;
  const auto m = collect_mmap(image, &mc);
  EXPECT_TRUE(m.traces.empty() && m.pings.empty());
  EXPECT_EQ(mc.blocks_read, 1u);
  EXPECT_EQ(mc.corrupt_blocks, 0u);
}

TEST(BinRecRoundTrip, NotAnArchive) {
  const std::string text = "T\tnot\tbinary\n";
  io::BinRecordMmapReader mm(text.data(), text.size());
  EXPECT_FALSE(mm.ok());
  io::BinRecordMmapReader empty_reader(text.data(), 0);
  EXPECT_FALSE(empty_reader.ok());
}

// -- footer index and O(1) epoch seek ---------------------------------------

TEST(BinRecFooter, TimeRangeSeekDecodesOnlyCoveringBlocks) {
  // One block per epoch: 10 epochs, 3h grid, 20 pings each.
  std::ostringstream out(std::ios::binary);
  io::BinRecordWriter writer(out);
  std::vector<PingRecord> all;
  stats::Rng rng(7);
  for (std::int64_t epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < 20; ++i) {
      PingRecord r = random_ping(rng);
      r.time = net::SimTime(epoch * 10'800 + i);
      all.push_back(r);
      writer.write(r);
    }
    writer.flush_block();
  }
  writer.finish();
  const std::string image = out.str();

  io::BinRecordMmapReader reader(image.data(), image.size());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.has_index());
  const auto& index = reader.index();
  ASSERT_EQ(index.size(), 10u);

  // The served seek: a Dataset slices the blocks covering a time window
  // straight out of its mapping by the footer index.
  const std::string path = ::testing::TempDir() + "/binrec_time_range.s2sb";
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << image;
  }
  svc::DatasetConfig cfg;
  cfg.archive_path = path;
  svc::Dataset ds(cfg);
  std::string error;
  ASSERT_TRUE(ds.load(error)) << error;
  ASSERT_TRUE(ds.mmap_resident());
  const auto slice = ds.archive_slice(3 * 10'800, 5 * 10'800 + 19);
  ASSERT_TRUE(slice.ok) << slice.error;

  // Exactly epochs 3..5: their blocks byte for byte (one block per
  // epoch, so a block ends where the next begins), 60 records, and no
  // other block.
  ASSERT_EQ(slice.blocks.size(), 3u);
  EXPECT_EQ(slice.records, 60u);
  for (std::size_t i = 0; i < slice.blocks.size(); ++i) {
    const std::size_t begin = index[3 + i].offset;
    const std::size_t end = index[4 + i].offset;
    EXPECT_EQ(slice.blocks[i],
              std::string_view(image).substr(begin, end - begin));
  }

  // The slice is itself an archive holding exactly those records.
  std::string sliced = slice.file_header;
  for (const std::string_view block : slice.blocks) sliced += block;
  io::BinReadCounters counters;
  const auto got = collect_mmap(sliced, &counters);
  EXPECT_EQ(counters.blocks_read, 3u);
  ASSERT_EQ(got.pings.size(), 60u);
  for (std::size_t i = 0; i < got.pings.size(); ++i) {
    expect_same(all[60 + i], got.pings[i], i);
  }
  std::remove(path.c_str());
}

TEST(BinRecFooter, IndexCarriesBlockTimeSpans) {
  const auto g = generate(505, 400);
  io::BinRecordMmapReader reader(g.image.data(), g.image.size());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.has_index());
  std::size_t indexed_records = 0;
  for (const auto& e : reader.index()) {
    EXPECT_LE(e.first_time_s, e.last_time_s);
    indexed_records += e.record_count;
  }
  EXPECT_EQ(indexed_records, g.traces.size() + g.pings.size());
}

// -- checkpoint/resume byte identity ----------------------------------------

TEST(BinRecResume, AppendedArchiveIsByteIdenticalToUninterrupted) {
  // Epoch-aligned blocks make each block a pure function of its records,
  // so interrupt-at-boundary + append == uninterrupted write.
  stats::Rng rng(606);
  std::vector<PingRecord> epochs[6];
  for (int e = 0; e < 6; ++e) {
    for (int i = 0; i < 50; ++i) {
      PingRecord r = random_ping(rng);
      r.time = net::SimTime(e * 10'800 + i);
      epochs[e].push_back(r);
    }
  }
  const io::BinWriterConfig footerless{
      .block_records = 1024, .write_header = true, .write_footer = false,
      .resume_index = {}};

  std::ostringstream full(std::ios::binary);
  {
    io::BinRecordWriter writer(full, footerless);
    for (const auto& epoch : epochs) {
      for (const auto& r : epoch) writer.write(r);
      writer.flush_block();
    }
    writer.finish();
  }

  std::ostringstream interrupted(std::ios::binary);
  {
    io::BinRecordWriter writer(interrupted, footerless);
    for (int e = 0; e < 3; ++e) {
      for (const auto& r : epochs[e]) writer.write(r);
      writer.flush_block();
    }
    writer.finish();
  }
  {
    const io::BinWriterConfig append{.block_records = 1024,
                                     .write_header = false,
                                     .write_footer = false,
                                     .resume_index = {}};
    io::BinRecordWriter writer(interrupted, append);
    for (int e = 3; e < 6; ++e) {
      for (const auto& r : epochs[e]) writer.write(r);
      writer.flush_block();
    }
    writer.finish();
  }
  EXPECT_EQ(interrupted.str(), full.str());
}

// -- format interchangeability at the ingest seam ----------------------------

TEST(BinRecInterchange, AutoIngestMatchesFormatSniff) {
  const auto g = generate(707, 600);
  std::string text;
  for (const auto& r : g.traces) text += io::to_line(r) + '\n';
  for (const auto& r : g.pings) text += io::to_line(r) + '\n';

  EXPECT_TRUE(io::is_binary_record_image(g.image.data(), g.image.size()));
  EXPECT_FALSE(io::is_binary_record_image(text.data(), text.size()));

  Collected from_bin;
  const auto bin_result = io::ingest_record_image(
      g.image.data(), g.image.size(),
      [&](const TracerouteRecord& r) { from_bin.traces.push_back(r); },
      [&](const PingRecord& r) { from_bin.pings.push_back(r); });
  EXPECT_TRUE(bin_result.binary);
  EXPECT_TRUE(bin_result.ok);
  EXPECT_EQ(bin_result.records, g.traces.size() + g.pings.size());
  EXPECT_EQ(bin_result.footer, io::FooterStatus::kValid);

  Collected from_text;
  const auto text_result = io::ingest_record_image(
      text.data(), text.size(),
      [&](const TracerouteRecord& r) { from_text.traces.push_back(r); },
      [&](const PingRecord& r) { from_text.pings.push_back(r); });
  EXPECT_FALSE(text_result.binary);
  EXPECT_EQ(text_result.malformed_lines, 0u);

  expect_same_sequence(g.traces, from_bin.traces);
  expect_same_sequence(g.pings, from_bin.pings);
  expect_same_sequence(g.traces, from_text.traces);
  expect_same_sequence(g.pings, from_text.pings);
}

TEST(BinRecInterchange, AutoIngestEdgeCases) {
  const auto ingest = [](const std::string& bytes, Collected& out) {
    return io::ingest_record_image(
        bytes.data(), bytes.size(),
        [&](const TracerouteRecord& r) { out.traces.push_back(r); },
        [&](const PingRecord& r) { out.pings.push_back(r); });
  };

  // Empty file: not binary, zero records, zero errors, still ok.
  {
    Collected got;
    const auto r = ingest("", got);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.binary);
    EXPECT_EQ(r.records, 0u);
    EXPECT_EQ(r.malformed_lines, 0u);
  }

  // Shorter than the magic itself: a 2-byte prefix of "S2SB" must fall to
  // the text arm (one malformed line), not be claimed as binary.
  {
    Collected got;
    const auto r = ingest("S2", got);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.binary);
    EXPECT_EQ(r.records, 0u);
    EXPECT_EQ(r.malformed_lines, 1u);
  }

  // A text file that merely *begins* with the binary magic bytes: the
  // version field decodes from printable text as a value far above 255,
  // so the sniff routes it to the text arm and the remaining valid line
  // still parses.
  {
    Collected got;
    const auto r =
        ingest("S2SBhost\tsome\ttext\tcolumns\nP\t1\t2\t4\t100\t1\t12.500\n",
               got);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.binary);
    EXPECT_EQ(r.malformed_lines, 1u);
    ASSERT_EQ(got.pings.size(), 1u);
    EXPECT_EQ(got.pings[0].src, 1u);
    EXPECT_EQ(got.pings[0].rtt_ms, 12.5);
  }

  // Exactly the magic and nothing else: claimed binary only if a version
  // could follow; with no version bytes it is text (one malformed line).
  {
    Collected got;
    const auto r = ingest("S2SB", got);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.binary);
    EXPECT_EQ(r.malformed_lines, 1u);
  }

  // Magic plus a plausible version but nothing more: the sniff says
  // binary, and the reader reports a truncated header instead of records.
  {
    Collected got;
    std::string head("S2SB\x01\x00", 6);
    const auto r = ingest(head, got);
    EXPECT_TRUE(r.binary);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(got.pings.size() + got.traces.size(), 0u);
  }
}

TEST(BinRecInterchange, StoresProduceIdenticalQualityReportsFromEitherFormat) {
  // The acceptance contract: an analysis fed from text or binary sees the
  // same records, so every store tallies the same DataQualityReport.
  const auto g = generate(808, 1200);
  std::string text;
  for (const auto& r : g.traces) text += io::to_line(r) + '\n';
  for (const auto& r : g.pings) text += io::to_line(r) + '\n';

  // Slot-addressed stores construct without a topology; their quality
  // accounting (duplicates, off-grid timestamps, invalid samples) is the
  // same seam TimelineStore uses.
  core::SegmentSeriesStore text_seg(0.0, net::kThreeHours, 1000);
  core::SegmentSeriesStore bin_seg(0.0, net::kThreeHours, 1000);
  core::PingSeriesStore text_ps(0.0, net::kThreeHours, 1000);
  core::PingSeriesStore bin_ps(0.0, net::kThreeHours, 1000);

  std::istringstream text_in(text, std::ios::binary);
  io::RecordReader text_reader(text_in);
  text_reader.read_all([&](const TracerouteRecord& r) { text_seg.add(r); },
                       [&](const PingRecord& r) { text_ps.add(r); });
  EXPECT_EQ(text_reader.errors(), 0u);

  io::BinRecordMmapReader bin_reader(g.image.data(), g.image.size());
  ASSERT_TRUE(bin_reader.ok());
  bin_reader.read_all([&](const TracerouteRecord& r) { bin_seg.add(r); },
                      [&](const PingRecord& r) { bin_ps.add(r); });

  EXPECT_EQ(text_seg.quality().as_map(), bin_seg.quality().as_map());
  EXPECT_EQ(text_ps.quality().as_map(), bin_ps.quality().as_map());
}

TEST(BinRecInterchange, FileIngestUsesTheMmapArm) {
  const auto g = generate(909, 300);
  const std::string dir = ::testing::TempDir();
  const std::string bin_path = dir + "/binrec_interchange.s2sb";
  const std::string text_path = dir + "/binrec_interchange.tsv";
  {
    std::ofstream out(bin_path, std::ios::binary | std::ios::trunc);
    out << g.image;
  }
  {
    std::ofstream out(text_path, std::ios::binary | std::ios::trunc);
    for (const auto& r : g.traces) out << io::to_line(r) << '\n';
    for (const auto& r : g.pings) out << io::to_line(r) << '\n';
  }
  Collected from_bin, from_text;
  const auto bin_result = io::ingest_record_file(
      bin_path, [&](const TracerouteRecord& r) { from_bin.traces.push_back(r); },
      [&](const PingRecord& r) { from_bin.pings.push_back(r); });
  EXPECT_TRUE(bin_result.binary);
  EXPECT_EQ(bin_result.footer, io::FooterStatus::kValid);
  const auto text_result = io::ingest_record_file(
      text_path,
      [&](const TracerouteRecord& r) { from_text.traces.push_back(r); },
      [&](const PingRecord& r) { from_text.pings.push_back(r); });
  EXPECT_FALSE(text_result.binary);
  EXPECT_EQ(text_result.malformed_lines, 0u);

  expect_same_sequence(g.traces, from_bin.traces);
  expect_same_sequence(g.pings, from_bin.pings);
  expect_same_sequence(g.traces, from_text.traces);
  expect_same_sequence(g.pings, from_text.pings);

  // A file that cannot be mapped is an error naming it, not an empty
  // text archive.
  const auto missing = io::ingest_record_file(
      dir + "/binrec_interchange_missing.s2sb",
      [](const TracerouteRecord&) {}, [](const PingRecord&) {});
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("binrec_interchange_missing"),
            std::string::npos)
      << missing.error;
}

TEST(BinRecFraming, ReleasingFramedPagesKeepsThePlanAndTheBytes) {
  // Footerless, so the plan is a header walk, and several of the walk's
  // 256 KiB release strides long.
  const auto g = generate(515, 20000,
                          io::BinWriterConfig{.block_records = 32,
                                              .write_header = true,
                                              .write_footer = false,
                                              .resume_index = {}});
  ASSERT_GT(g.image.size(), std::size_t{1} << 20);
  const std::string path = ::testing::TempDir() + "/binrec_framing.s2sb";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << g.image;
  }
  io::MmapFile file;
  ASSERT_TRUE(file.open(path)) << file.error();
  const io::BinRecordMmapReader reader(file.data(), file.size());
  ASSERT_TRUE(reader.ok());
  ASSERT_FALSE(reader.has_index());
  const io::BlockPlan kept = reader.plan();
  const io::BlockPlan released = reader.plan(&file);
  EXPECT_EQ(released.offsets, kept.offsets);
  EXPECT_EQ(released.end, kept.end);
  EXPECT_EQ(released.truncated, kept.truncated);
  EXPECT_EQ(released.footer, kept.footer);
  const io::BlockPlan range =
      io::plan_block_range(file.data(), file.size(), io::kBinFileHeaderBytes,
                           file.size(), &file);
  EXPECT_EQ(range.offsets, kept.offsets);
  EXPECT_FALSE(range.truncated);

  // The released pages fault back in from the file: a decode after the
  // walk still reads every record.
  Collected c;
  io::BinReadCounters counters;
  for (const std::size_t offset : released.offsets) {
    io::decode_planned(
        file.data(), released, offset,
        [&](const TracerouteRecord& r) { c.traces.push_back(r); },
        [&](const PingRecord& r) { c.pings.push_back(r); }, counters);
  }
  EXPECT_EQ(counters.corrupt_blocks, 0u);
  expect_same_sequence(g.traces, c.traces);
  expect_same_sequence(g.pings, c.pings);
}

TEST(Crc32c, CombineMatchesOneShotOverRandomSplits) {
  std::mt19937_64 rng(7);
  std::string bytes(70000, '\0');
  for (auto& c : bytes) c = static_cast<char>(rng());
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::uint32_t whole = io::crc32c(data, bytes.size());
  for (int trial = 0; trial < 200; ++trial) {
    // Cut points in ascending order, repeats allowed: empty pieces, a
    // first or last piece of the whole image, tiny and huge pieces.
    std::vector<std::size_t> cuts = {0, bytes.size()};
    const int pieces = 1 + static_cast<int>(rng() % 12);
    for (int i = 0; i < pieces; ++i) {
      cuts.push_back(rng() % 3 == 0 ? cuts[rng() % cuts.size()]
                                    : rng() % (bytes.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t crc = 0;
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      const std::size_t len = cuts[k + 1] - cuts[k];
      crc = io::crc32c_combine(crc, io::crc32c(data + cuts[k], len), len);
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
  EXPECT_EQ(io::crc32c_combine(whole, 0, 0), whole);
  EXPECT_EQ(io::crc32c_combine(0, whole, bytes.size()), whole);
}

}  // namespace
}  // namespace s2s
