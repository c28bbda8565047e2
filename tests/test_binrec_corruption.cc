// Corruption matrix for the `.s2sb` format: BlockCorruptor drives every
// fault class over every block position, and the reader must skip
// exactly the damaged blocks — no crash, no silent wrong record, and
// injected-vs-detected counts exactly equal. Runs under ASan/UBSan and
// TSan in CI (the io label).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/data_quality.h"
#include "faultsim/block_corruptor.h"
#include "io/binrec.h"
#include "stats/rng.h"

namespace s2s {
namespace {

using faultsim::BlockCorruptor;
using faultsim::BlockCorruptorConfig;
using faultsim::BlockFault;
using probe::PingRecord;
using probe::TracerouteRecord;

/// Single-kind archive with one block per epoch: the per-block record
/// partition is then exact and ordered, so "skip block i" has a unique
/// expected surviving sequence.
struct PingArchive {
  std::string image;
  std::vector<std::vector<PingRecord>> epochs;
  std::size_t total = 0;
};

PingArchive make_ping_archive(std::uint64_t seed, std::size_t n_epochs,
                              std::size_t per_epoch,
                              bool with_footer = true) {
  PingArchive a;
  stats::Rng rng(seed);
  std::ostringstream out(std::ios::binary);
  io::BinRecordWriter writer(
      out, io::BinWriterConfig{.block_records = 4096,
                               .write_header = true,
                               .write_footer = with_footer,
                               .resume_index = {}});
  for (std::size_t e = 0; e < n_epochs; ++e) {
    a.epochs.emplace_back();
    for (std::size_t i = 0; i < per_epoch; ++i) {
      PingRecord r;
      r.src = static_cast<topology::ServerId>(rng.below(20));
      r.dst = static_cast<topology::ServerId>(rng.below(20));
      r.family = rng.chance(0.5) ? net::Family::kIPv4 : net::Family::kIPv6;
      r.time = net::SimTime(static_cast<std::int64_t>(e) * 10'800 +
                            static_cast<std::int64_t>(i));
      r.success = rng.chance(0.9);
      r.rtt_ms = static_cast<double>(rng.below(2'000'000)) / 1000.0;
      a.epochs.back().push_back(r);
      writer.write(r);
      ++a.total;
    }
    writer.flush_block();
  }
  writer.finish();
  a.image = out.str();
  return a;
}

struct ReadOutcome {
  std::vector<PingRecord> pings;
  io::BinReadCounters counters;
  bool ok = false;
};

ReadOutcome read_mmap(const std::string& image) {
  ReadOutcome o;
  io::BinRecordMmapReader reader(image.data(), image.size());
  o.ok = reader.ok();
  if (!o.ok) return o;
  reader.read_all([](const TracerouteRecord&) {},
                  [&](const PingRecord& r) { o.pings.push_back(r); });
  o.counters = reader.counters();
  return o;
}

void expect_surviving_epochs(const PingArchive& a, const ReadOutcome& got,
                             std::size_t damaged_epoch) {
  std::vector<PingRecord> want;
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    if (e == damaged_epoch) continue;
    want.insert(want.end(), a.epochs[e].begin(), a.epochs[e].end());
  }
  ASSERT_EQ(got.pings.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.pings[i].time.seconds(), want[i].time.seconds()) << i;
    EXPECT_EQ(got.pings[i].rtt_ms, want[i].rtt_ms) << i;
    EXPECT_EQ(got.pings[i].src, want[i].src) << i;
    EXPECT_EQ(got.pings[i].dst, want[i].dst) << i;
  }
}

// -- the matrix: per-block classes x block position x footer ----------------

class BinRecCorruptionMatrix
    : public ::testing::TestWithParam<std::tuple<BlockFault, bool>> {};

TEST_P(BinRecCorruptionMatrix, ExactlyTheDamagedBlockIsSkipped) {
  const auto [fault, with_footer] = GetParam();
  constexpr std::size_t kEpochs = 6;
  for (std::size_t target = 0; target < kEpochs; ++target) {
    const auto archive =
        make_ping_archive(40 + target, kEpochs, 30, with_footer);
    BlockCorruptor corruptor(BlockCorruptorConfig{.seed = 90 + target});
    const auto damaged = corruptor.apply(archive.image, fault, target);
    EXPECT_EQ(corruptor.stats().corrupted, 1u);
    EXPECT_EQ(corruptor.stats().records_lost, 30u);

    const auto got = read_mmap(damaged);
    ASSERT_TRUE(got.ok);
    // Injected == detected, exactly.
    EXPECT_EQ(got.counters.corrupt_blocks, 1u)
        << "fault=" << static_cast<int>(fault) << " target=" << target
        << " footer=" << with_footer;
    EXPECT_EQ(got.counters.blocks_read, kEpochs - 1);
    EXPECT_EQ(got.counters.records_read, archive.total - 30);
    EXPECT_EQ(got.counters.records_rejected, 0u);
    expect_surviving_epochs(archive, got, target);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PerBlockFaults, BinRecCorruptionMatrix,
    ::testing::Combine(::testing::Values(BlockFault::kPayloadBitFlip,
                                         BlockFault::kHeaderBitFlip,
                                         BlockFault::kCrcCorrupt),
                       ::testing::Bool()),
    [](const auto& info) {
      // std::get, not a structured binding: a bracketed binding list's
      // comma would split the macro's arguments.
      const BlockFault fault = std::get<0>(info.param);
      const bool with_footer = std::get<1>(info.param);
      std::string name;
      switch (fault) {
        case BlockFault::kPayloadBitFlip: name = "PayloadBitFlip"; break;
        case BlockFault::kHeaderBitFlip: name = "HeaderBitFlip"; break;
        case BlockFault::kCrcCorrupt: name = "CrcCorrupt"; break;
        default: name = "Other"; break;
      }
      return name + (with_footer ? "_Footer" : "_Footerless");
    });

TEST(BinRecCorruption, ImplausibleHeaderIsOneCorruptBlock) {
  // A kind byte of 2 leaves the header unframeable (payload_bytes cannot
  // be trusted): the sequential walks resync to the next block magic and
  // must count that as one damaged block, not one for the header plus
  // one for the resync that starts inside it.
  constexpr std::size_t kEpochs = 4;
  constexpr std::size_t kDamaged = 1;
  for (const bool with_footer : {true, false}) {
    const auto archive = make_ping_archive(61, kEpochs, 25, with_footer);
    const auto blocks = io::scan_blocks(archive.image.data(),
                                        archive.image.size());
    ASSERT_TRUE(blocks);
    ASSERT_EQ(blocks->size(), kEpochs);
    std::string damaged = archive.image;
    damaged[(*blocks)[kDamaged].header_offset + 4] = 2;

    const auto got = read_mmap(damaged);
    ASSERT_TRUE(got.ok);
    EXPECT_EQ(got.counters.corrupt_blocks, 1u) << "footer=" << with_footer;
    EXPECT_EQ(got.counters.blocks_read, kEpochs - 1);
    EXPECT_FALSE(got.counters.truncated);
    expect_surviving_epochs(archive, got, kDamaged);
  }
}

// -- file-level classes ------------------------------------------------------

TEST(BinRecCorruption, TruncationLosesTailExactly) {
  constexpr std::size_t kEpochs = 5;
  for (std::size_t target = 0; target < kEpochs; ++target) {
    const auto archive = make_ping_archive(70 + target, kEpochs, 25);
    BlockCorruptor corruptor(BlockCorruptorConfig{.seed = 3 * target + 1});
    const auto damaged =
        corruptor.apply(archive.image, BlockFault::kTruncateMidBlock, target);
    ASSERT_LT(damaged.size(), archive.image.size());
    EXPECT_EQ(corruptor.stats().records_lost, (kEpochs - target) * 25);

    const auto got = read_mmap(damaged);
    ASSERT_TRUE(got.ok);
    // The torn block is one corrupt block; later blocks are simply gone.
    EXPECT_EQ(got.counters.corrupt_blocks, 1u) << "target=" << target;
    EXPECT_EQ(got.counters.records_read, target * 25);
    EXPECT_EQ(got.pings.size(), target * 25);
  }
}

TEST(BinRecCorruption, TruncationSetsTheTornFlag) {
  const auto archive = make_ping_archive(81, 5, 25);
  // Clean archives are not torn.
  EXPECT_FALSE(read_mmap(archive.image).counters.truncated);

  BlockCorruptor corruptor(BlockCorruptorConfig{.seed = 17});
  const auto damaged =
      corruptor.apply(archive.image, BlockFault::kTruncateMidBlock, 2);
  const auto got = read_mmap(damaged);
  ASSERT_TRUE(got.ok);
  EXPECT_TRUE(got.counters.truncated);

  // The flag reaches the ingest seam, where tools (s2s_recconv info)
  // turn it into a hard failure.
  const std::string path = ::testing::TempDir() + "/binrec_torn.s2sb";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << damaged;
  }
  const auto result = io::ingest_record_file(
      path, [](const TracerouteRecord&) {}, [](const PingRecord&) {});
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.truncated);
}

TEST(BinRecCorruption, DamagedFooterIsInvalidNotMerelyAbsent) {
  const auto archive = make_ping_archive(82, 4, 20);
  {
    io::BinRecordMmapReader reader(archive.image.data(),
                                   archive.image.size());
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.footer_status(), io::FooterStatus::kValid);
    EXPECT_TRUE(reader.has_index());
  }
  const auto footerless = make_ping_archive(82, 4, 20, /*with_footer=*/false);
  {
    io::BinRecordMmapReader reader(footerless.image.data(),
                                   footerless.image.size());
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.footer_status(), io::FooterStatus::kAbsent);
    EXPECT_FALSE(reader.has_index());
  }

  // Flip one byte inside the footer entry array: the EOF seal is intact
  // but the entries CRC no longer matches.
  std::string damaged = archive.image;
  damaged[damaged.size() - io::kBinFooterTailBytes - 1] ^= 0x01;
  io::BinRecordMmapReader reader(damaged.data(), damaged.size());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.footer_status(), io::FooterStatus::kInvalid);
  EXPECT_FALSE(reader.has_index());
  // Reading still works via the sequential fallback: every record and no
  // corrupt blocks, because only the index was damaged.
  const auto got = read_mmap(damaged);
  EXPECT_EQ(got.pings.size(), archive.total);
  EXPECT_EQ(got.counters.corrupt_blocks, 0u);
  EXPECT_FALSE(got.counters.truncated);

  // Truncation *inside the footer* (data blocks intact, EOF seal gone)
  // must also read as a damaged footer, not as a clean footerless file.
  std::string torn_footer = archive.image;
  torn_footer.resize(torn_footer.size() - 10);
  io::BinRecordMmapReader torn_reader(torn_footer.data(), torn_footer.size());
  ASSERT_TRUE(torn_reader.ok());
  std::size_t torn_records = 0;
  torn_reader.read_all([](const TracerouteRecord&) {},
                       [&](const PingRecord&) { ++torn_records; });
  EXPECT_EQ(torn_records, archive.total);
  EXPECT_EQ(torn_reader.footer_status(), io::FooterStatus::kInvalid);

  const std::string path = ::testing::TempDir() + "/binrec_bad_footer.s2sb";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << damaged;
  }
  const auto result = io::ingest_record_file(
      path, [](const TracerouteRecord&) {}, [](const PingRecord&) {});
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.footer, io::FooterStatus::kInvalid);
  EXPECT_EQ(result.records, archive.total);
}

TEST(BinRecCorruption, StaleVersionIsRejectedUpFront) {
  const auto archive = make_ping_archive(99, 4, 20);
  BlockCorruptor corruptor;
  const auto damaged =
      corruptor.apply(archive.image, BlockFault::kStaleVersion);
  EXPECT_EQ(corruptor.stats().stale_versions, 1u);
  EXPECT_EQ(corruptor.stats().records_lost, archive.total);

  EXPECT_FALSE(read_mmap(damaged).ok);
}

// -- stochastic chaos: exact accounting under random block damage -----------

TEST(BinRecCorruption, StochasticManglePreservesExactAccounting) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const auto archive = make_ping_archive(100 + seed, 12, 40);
    BlockCorruptor corruptor(
        BlockCorruptorConfig{.seed = seed, .corrupt_prob = 0.4});
    const auto damaged = corruptor.mangle(archive.image);
    const auto& stats = corruptor.stats();
    EXPECT_EQ(stats.blocks, 12u);

    const auto got = read_mmap(damaged);
    ASSERT_TRUE(got.ok);
    EXPECT_EQ(got.counters.corrupt_blocks, stats.corrupted) << "seed=" << seed;
    EXPECT_EQ(got.counters.records_read, archive.total - stats.records_lost);
    EXPECT_EQ(got.counters.blocks_read, 12u - stats.corrupted);
  }
}

TEST(BinRecCorruption, CorruptBlocksFeedTheDataQualityReport) {
  const auto archive = make_ping_archive(55, 8, 16);
  BlockCorruptor corruptor(
      BlockCorruptorConfig{.seed = 8, .corrupt_prob = 0.5});
  const auto damaged = corruptor.mangle(archive.image);
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/binrec_corrupt_quality.s2sb";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << damaged;
  }
  const auto result = io::ingest_record_file(
      path, [](const TracerouteRecord&) {}, [](const PingRecord&) {});
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.corrupt_blocks, corruptor.stats().corrupted);

  core::DataQualityReport report;
  report.corrupt_blocks = result.corrupt_blocks;
  EXPECT_EQ(report.as_map().at("corrupt_blocks"),
            corruptor.stats().corrupted);
  core::DataQualityReport merged;
  merged.merge(report).merge(report);
  EXPECT_EQ(merged.corrupt_blocks, 2 * report.corrupt_blocks);
  EXPECT_NE(report.to_string().find("corrupt_blocks="), std::string::npos);
}

// -- unrestricted fuzz: never crash, never fabricate --------------------------

TEST(BinRecCorruption, ArbitraryByteFlipsNeverCrashEitherArm) {
  // Unlike mangle(), this flips *any* byte — magic, payload_bytes,
  // footer, file header — so counts need not match; the contract here is
  // purely "never crash, never deliver more than was written" (the io
  // label runs this under ASan/UBSan and TSan).
  const auto archive = make_ping_archive(123, 10, 30);
  stats::Rng rng(321);
  for (int trial = 0; trial < 200; ++trial) {
    std::string damaged = archive.image;
    const std::size_t flips = 1 + rng.below(16);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.below(damaged.size());
      damaged[pos] = static_cast<char>(
          static_cast<unsigned char>(damaged[pos]) ^ (1u << rng.below(8)));
    }
    if (rng.chance(0.25)) damaged.resize(rng.below(damaged.size() + 1));

    const auto got = read_mmap(damaged);
    if (got.ok) {
      EXPECT_LE(got.pings.size(), archive.total);
    }
  }
}

}  // namespace
}  // namespace s2s
