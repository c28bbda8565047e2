// Crash-consistency proofs for `.s2sb` archives (DESIGN.md section 12):
// recover_archive() must turn a file killed at any byte offset into an
// archive byte-identical to what BinRecordWriter would have produced for
// the surviving block prefix — same blocks, same rebuilt footer — and
// AtomicArchiveWriter must never expose a torn file under the final name.
// Runs under ASan/UBSan in CI (the io label).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/binrec.h"
#include "stats/rng.h"

namespace s2s {
namespace {

using probe::PingRecord;
using probe::TracerouteRecord;

PingRecord make_ping(stats::Rng& rng, std::int64_t time_s) {
  PingRecord r;
  r.src = static_cast<topology::ServerId>(rng.below(20));
  r.dst = static_cast<topology::ServerId>(rng.below(20));
  r.family = rng.chance(0.5) ? net::Family::kIPv4 : net::Family::kIPv6;
  r.time = net::SimTime(time_s);
  r.success = rng.chance(0.9);
  r.rtt_ms = static_cast<double>(rng.below(2'000'000)) / 1000.0;
  return r;
}

TracerouteRecord make_trace(stats::Rng& rng, std::int64_t time_s) {
  TracerouteRecord r;
  r.src = static_cast<topology::ServerId>(rng.below(20));
  r.dst = static_cast<topology::ServerId>(rng.below(20));
  r.family = net::Family::kIPv4;
  r.time = net::SimTime(time_s);
  r.method = probe::TracerouteMethod::kParis;
  r.src_addr = net::IPv4Addr(static_cast<std::uint32_t>(rng()));
  r.dst_addr = net::IPv4Addr(static_cast<std::uint32_t>(rng()));
  const std::size_t hops = 1 + rng.below(6);
  for (std::size_t h = 0; h < hops; ++h) {
    probe::Hop hop;
    hop.addr = net::IPv4Addr(static_cast<std::uint32_t>(rng()));
    hop.rtt_ms = static_cast<double>(rng.below(500'000)) / 1000.0;
    r.hops.push_back(hop);
  }
  r.complete = true;
  r.hops.back().addr = r.dst_addr;
  return r;
}

/// Single-kind archive, one block per epoch: block k holds exactly the
/// records of epoch k, so every kill offset maps to a unique intended
/// record prefix.
struct PingArchive {
  std::string image;
  std::vector<std::vector<PingRecord>> epochs;
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
      const auto r = make_ping(rng, static_cast<std::int64_t>(e) * 10'800 +
                                        static_cast<std::int64_t>(i));
      a.epochs.back().push_back(r);
      writer.write(r);
    }
    writer.flush_block();
  }
  writer.finish();
  a.image = out.str();
  return a;
}

/// The archive BinRecordWriter would have produced for the first
/// `n_epochs` epochs — the byte-level ground truth recovery must hit.
std::string reference_prefix_archive(const PingArchive& a,
                                     std::size_t n_epochs) {
  std::ostringstream out(std::ios::binary);
  io::BinRecordWriter writer(out);
  for (std::size_t e = 0; e < n_epochs; ++e) {
    for (const auto& r : a.epochs[e]) writer.write(r);
    writer.flush_block();
  }
  writer.finish();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Epochs whose block survives a kill at `cut`: blocks are whole or gone.
std::size_t surviving_epochs(const std::string& image, std::size_t cut) {
  const auto blocks = io::scan_blocks(image.data(), image.size());
  std::size_t n = 0;
  for (const auto& b : *blocks) {
    if (b.payload_offset + b.payload_bytes <= cut) ++n;
  }
  return n;
}

// -- kill-at-random-offset: the tentpole proof ------------------------------

TEST(BinRecRecovery, KillAtRandomOffsetRecoversByteIdenticalStrictPrefix) {
  const auto a = make_ping_archive(/*seed=*/17, /*n_epochs=*/6,
                                   /*per_epoch=*/40);
  const std::string path = ::testing::TempDir() + "/binrec_kill.s2sb";
  stats::Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    // Kill anywhere after the file header survives: mid-block-header,
    // mid-payload, at a block boundary, or mid-footer.
    const std::size_t cut =
        io::kBinFileHeaderBytes + 1 +
        rng.below(a.image.size() - io::kBinFileHeaderBytes - 1);
    write_file(path, a.image.substr(0, cut));

    const auto res = io::recover_archive(path);
    ASSERT_TRUE(res.ok) << "trial " << trial << " cut " << cut << ": "
                        << res.error;
    EXPECT_TRUE(res.repaired) << "trial " << trial;

    const std::size_t kept = surviving_epochs(a.image, cut);
    ASSERT_EQ(res.blocks_kept, kept) << "trial " << trial << " cut " << cut;
    EXPECT_EQ(res.records_kept, kept * 40);

    // Byte-for-byte what an uninterrupted writer emits for those epochs.
    EXPECT_EQ(read_file(path), reference_prefix_archive(a, kept))
        << "trial " << trial << " cut " << cut;

    // The repaired file ingests clean: sealed footer, nothing skipped.
    std::vector<PingRecord> got;
    const auto ingest = io::ingest_record_file(
        path, [](const TracerouteRecord&) {},
        [&](const PingRecord& r) { got.push_back(r); });
    ASSERT_TRUE(ingest.ok);
    EXPECT_EQ(ingest.footer, io::FooterStatus::kValid);
    EXPECT_EQ(ingest.corrupt_blocks, 0u);
    EXPECT_FALSE(ingest.truncated);
    ASSERT_EQ(got.size(), kept * 40);
    std::size_t i = 0;
    for (std::size_t e = 0; e < kept; ++e) {
      for (const auto& want : a.epochs[e]) {
        EXPECT_EQ(got[i].time.seconds(), want.time.seconds()) << i;
        EXPECT_EQ(got[i].rtt_ms, want.rtt_ms) << i;
        ++i;
      }
    }

    // Idempotence: a second pass finds nothing to fix.
    const auto again = io::recover_archive(path);
    ASSERT_TRUE(again.ok);
    EXPECT_FALSE(again.repaired);
    EXPECT_EQ(again.blocks_kept, kept);
  }
}

TEST(BinRecRecovery, IntactArchiveIsLeftUntouched) {
  const auto a = make_ping_archive(23, 4, 25);
  const std::string path = ::testing::TempDir() + "/binrec_intact.s2sb";
  write_file(path, a.image);
  const auto res = io::recover_archive(path);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_FALSE(res.repaired);
  EXPECT_EQ(res.blocks_kept, 4u);
  EXPECT_EQ(res.bytes_dropped, 0u);
  EXPECT_EQ(read_file(path), a.image);
}

TEST(BinRecRecovery, FooterlessArchiveGainsTheSeal) {
  const auto sealed = make_ping_archive(31, 3, 20, /*with_footer=*/true);
  const auto bare = make_ping_archive(31, 3, 20, /*with_footer=*/false);
  const std::string path = ::testing::TempDir() + "/binrec_bare.s2sb";
  write_file(path, bare.image);
  const auto res = io::recover_archive(path);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.repaired);
  EXPECT_EQ(res.bytes_dropped, 0u);
  // Sealing a footerless archive reconstructs the full sealed image: the
  // same records through the same writer with write_footer on.
  EXPECT_EQ(read_file(path), sealed.image);
}

TEST(BinRecRecovery, DamagedFooterIsRebuiltExactly) {
  const auto a = make_ping_archive(47, 5, 30);
  const auto blocks = io::scan_blocks(a.image.data(), a.image.size());
  const std::size_t footer_start =
      blocks->back().payload_offset + blocks->back().payload_bytes;
  std::string damaged = a.image;
  damaged[footer_start + 9] ^= 0x5A;  // inside the first index entry
  const std::string path = ::testing::TempDir() + "/binrec_footer.s2sb";
  write_file(path, damaged);
  const auto res = io::recover_archive(path);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.repaired);
  EXPECT_EQ(res.blocks_kept, 5u);
  EXPECT_EQ(read_file(path), a.image);
}

TEST(BinRecRecovery, CorruptMidArchiveBlockTruncatesToThePrefix) {
  const auto a = make_ping_archive(59, 5, 30);
  const auto blocks = io::scan_blocks(a.image.data(), a.image.size());
  std::string damaged = a.image;
  damaged[(*blocks)[2].payload_offset + 7] ^= 0xFF;  // CRC now fails
  const std::string path = ::testing::TempDir() + "/binrec_midblock.s2sb";
  write_file(path, damaged);
  const auto res = io::recover_archive(path);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.repaired);
  // Repair keeps the prefix before the damage; blocks past it are gone
  // (prefix semantics, mirroring a torn write).
  EXPECT_EQ(res.blocks_kept, 2u);
  EXPECT_EQ(read_file(path), reference_prefix_archive(a, 2));
}

TEST(BinRecRecovery, MixedKindArchiveRecoversAtBlockGranularity) {
  // Two blocks per epoch (traceroute then ping — flush_block order), so a
  // kill can strand a half epoch: the traceroute block survives, the ping
  // block does not.
  stats::Rng rng(71);
  std::vector<std::vector<TracerouteRecord>> traces(3);
  std::vector<std::vector<PingRecord>> pings(3);
  std::ostringstream out(std::ios::binary);
  io::BinRecordWriter writer(out);
  for (std::size_t e = 0; e < 3; ++e) {
    for (std::size_t i = 0; i < 10; ++i) {
      const auto t =
          make_trace(rng, static_cast<std::int64_t>(e * 10'800 + i));
      traces[e].push_back(t);
      writer.write(t);
      const auto p =
          make_ping(rng, static_cast<std::int64_t>(e * 10'800 + i));
      pings[e].push_back(p);
      writer.write(p);
    }
    writer.flush_block();
  }
  writer.finish();
  const std::string image = out.str();

  const auto blocks = io::scan_blocks(image.data(), image.size());
  ASSERT_EQ(blocks->size(), 6u);
  // Cut inside epoch 1's ping block: keeps e0 trace, e0 ping, e1 trace.
  const std::size_t cut = (*blocks)[3].payload_offset + 5;
  const std::string path = ::testing::TempDir() + "/binrec_mixed.s2sb";
  write_file(path, image.substr(0, cut));
  const auto res = io::recover_archive(path);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.blocks_kept, 3u);

  std::ostringstream ref_out(std::ios::binary);
  io::BinRecordWriter ref(ref_out);
  for (std::size_t i = 0; i < 10; ++i) {
    ref.write(traces[0][i]);
    ref.write(pings[0][i]);
  }
  ref.flush_block();
  for (const auto& t : traces[1]) ref.write(t);
  ref.flush_block();
  ref.finish();
  EXPECT_EQ(read_file(path), ref_out.str());
}

TEST(BinRecRecovery, KillInsideTheFileHeaderIsUnrecoverable) {
  const auto a = make_ping_archive(83, 2, 10);
  const std::string path = ::testing::TempDir() + "/binrec_headless.s2sb";
  write_file(path, a.image.substr(0, io::kBinFileHeaderBytes - 3));
  const auto res = io::recover_archive(path);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

// -- AtomicArchiveWriter ----------------------------------------------------

TEST(AtomicArchiveWriter, AbortLeavesTheTargetAndRemovesTheTmp) {
  const std::string path = ::testing::TempDir() + "/atomic_abort.s2sb";
  write_file(path, "previous contents");
  {
    io::AtomicArchiveWriter w(path);
    ASSERT_TRUE(w.ok()) << w.error();
    w.stream() << "half-written replacement";
    // No commit: destructor aborts.
  }
  EXPECT_EQ(read_file(path), "previous contents");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(AtomicArchiveWriter, CommitReplacesAtomicallyAndIsIdempotent) {
  const std::string path = ::testing::TempDir() + "/atomic_commit.s2sb";
  write_file(path, "old");
  io::AtomicArchiveWriter w(path);
  ASSERT_TRUE(w.ok()) << w.error();
  w.stream() << "new bytes";
  // Until commit, the target still serves the old bytes.
  EXPECT_EQ(read_file(path), "old");
  std::string error;
  ASSERT_TRUE(w.commit(error)) << error;
  EXPECT_EQ(read_file(path), "new bytes");
  ASSERT_TRUE(w.commit(error)) << error;  // second commit is a no-op
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

}  // namespace
}  // namespace s2s
