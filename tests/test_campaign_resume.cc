#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/binrec.h"
#include "io/records_io.h"
#include "probe/campaign.h"

namespace s2s::probe {
namespace {

using topology::ServerId;

TEST(CampaignCheckpoint, SerializeParseRoundTrip) {
  CampaignCheckpoint ckpt;
  ckpt.next_epoch = 42;
  ckpt.rng_state = {1, 2, 0x9e3779b97f4a7c15ULL, ~std::uint64_t{0}};
  const auto parsed = CampaignCheckpoint::parse(ckpt.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->next_epoch, 42u);
  EXPECT_EQ(parsed->rng_state, ckpt.rng_state);
}

TEST(CampaignCheckpoint, ParseRejectsGarbage) {
  EXPECT_FALSE(CampaignCheckpoint::parse(""));
  EXPECT_FALSE(CampaignCheckpoint::parse("S2SCKPT"));
  EXPECT_FALSE(CampaignCheckpoint::parse("S2SCKPT 2 0 1 2 3 4"));  // version
  EXPECT_FALSE(CampaignCheckpoint::parse("S2SCKPT 1 0 1 2 3"));    // short
  EXPECT_FALSE(CampaignCheckpoint::parse("S2SCKPT 1 0 1 2 3 4 5"));  // long
  EXPECT_FALSE(CampaignCheckpoint::parse("S2SCKPT 1 0 1 2 3 x"));
  EXPECT_FALSE(CampaignCheckpoint::parse("S2SCKPT 1 0 1 2 3 -4"));
}

simnet::NetworkConfig resume_net_cfg() {
  simnet::NetworkConfig cfg;
  cfg.topology.seed = 77;
  cfg.topology.tier1_count = 5;
  cfg.topology.transit_count = 20;
  cfg.topology.stub_count = 60;
  cfg.topology.server_count = 20;
  return cfg;
}

/// A sink that appends serialized records to `buf` and throws once the
/// `throw_at`-th record arrives (simulating a full disk mid-epoch).
template <typename Record>
struct FlakySink {
  std::string& buf;
  std::size_t throw_at;
  std::size_t delivered = 0;

  void operator()(const Record& r) {
    if (++delivered == throw_at) throw std::runtime_error("disk full");
    buf += io::to_line(r);
    buf += '\n';
  }
};

TEST(CampaignResume, TracerouteResumeIsByteIdentical) {
  simnet::Network net(resume_net_cfg());
  std::vector<std::pair<ServerId, ServerId>> pairs{{0, 12}};
  TracerouteCampaignConfig cfg;
  cfg.days = 2.0;  // 16 three-hour epochs
  cfg.downtime.monthly_window_prob = 0.0;

  // Reference: the uninterrupted record stream.
  std::string full;
  {
    TracerouteCampaign campaign(net, cfg, pairs);
    const auto res = campaign.run([&](const TracerouteRecord& r) {
      full += io::to_line(r);
      full += '\n';
    });
    EXPECT_FALSE(res.aborted);
    EXPECT_EQ(res.epochs_completed, campaign.epochs());
    EXPECT_EQ(res.checkpoint.next_epoch, campaign.epochs());
  }
  ASSERT_FALSE(full.empty());

  // Interrupted run: the sink dies mid-epoch. Track the byte offset of
  // the last completed epoch via the progress callback, exactly as a
  // writer flushing at checkpoint boundaries would.
  std::string buf;
  std::size_t boundary = 0;
  CampaignRunResult aborted;
  {
    TracerouteCampaign campaign(net, cfg, pairs);
    FlakySink<TracerouteRecord> sink{buf, 9};
    aborted = campaign.run([&](const TracerouteRecord& r) { sink(r); },
                           [&](double) { boundary = buf.size(); });
    EXPECT_TRUE(aborted.aborted);
    EXPECT_EQ(aborted.error, "disk full");
    EXPECT_EQ(aborted.records_delivered, 8u);
    EXPECT_EQ(aborted.epochs_completed, aborted.checkpoint.next_epoch);
    EXPECT_LT(aborted.checkpoint.next_epoch, campaign.epochs());
  }

  // Recovery: drop the partial epoch, then resume a *fresh* campaign from
  // the text form of the checkpoint (at-least-once delivery: the aborted
  // epoch is replayed in full).
  buf.resize(boundary);
  const auto ckpt = CampaignCheckpoint::parse(aborted.checkpoint.serialize());
  ASSERT_TRUE(ckpt.has_value());
  {
    TracerouteCampaign campaign(net, cfg, pairs);
    const auto res = campaign.run(
        [&](const TracerouteRecord& r) {
          buf += io::to_line(r);
          buf += '\n';
        },
        {}, &*ckpt);
    EXPECT_FALSE(res.aborted);
    EXPECT_EQ(res.checkpoint.next_epoch, campaign.epochs());
  }
  EXPECT_EQ(buf, full);
}

TEST(CampaignResume, PingResumeIsByteIdentical) {
  simnet::Network net(resume_net_cfg());
  std::vector<std::pair<ServerId, ServerId>> pairs{{0, 12}};
  PingCampaignConfig cfg;
  cfg.start_day = 0.0;
  cfg.days = 0.5;  // 48 fifteen-minute epochs
  cfg.downtime.monthly_window_prob = 0.0;

  std::string full;
  {
    PingCampaign campaign(net, cfg, pairs);
    campaign.run([&](const PingRecord& r) {
      full += io::to_line(r);
      full += '\n';
    });
  }
  ASSERT_FALSE(full.empty());

  std::string buf;
  std::size_t boundary = 0;
  CampaignRunResult aborted;
  {
    PingCampaign campaign(net, cfg, pairs);
    FlakySink<PingRecord> sink{buf, 15};
    aborted = campaign.run([&](const PingRecord& r) { sink(r); },
                           [&](double) { boundary = buf.size(); });
    EXPECT_TRUE(aborted.aborted);
    EXPECT_EQ(aborted.records_delivered, 14u);
  }

  buf.resize(boundary);
  const auto ckpt = CampaignCheckpoint::parse(aborted.checkpoint.serialize());
  ASSERT_TRUE(ckpt.has_value());
  {
    PingCampaign campaign(net, cfg, pairs);
    campaign.run(
        [&](const PingRecord& r) {
          buf += io::to_line(r);
          buf += '\n';
        },
        {}, &*ckpt);
  }
  EXPECT_EQ(buf, full);
}

TEST(CampaignResume, BinaryEpochResumeIsByteIdentical) {
  // The binary analog of the text resume: a BinRecordWriter flushing one
  // block per epoch at the progress boundary, interrupted mid-epoch,
  // truncated to the last completed epoch and resumed by *appending*
  // (write_header=false). Per-block dictionaries and timestamp deltas
  // reset at every flush, so blocks are pure functions of the epoch's
  // record sequence and the spliced archive must equal the uninterrupted
  // one byte for byte. Footerless on both sides: a footer indexes the
  // whole file and is rebuilt (or skipped) on splice, not appended.
  simnet::Network net(resume_net_cfg());
  std::vector<std::pair<ServerId, ServerId>> pairs{{0, 12}};
  TracerouteCampaignConfig cfg;
  cfg.days = 2.0;  // 16 three-hour epochs
  cfg.downtime.monthly_window_prob = 0.0;

  const io::BinWriterConfig plain{.block_records = 4096,
                                  .write_header = true,
                                  .write_footer = false,
                                  .resume_index = {}};

  std::string full;
  {
    TracerouteCampaign campaign(net, cfg, pairs);
    std::ostringstream out(std::ios::binary);
    io::BinRecordWriter writer(out, plain);
    const auto res = campaign.run(
        [&](const TracerouteRecord& r) { writer.write(r); },
        [&](double) { writer.flush_block(); });
    EXPECT_FALSE(res.aborted);
    writer.finish();
    full = out.str();
  }
  ASSERT_GT(full.size(), 16u);

  // Interrupted run: the sink dies mid-epoch; the epoch boundary flushes
  // the writer and records the archive's safe byte offset.
  std::string buf;
  std::size_t boundary = 0;
  CampaignRunResult aborted;
  {
    TracerouteCampaign campaign(net, cfg, pairs);
    std::ostringstream out(std::ios::binary);
    io::BinRecordWriter writer(out, plain);
    std::size_t delivered = 0;
    aborted = campaign.run(
        [&](const TracerouteRecord& r) {
          if (++delivered == 9) throw std::runtime_error("disk full");
          writer.write(r);
        },
        [&](double) {
          writer.flush_block();
          boundary = static_cast<std::size_t>(out.tellp());
        });
    EXPECT_TRUE(aborted.aborted);
    EXPECT_EQ(aborted.error, "disk full");
    EXPECT_LT(aborted.checkpoint.next_epoch, campaign.epochs());
    buf = out.str().substr(0, boundary);  // drop the torn epoch
  }

  const auto ckpt = CampaignCheckpoint::parse(aborted.checkpoint.serialize());
  ASSERT_TRUE(ckpt.has_value());
  {
    TracerouteCampaign campaign(net, cfg, pairs);
    std::ostringstream out(std::ios::binary);
    io::BinRecordWriter writer(
        out, io::BinWriterConfig{.block_records = 4096,
                                 .write_header = false,
                                 .write_footer = false,
                                 .resume_index = {}});
    const auto res = campaign.run(
        [&](const TracerouteRecord& r) { writer.write(r); },
        [&](double) { writer.flush_block(); }, &*ckpt);
    EXPECT_FALSE(res.aborted);
    writer.finish();
    buf += out.str();
  }
  EXPECT_EQ(buf, full);

  // And the spliced archive ingests cleanly: every record, no corruption.
  io::BinRecordMmapReader reader(buf.data(), buf.size());
  ASSERT_TRUE(reader.ok());
  std::size_t records = 0;
  reader.read_all([&](const TracerouteRecord&) { ++records; },
                  [](const PingRecord&) {});
  EXPECT_EQ(reader.counters().corrupt_blocks, 0u);
  EXPECT_EQ(records, reader.counters().records_read);
  EXPECT_GT(records, 0u);
}

TEST(CampaignResume, ResumeFromFinalCheckpointDeliversNothing) {
  simnet::Network net(resume_net_cfg());
  std::vector<std::pair<ServerId, ServerId>> pairs{{0, 12}};
  TracerouteCampaignConfig cfg;
  cfg.days = 1.0;
  TracerouteCampaign first(net, cfg, pairs);
  const auto done = first.run([](const TracerouteRecord&) {});
  EXPECT_EQ(done.checkpoint.next_epoch, first.epochs());

  TracerouteCampaign second(net, cfg, pairs);
  const auto res =
      second.run([](const TracerouteRecord&) {}, {}, &done.checkpoint);
  EXPECT_EQ(res.records_delivered, 0u);
  EXPECT_EQ(res.epochs_completed, 0u);
  EXPECT_FALSE(res.aborted);
}

// ---------------------------------------------------------------------------
// DowntimeSchedule boundary semantics (half-open windows).
// ---------------------------------------------------------------------------

TEST(DowntimeScheduleBoundary, WindowsAreHalfOpen) {
  DowntimeSchedule schedule(DowntimeSchedule::Windows{{{100, 200}}});
  EXPECT_FALSE(schedule.down(0, net::SimTime(99)));
  EXPECT_TRUE(schedule.down(0, net::SimTime(100)));   // down at start
  EXPECT_TRUE(schedule.down(0, net::SimTime(199)));
  EXPECT_FALSE(schedule.down(0, net::SimTime(200)));  // up at end
  EXPECT_FALSE(schedule.down(0, net::SimTime(201)));
}

TEST(DowntimeScheduleBoundary, ZeroDurationWindowIsNeverDown) {
  DowntimeSchedule schedule(DowntimeSchedule::Windows{{{150, 150}}});
  EXPECT_FALSE(schedule.down(0, net::SimTime(149)));
  EXPECT_FALSE(schedule.down(0, net::SimTime(150)));
  EXPECT_FALSE(schedule.down(0, net::SimTime(151)));
}

TEST(DowntimeScheduleBoundary, InvertedWindowIsDropped) {
  DowntimeSchedule schedule(DowntimeSchedule::Windows{{{200, 100}}});
  for (std::int64_t t = 50; t <= 250; t += 25) {
    EXPECT_FALSE(schedule.down(0, net::SimTime(t))) << t;
  }
}

TEST(DowntimeScheduleBoundary, OverlappingWindowsAreMerged) {
  // A short window nested inside a long one: before normalization, the
  // start-instant binary search found only the short window and reported
  // t=50 as up.
  DowntimeSchedule schedule(
      DowntimeSchedule::Windows{{{0, 100}, {10, 20}}});
  EXPECT_TRUE(schedule.down(0, net::SimTime(5)));
  EXPECT_TRUE(schedule.down(0, net::SimTime(15)));
  EXPECT_TRUE(schedule.down(0, net::SimTime(50)));
  EXPECT_TRUE(schedule.down(0, net::SimTime(99)));
  EXPECT_FALSE(schedule.down(0, net::SimTime(100)));
}

TEST(DowntimeScheduleBoundary, UnsortedAdjacentWindowsMerge) {
  DowntimeSchedule schedule(
      DowntimeSchedule::Windows{{{50, 100}, {0, 50}}});
  EXPECT_TRUE(schedule.down(0, net::SimTime(0)));
  EXPECT_TRUE(schedule.down(0, net::SimTime(49)));
  EXPECT_TRUE(schedule.down(0, net::SimTime(50)));
  EXPECT_TRUE(schedule.down(0, net::SimTime(99)));
  EXPECT_FALSE(schedule.down(0, net::SimTime(100)));
}

TEST(DowntimeScheduleBoundary, ServersAreIndependent) {
  DowntimeSchedule schedule(
      DowntimeSchedule::Windows{{{100, 200}}, {}});
  EXPECT_TRUE(schedule.down(0, net::SimTime(150)));
  EXPECT_FALSE(schedule.down(1, net::SimTime(150)));
}

}  // namespace
}  // namespace s2s::probe
