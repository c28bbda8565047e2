// Golden-figure regression: hexfloat digests of the Fig 2 / Fig 5 / Fig 9
// study outputs, checked against the corpus in tests/golden/. The same
// campaign is ingested through all three record paths — text
// (RecordReader), an in-memory binary image and a mapped binary file
// (BinRecordMmapReader) — and analysed at 1 and 8 threads; every
// combination must produce the byte-identical digest. Hexfloat ("%a")
// formatting makes the digest sensitive to a single ULP of drift anywhere
// in the ingest or analysis chain.
//
// Regenerate the corpus after an *intentional* output change with
//   S2S_UPDATE_GOLDEN=1 ctest -R GoldenFigures
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/congestion_chain.h"
#include "core/localize.h"
#include "core/routing_study.h"
#include "core/segment_series.h"
#include "core/timeline.h"
#include "exec/pool.h"
#include "io/binrec.h"
#include "io/records_io.h"
#include "net/timebase.h"
#include "probe/campaign.h"
#include "simnet/network.h"

#ifndef S2S_GOLDEN_DIR
#error "S2S_GOLDEN_DIR must point at tests/golden"
#endif

namespace s2s {
namespace {

using probe::PingRecord;
using probe::TracerouteRecord;

// -- digest machinery --------------------------------------------------------

/// FNV-1a 64-bit over the formatted output lines.
class Digest {
 public:
  void line(const std::string& s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
    hash_ ^= '\n';
    hash_ *= 0x100000001b3ull;
  }

  void value(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    line(buf);
  }

  void values(const char* label, const std::vector<double>& vs) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s n=%zu", label, vs.size());
    line(buf);
    for (const double v : vs) value(v);
  }

  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

std::string golden_path(const std::string& figure) {
  return std::string(S2S_GOLDEN_DIR) + "/" + figure + ".digest";
}

std::string read_golden(const std::string& figure) {
  std::ifstream in(golden_path(figure));
  std::string digest;
  in >> digest;
  return digest;
}

bool update_golden() { return std::getenv("S2S_UPDATE_GOLDEN") != nullptr; }

/// Either asserts `digest` matches the checked-in corpus or (under
/// S2S_UPDATE_GOLDEN=1) rewrites it.
void check_golden(const std::string& figure, const std::string& digest,
                  const std::string& context) {
  if (update_golden()) {
    std::ofstream out(golden_path(figure), std::ios::trunc);
    out << digest << "\n";
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path(figure);
    return;
  }
  const std::string want = read_golden(figure);
  ASSERT_FALSE(want.empty())
      << "missing golden corpus " << golden_path(figure)
      << " — regenerate with S2S_UPDATE_GOLDEN=1";
  EXPECT_EQ(digest, want) << figure << " drifted (" << context
                          << "); if intentional, regenerate with "
                             "S2S_UPDATE_GOLDEN=1";
}

// -- shared deterministic dataset --------------------------------------------

/// One simulated network plus the two campaigns the figures need,
/// serialized once into text and binary images. Built lazily and shared
/// across all tests (the topology build dominates the suite's runtime).
struct Dataset {
  std::unique_ptr<simnet::Network> net;
  // Fig 2/5 source: month-long 3-hour full-duplex traceroute campaign.
  std::string routing_text;
  std::string routing_bin;
  // Fig 9 source: week-long 30-minute follow-up campaign over the pairs
  // the ping survey flagged.
  std::string follow_text;
  std::string follow_bin;
  std::size_t follow_epochs = 0;
  std::size_t follow_pairs = 0;
};

const Dataset& dataset() {
  static const Dataset d = [] {
    Dataset out;
    simnet::NetworkConfig config;
    config.topology.seed = 7;
    config.topology.tier1_count = 4;
    config.topology.transit_count = 18;
    config.topology.stub_count = 70;
    config.topology.server_count = 16;
    // The default congested-link fractions are calibrated for the paper's
    // full-scale topology; on this small test world they frequently leave
    // the measured mesh congestion-free, which would degenerate the Fig 9
    // digest to an empty segment list. Crank them so the survey has
    // something to find, and bias episodes long so the diurnal signal
    // persists through the follow-up window.
    config.congestion.internal_fraction = 0.06;
    config.congestion.private_interconnect_fraction = 0.10;
    config.congestion.public_ixp_fraction = 0.04;
    config.congestion.permanent_prob = 0.8;
    out.net = std::make_unique<simnet::Network>(config);

    std::vector<topology::ServerId> servers;
    for (topology::ServerId s = 0; s < out.net->topo().servers.size(); ++s) {
      servers.push_back(s);
    }
    out.net->prepare_full_mesh(servers);
    const std::vector<std::pair<topology::ServerId, topology::ServerId>>
        pairs = {{0, 9}, {0, 5}, {3, 9}, {5, 7}, {2, 11}, {4, 13}, {6, 15},
                 {1, 10}};

    const auto serialize = [](probe::TracerouteCampaign& campaign,
                              std::string* text, std::string* bin) {
      std::ostringstream text_out;
      std::ostringstream bin_out(std::ios::binary);
      io::RecordWriter text_writer(text_out);
      io::BinRecordWriter bin_writer(bin_out);
      campaign.run([&](const TracerouteRecord& r) {
        text_writer.write(r);
        bin_writer.write(r);
      });
      bin_writer.finish();
      *text = text_out.str();
      *bin = bin_out.str();
    };

    {
      probe::TracerouteCampaignConfig cfg;
      cfg.days = 30.0;
      cfg.paris_switch_day = 15.0;
      cfg.seed = 11;
      probe::TracerouteCampaign campaign(*out.net, cfg, pairs);
      serialize(campaign, &out.routing_text, &out.routing_bin);
    }
    {
      // The paper's Section 5 chain: a week-long 15-minute ping survey
      // over the full mesh selects the congested pairs, and the 30-minute
      // traceroute follow-up covers exactly those; its records are the
      // Fig 9 source.
      std::vector<std::pair<topology::ServerId, topology::ServerId>> mesh;
      for (std::size_t i = 0; i < servers.size(); ++i) {
        for (std::size_t j = i + 1; j < servers.size(); ++j) {
          mesh.emplace_back(servers[i], servers[j]);
        }
      }
      core::CongestionChainConfig cfg;
      cfg.ping = {417.0, 7.0, 31};
      cfg.followup = {424.0, 7.0, 47};
      std::ostringstream text_out;
      std::ostringstream bin_out(std::ios::binary);
      io::RecordWriter text_writer(text_out);
      io::BinRecordWriter bin_writer(bin_out);
      const auto chain = core::run_congestion_chain(
          *out.net, mesh, cfg, nullptr, nullptr,
          [&](const TracerouteRecord& r) {
            text_writer.write(r);
            bin_writer.write(r);
          });
      bin_writer.finish();
      out.follow_text = text_out.str();
      out.follow_bin = bin_out.str();
      out.follow_epochs = chain.segments ? chain.segments->epochs() : 0;
      out.follow_pairs = chain.followup_pairs.size();
    }
    return out;
  }();
  return d;
}

enum class Ingest { kText, kBinaryImage, kBinaryMmap };

const char* ingest_name(Ingest path) {
  switch (path) {
    case Ingest::kText: return "text";
    case Ingest::kBinaryImage: return "binary-image";
    case Ingest::kBinaryMmap: return "binary-mmap";
  }
  return "?";
}

/// Feeds one serialized image (text or binary, per `path`) into the sink.
/// The mmap arm goes through a real file so the page-mapped code runs.
void ingest_image(Ingest path, const std::string& text,
                  const std::string& bin,
                  const std::function<void(const TracerouteRecord&)>& sink) {
  const auto ping_sink = [](const PingRecord&) {};
  switch (path) {
    case Ingest::kText: {
      std::istringstream in(text);
      io::RecordReader reader(in);
      reader.read_all(sink, ping_sink);
      return;
    }
    case Ingest::kBinaryImage: {
      io::BinRecordMmapReader reader(bin.data(), bin.size());
      ASSERT_TRUE(reader.ok());
      reader.read_all(sink, ping_sink);
      return;
    }
    case Ingest::kBinaryMmap: {
      const std::string file =
          ::testing::TempDir() + "/golden_figures_ingest.s2sb";
      {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out << bin;
      }
      io::BinRecordMmapReader reader(file);
      ASSERT_TRUE(reader.ok());
      reader.read_all(sink, ping_sink);
      return;
    }
  }
}

// -- per-figure digests ------------------------------------------------------

std::string routing_digests(Ingest path, unsigned threads,
                            std::string* fig5_out) {
  const Dataset& d = dataset();
  core::TimelineStore store(d.net->topo(), d.net->rib(),
                            {0.0, net::kThreeHours});
  ingest_image(path, d.routing_text, d.routing_bin,
               [&](const TracerouteRecord& r) { store.add(r); });
  exec::ThreadPool pool(threads);
  const auto study = core::run_routing_study(store, {}, &pool);

  Digest fig2;
  fig2.values("fig2a.v4.unique_paths", study.v4.unique_paths);
  fig2.values("fig2a.v6.unique_paths", study.v6.unique_paths);
  fig2.values("fig2b.path_pairs_v4", study.path_pairs_v4);
  fig2.values("fig2b.path_pairs_v6", study.path_pairs_v6);

  Digest fig5;
  fig5.values("fig5.v4.lifetime_hours_p90", study.v4.lifetime_hours_p90);
  fig5.values("fig5.v4.delta_p90_ms", study.v4.delta_p90_ms);
  fig5.values("fig5.v6.lifetime_hours_p90", study.v6.lifetime_hours_p90);
  fig5.values("fig5.v6.delta_p90_ms", study.v6.delta_p90_ms);
  *fig5_out = fig5.hex();
  return fig2.hex();
}

std::string fig9_digest(Ingest path, unsigned threads) {
  const Dataset& d = dataset();
  core::SegmentSeriesStore segments(424.0, net::kThirtyMinutes,
                                    d.follow_epochs);
  ingest_image(path, d.follow_text, d.follow_bin,
               [&](const TracerouteRecord& r) { segments.add(r); });
  exec::ThreadPool pool(threads);
  core::LocalizeConfig cfg;
  cfg.min_traces =
      static_cast<std::size_t>(0.3 * static_cast<double>(d.follow_epochs));
  const auto loc = core::localize_congestion(segments, d.net->rib(), cfg,
                                             &pool);
  Digest fig9;
  {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "fig9 segments=%zu considered=%zu localized=%zu",
                  loc.segments.size(), loc.pairs_considered,
                  loc.pairs_localized);
    fig9.line(buf);
  }
  for (const auto& seg : loc.segments) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "seg %u->%u fam=%d idx=%zu", seg.src,
                  seg.dst, seg.family == net::Family::kIPv4 ? 4 : 6,
                  seg.segment_index);
    fig9.line(buf);
    fig9.value(seg.rho);
    fig9.value(seg.overhead_ms);
  }
  return fig9.hex();
}

// -- the regression ----------------------------------------------------------

TEST(GoldenFigures, AllIngestPathsAndThreadCountsMatchTheCorpus) {
  // When regenerating, only the first combination writes; the rest then
  // verify against it, so a regeneration run still proves path/thread
  // invariance.
  bool first = true;
  for (const Ingest path :
       {Ingest::kText, Ingest::kBinaryImage, Ingest::kBinaryMmap}) {
    for (const unsigned threads : {1u, 8u}) {
      const std::string context = std::string(ingest_name(path)) +
                                  " threads=" + std::to_string(threads);
      SCOPED_TRACE(context);
      std::string fig5;
      const std::string fig2 = routing_digests(path, threads, &fig5);
      const std::string fig9 = fig9_digest(path, threads);
      if (first && update_golden()) {
        check_golden("fig2", fig2, context);
        check_golden("fig5", fig5, context);
        check_golden("fig9", fig9, context);
      } else {
        EXPECT_EQ(fig2, read_golden("fig2")) << context;
        EXPECT_EQ(fig5, read_golden("fig5")) << context;
        EXPECT_EQ(fig9, read_golden("fig9")) << context;
      }
      first = false;
    }
  }
}

// A canary that fails loudly (rather than via digest mismatch) if the
// dataset itself degenerates — empty studies digest fine but regress the
// test's power silently.
TEST(GoldenFigures, DatasetIsNonDegenerate) {
  const Dataset& d = dataset();
  EXPECT_FALSE(d.routing_text.empty());
  EXPECT_GT(d.routing_bin.size(), 16u);
  EXPECT_GT(d.follow_epochs, 0u);

  core::TimelineStore store(d.net->topo(), d.net->rib(),
                            {0.0, net::kThreeHours});
  std::istringstream in(d.routing_text);
  io::RecordReader reader(in);
  reader.read_all([&](const TracerouteRecord& r) { store.add(r); },
                  [](const PingRecord&) {});
  exec::ThreadPool pool(1);
  const auto study = core::run_routing_study(store, {}, &pool);
  EXPECT_GT(study.v4.timelines, 0u);
  EXPECT_FALSE(study.v4.unique_paths.empty());
  EXPECT_FALSE(study.path_pairs_v4.empty());
  EXPECT_FALSE(study.v4.lifetime_hours_p90.empty());

  // Fig 9 must have real congestion to localize: the survey flagged
  // pairs, and at least one segment survives localization.
  EXPECT_GT(d.follow_pairs, 0u);
  core::SegmentSeriesStore segments(424.0, net::kThirtyMinutes,
                                    d.follow_epochs);
  std::istringstream fin(d.follow_text);
  io::RecordReader freader(fin);
  freader.read_all([&](const TracerouteRecord& r) { segments.add(r); },
                   [](const PingRecord&) {});
  core::LocalizeConfig cfg;
  cfg.min_traces =
      static_cast<std::size_t>(0.3 * static_cast<double>(d.follow_epochs));
  const auto loc = core::localize_congestion(segments, d.net->rib(), cfg,
                                             &pool);
  EXPECT_GT(loc.pairs_considered, 0u);
  EXPECT_FALSE(loc.segments.empty());
}

}  // namespace
}  // namespace s2s
