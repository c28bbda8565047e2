// Campaign byte-identity gate: every record a campaign emits, serialized
// to `.s2sb`, must stay byte-for-byte what the single-threaded campaign
// emitted when the corpus digest in tests/golden/campaign.digest was
// taken — at any pool width. The corpus is small but covers every branch
// of both probe engines: a traceroute campaign across a Paris switch with
// classic artifacts, an event overlay (flash crowds, cascades with dark
// links, bufferbloat, maintenance windows) and an outage-heavy dynamics
// config, so exact fallback routes occur; and a ping campaign with loss
// over the same overlay.
//
// Regenerate the digest after an *intentional* record change with
//   S2S_UPDATE_GOLDEN=1 ctest -R CampaignGolden
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/pool.h"
#include "io/binrec.h"
#include "io/records_io.h"
#include "obs/metrics.h"
#include "probe/campaign.h"
#include "simnet/events.h"
#include "simnet/network.h"

#ifndef S2S_GOLDEN_DIR
#error "S2S_GOLDEN_DIR must point at tests/golden"
#endif

namespace s2s::probe {
namespace {

using topology::ServerId;
using Pairs = std::vector<std::pair<ServerId, ServerId>>;

constexpr double kTraceDays = 4.0;
constexpr double kPingDays = 2.0;

/// FNV-1a 64 over the archives, each prefixed by its length.
std::string digest_of(const std::vector<std::string>& archives) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](const std::string& bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  };
  for (const std::string& a : archives) {
    mix(std::to_string(a.size()) + ":");
    mix(a);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

std::string golden_path() {
  return std::string(S2S_GOLDEN_DIR) + "/campaign.digest";
}

/// One small world shared by every case: an outage-heavy network, the
/// probed pairs and an event overlay on the links they cross.
struct World {
  std::unique_ptr<simnet::Network> net;
  Pairs pairs;
  std::unique_ptr<simnet::EventSchedule> events;
};

const World& world() {
  static const World w = [] {
    World out;
    simnet::NetworkConfig cfg;
    cfg.topology.seed = 77;
    cfg.topology.tier1_count = 5;
    cfg.topology.transit_count = 20;
    cfg.topology.stub_count = 60;
    cfg.topology.server_count = 20;
    // Outage-heavy: many short outages inside the campaign window, so
    // every candidate of some pairs is down at once and resolve() takes
    // the exact fallback.
    cfg.dynamics.campaign_days = 8.0;
    cfg.dynamics.mean_outages_per_adjacency = 12.0;
    cfg.dynamics.repair_min_hours = 3.0;
    cfg.dynamics.repair_span_hours = 36.0;
    cfg.dynamics.oscillate_fraction = 0.0;
    out.net = std::make_unique<simnet::Network>(cfg);
    for (ServerId a = 0; a < 10; ++a) {
      for (ServerId b = a + 1; b < 10; ++b) out.pairs.emplace_back(a, b);
    }
    Pairs both = out.pairs;
    for (const auto& [a, b] : out.pairs) both.emplace_back(b, a);
    out.net->prepare(both);

    simnet::EventScheduleConfig ev;
    ev.start_day = 0.0;
    ev.days = kTraceDays;
    ev.flash_crowds = 3;
    ev.cascades = 3;
    ev.bufferbloats = 2;
    ev.maintenances = 3;
    std::vector<topology::LinkId> links;
    for (const auto& [link, count] :
         simnet::links_crossed(*out.net, both, net::Family::kIPv4,
                               net::SimTime::from_days(1.0))) {
      links.push_back(link);
    }
    out.events = std::make_unique<simnet::EventSchedule>(
        out.net->topo(), ev, links, stats::Rng(5));
    return out;
  }();
  return w;
}

TracerouteCampaignConfig trace_config() {
  TracerouteCampaignConfig cfg;
  cfg.start_day = 0.0;
  cfg.days = kTraceDays;
  cfg.paris_switch_day = kTraceDays / 2.0;
  cfg.seed = 23;
  // Artifacts common enough that a few thousand classic runs show them.
  cfg.traceroute.classic_loop_prob_v4 = 0.2;
  cfg.traceroute.classic_loop_prob_v6 = 0.3;
  cfg.traceroute.classic_false_hop_prob = 0.2;
  cfg.events = world().events.get();
  return cfg;
}

PingCampaignConfig ping_config() {
  PingCampaignConfig cfg;
  cfg.start_day = 0.0;
  cfg.days = kPingDays;
  cfg.seed = 29;
  cfg.ping.loss_prob = 0.05;
  cfg.events = world().events.get();
  return cfg;
}

/// Runs `campaign` on a pool of `width` lanes.
template <typename Campaign, typename Sink>
CampaignRunResult run_at(unsigned width, Campaign& campaign, const Sink& sink,
                         const ProgressFn& progress = {},
                         const CampaignCheckpoint* resume = nullptr) {
  exec::ThreadPool pool(width);
  return campaign.run(sink, progress, resume, pool);
}

/// Both campaigns serialized to `.s2sb`, one block per epoch and kind.
std::vector<std::string> corpus(unsigned width) {
  const World& w = world();
  std::vector<std::string> out;
  {
    std::ostringstream bytes(std::ios::binary);
    io::BinRecordWriter writer(bytes);
    auto cfg = trace_config();
    cfg.on_epoch = [&](std::size_t) { writer.flush_block(); };
    TracerouteCampaign campaign(*w.net, cfg, w.pairs);
    const auto res = run_at(
        width, campaign, [&](const TracerouteRecord& r) { writer.write(r); });
    EXPECT_FALSE(res.aborted);
    writer.finish();
    out.push_back(bytes.str());
  }
  {
    std::ostringstream bytes(std::ios::binary);
    io::BinRecordWriter writer(bytes);
    auto cfg = ping_config();
    cfg.on_epoch = [&](std::size_t) { writer.flush_block(); };
    PingCampaign campaign(*w.net, cfg, w.pairs);
    const auto res = run_at(
        width, campaign, [&](const PingRecord& r) { writer.write(r); });
    EXPECT_FALSE(res.aborted);
    writer.finish();
    out.push_back(bytes.str());
  }
  return out;
}

TEST(CampaignGolden, CorpusCoversFallbackArtifactsAndLoss) {
  const World& w = world();
  // Fallback routes occur inside the traceroute window.
  std::size_t fallbacks = 0;
  for (double day = 0.0; day < kTraceDays; day += 0.125) {
    for (const auto& [a, b] : w.pairs) {
      for (const auto& [s, d] : {std::pair{a, b}, std::pair{b, a}}) {
        const auto r = w.net->resolve(s, d, net::Family::kIPv4,
                                      net::SimTime::from_days(day));
        fallbacks += r && r->from_fallback;
      }
    }
  }
  EXPECT_GT(fallbacks, 0u);

  const auto archives = corpus(1);
  std::size_t loops = 0, paris = 0, classic = 0, lost = 0, pings = 0;
  io::BinRecordMmapReader traces(archives[0].data(), archives[0].size());
  traces.read_all(
      [&](const TracerouteRecord& r) {
        (r.method == TracerouteMethod::kParis ? paris : classic) += 1;
        for (std::size_t i = 2; i < r.hops.size(); ++i) {
          if (r.hops[i].addr && r.hops[i - 2].addr &&
              *r.hops[i].addr == *r.hops[i - 2].addr) {
            ++loops;  // the A B A ghost of a classic load balancer
          }
        }
      },
      [](const PingRecord&) {});
  io::BinRecordMmapReader ping_reader(archives[1].data(), archives[1].size());
  ping_reader.read_all([](const TracerouteRecord&) {},
                       [&](const PingRecord& r) {
                         ++pings;
                         lost += !r.success;
                       });
  EXPECT_GT(paris, 0u);
  EXPECT_GT(classic, 0u);
  EXPECT_GT(loops, 0u);
  EXPECT_GT(pings, 0u);
  EXPECT_GT(lost, 0u);
}

TEST(CampaignGolden, RecordsMatchParentAtAnyWidth) {
  for (const unsigned width : {1u, 2u, 8u}) {
    const std::string digest = digest_of(corpus(width));
    if (std::getenv("S2S_UPDATE_GOLDEN") != nullptr && width == 1) {
      std::ofstream out(golden_path(), std::ios::trunc);
      out << digest << "\n";
      ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
      continue;
    }
    std::ifstream in(golden_path());
    std::string want;
    in >> want;
    ASSERT_FALSE(want.empty()) << "missing " << golden_path();
    EXPECT_EQ(digest, want) << "campaign records drifted at width " << width;
  }
}

/// The sink throws at its `throw_at`-th record; `boundary` tracks the
/// text bytes of the last fully delivered epoch. `make` builds a fresh
/// campaign, so every run starts from the configured seed.
template <typename Record, typename Make>
void expect_same_abort_and_resume(const Make& make, std::size_t throw_at) {
  const auto line_sink = [](std::string& buf) {
    return [&buf](const Record& r) {
      buf += io::to_line(r);
      buf += '\n';
    };
  };
  std::string full;
  {
    auto campaign = make();
    run_at(1, *campaign, line_sink(full));
  }

  std::vector<CampaignRunResult> results;
  for (const unsigned width : {1u, 8u}) {
    std::string buf;
    std::size_t boundary = 0;
    std::size_t delivered = 0;
    auto campaign = make();
    const auto aborted = run_at(
        width, *campaign,
        [&](const Record& r) {
          if (++delivered == throw_at) throw std::runtime_error("disk full");
          buf += io::to_line(r);
          buf += '\n';
        },
        [&](double) { boundary = buf.size(); });
    ASSERT_TRUE(aborted.aborted) << "width " << width;
    EXPECT_EQ(aborted.error, "disk full");
    EXPECT_EQ(aborted.records_delivered, throw_at - 1);
    EXPECT_EQ(aborted.epochs_completed, aborted.checkpoint.next_epoch);
    results.push_back(aborted);

    // Resume a fresh campaign from the text checkpoint: the spliced
    // stream is the uninterrupted one.
    buf.resize(boundary);
    const auto ckpt =
        CampaignCheckpoint::parse(aborted.checkpoint.serialize());
    ASSERT_TRUE(ckpt.has_value());
    auto resumed = make();
    const auto res = run_at(width, *resumed, line_sink(buf), {}, &*ckpt);
    EXPECT_FALSE(res.aborted);
    EXPECT_EQ(buf, full) << "resume at width " << width;
  }
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1].epochs_completed, results[0].epochs_completed);
  EXPECT_EQ(results[1].records_delivered, results[0].records_delivered);
  EXPECT_EQ(results[1].checkpoint.serialize(),
            results[0].checkpoint.serialize());
}

TEST(CampaignGolden, ThrowingSinkAbortsAlikeAtAnyWidth) {
  const World& w = world();
  expect_same_abort_and_resume<TracerouteRecord>(
      [&] {
        return std::make_unique<TracerouteCampaign>(*w.net, trace_config(),
                                                    w.pairs);
      },
      2500);
  expect_same_abort_and_resume<PingRecord>(
      [&] {
        return std::make_unique<PingCampaign>(*w.net, ping_config(), w.pairs);
      },
      9000);
}

// DESIGN.md section 18's cost claim for the exact-fallback route cache:
// over a campaign, one resolver computes a destination's routes at most
// once per failure mask it sees, so computations are bounded by
// (mask changes + 1) x distinct fallback destinations per plane; the
// cache keyed by epoch computed them once per epoch instead.
TEST(CampaignRouteCache, ComputesOncePerMaskChange) {
  const World& w = world();
  const auto cfg = ping_config();
  PingCampaign campaign(*w.net, cfg, w.pairs);
  const auto& topo = w.net->topo();

  // What the campaign's epochs hold: mask changes per plane, and every
  // (epoch, destination AS) whose resolution reaches the exact fallback.
  std::size_t changes[2] = {0, 0};
  std::set<std::pair<topology::AsId, int>> destinations;
  std::size_t epoch_destinations = 0;
  simnet::Network::Resolver resolver(*w.net);
  routing::AdjacencyMask prev[2], mask;
  for (std::size_t epoch = 0; epoch < campaign.epochs(); ++epoch) {
    const net::SimTime t(static_cast<std::int64_t>(epoch) * cfg.interval_s);
    std::set<std::pair<topology::AsId, int>> this_epoch;
    for (const int f : {0, 1}) {
      const auto family = f == 0 ? net::Family::kIPv4 : net::Family::kIPv6;
      w.net->outages().failed_mask(family, t, mask);
      if (epoch > 0 && mask != prev[f]) ++changes[f];
      prev[f] = mask;
      for (const auto& [a, b] : w.pairs) {
        for (const auto& [s, d] : {std::pair{a, b}, std::pair{b, a}}) {
          if (f == 1 && (!topo.servers[s].dual_stack() ||
                         !topo.servers[d].dual_stack())) {
            continue;
          }
          const auto r = resolver.resolve(s, d, family, t);
          if (!r || r->from_fallback) {  // nullopt only comes from there
            this_epoch.emplace(topo.servers[d].as_id, f);
          }
        }
      }
    }
    epoch_destinations += this_epoch.size();
    destinations.insert(this_epoch.begin(), this_epoch.end());
  }
  std::size_t bound = 0;
  for (const auto& [as, f] : destinations) bound += changes[f] + 1;
  ASSERT_FALSE(destinations.empty()) << "the corpus has no fallback routes";

  const auto routes_computed = [] {
    return obs::MetricsRegistry::global()
        .snapshot()
        .counters["s2s.simnet.routes_computed"];
  };
  const std::uint64_t before = routes_computed();
  run_at(1, campaign, [](const PingRecord&) {});
  const std::uint64_t computed = routes_computed() - before;
  EXPECT_GT(computed, 0u);
  EXPECT_LE(computed, bound) << changes[0] << "/" << changes[1]
                             << " mask changes, " << destinations.size()
                             << " fallback destinations";
  // Fewer than once per epoch and destination.
  EXPECT_LT(computed, epoch_destinations);
}

}  // namespace
}  // namespace s2s::probe
