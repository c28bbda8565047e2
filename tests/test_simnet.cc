#include <gtest/gtest.h>

#include <thread>

#include "simnet/congestion.h"
#include "simnet/network.h"
#include "simnet/router_path.h"
#include "topology/generator.h"

namespace s2s::simnet {
namespace {

using topology::ServerId;
using topology::Topology;

NetworkConfig small_network_config(std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.topology.seed = seed;
  cfg.topology.tier1_count = 5;
  cfg.topology.transit_count = 25;
  cfg.topology.stub_count = 80;
  cfg.topology.server_count = 30;
  return cfg;
}

TEST(CongestionProfile, DiurnalPeaksAtBusyHour) {
  CongestionProfile p;
  p.amplitude_ms = 30.0;
  p.peak_local_hour = 20.0;
  p.sigma_hours = 2.0;
  p.utc_offset_hours = 0.0;
  const double at_peak =
      p.delay_ms(net::Family::kIPv4, net::SimTime::from_hours(20.0));
  const double off_peak =
      p.delay_ms(net::Family::kIPv4, net::SimTime::from_hours(8.0));
  EXPECT_NEAR(at_peak, 30.0, 1e-9);
  EXPECT_LT(off_peak, 0.01);
  // Circular hour distance: 23:00 is 3 hours from the 20:00 peak, same as
  // 17:00.
  EXPECT_NEAR(p.delay_ms(net::Family::kIPv4, net::SimTime::from_hours(23.0)),
              p.delay_ms(net::Family::kIPv4, net::SimTime::from_hours(17.0)),
              1e-9);
}

TEST(CongestionProfile, TimeZoneShiftsPeak) {
  CongestionProfile p;
  p.amplitude_ms = 30.0;
  p.peak_local_hour = 20.0;
  p.utc_offset_hours = 9.0;  // JST: local 20:00 = 11:00 UTC
  EXPECT_NEAR(p.delay_ms(net::Family::kIPv4, net::SimTime::from_hours(11.0)),
              30.0, 1e-9);
}

TEST(CongestionProfile, EpisodeGating) {
  CongestionProfile p;
  p.amplitude_ms = 30.0;
  p.peak_local_hour = 12.0;
  p.episodes = {{0, 86400}};
  EXPECT_GT(p.delay_ms(net::Family::kIPv4, net::SimTime::from_hours(12.0)), 29.0);
  EXPECT_DOUBLE_EQ(
      p.delay_ms(net::Family::kIPv4,
                 net::SimTime::from_hours(12.0 + 48.0)),  // outside episode
      0.0);
}

TEST(CongestionProfile, FamilyGating) {
  CongestionProfile p;
  p.amplitude_ms = 30.0;
  p.peak_local_hour = 12.0;
  p.affects_v6 = false;
  EXPECT_GT(p.delay_ms(net::Family::kIPv4, net::SimTime::from_hours(12.0)), 0.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(net::Family::kIPv6, net::SimTime::from_hours(12.0)),
                   0.0);
}

TEST(CongestionProfile, BurstyIsFlatTopped) {
  CongestionProfile p;
  p.kind = CongestionKind::kBursty;
  p.amplitude_ms = 25.0;
  p.bursts = {{1000, 2000}, {5000, 6000}};
  EXPECT_DOUBLE_EQ(p.delay_ms(net::Family::kIPv4, net::SimTime(1500)), 25.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(net::Family::kIPv4, net::SimTime(2500)), 0.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(net::Family::kIPv4, net::SimTime(5999)), 25.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(net::Family::kIPv4, net::SimTime(999)), 0.0);
}

TEST(CongestionProfile, EpisodeBoundariesAreHalfOpen) {
  CongestionProfile p;
  p.amplitude_ms = 30.0;
  // One episode aligned exactly to a 15-minute epoch edge: active at the
  // start instant, inactive at the end instant ([start, end) semantics —
  // a probe landing exactly on the closing edge must not see the bump).
  p.episodes = {{4 * 900, 8 * 900}};
  EXPECT_FALSE(p.active_at(net::SimTime(4 * 900 - 1)));
  EXPECT_TRUE(p.active_at(net::SimTime(4 * 900)));
  EXPECT_TRUE(p.active_at(net::SimTime(8 * 900 - 1)));
  EXPECT_FALSE(p.active_at(net::SimTime(8 * 900)));
}

TEST(CongestionProfile, ZeroLengthEpisodeNeverActivates) {
  CongestionProfile p;
  p.amplitude_ms = 30.0;
  p.peak_local_hour = 0.0;
  p.episodes = {{5000, 5000}};
  // Degenerate [t, t) window: empty by the half-open rule. The episode
  // list is non-empty, so the always-on fallback must not kick in either.
  EXPECT_FALSE(p.active_at(net::SimTime(5000)));
  EXPECT_DOUBLE_EQ(p.delay_ms(net::Family::kIPv4, net::SimTime(5000)), 0.0);
  EXPECT_FALSE(p.active_at(net::SimTime(0)));
}

TEST(CongestionProfile, EpisodePastCampaignEndStillGates) {
  CongestionProfile p;
  p.amplitude_ms = 30.0;
  p.peak_local_hour = 12.0;
  // Window open past the 520-day campaign horizon: probes near the end of
  // the campaign are inside, and the over-run tail is simply never
  // sampled — no wraparound to the campaign start.
  const std::int64_t end = 520 * 86400;
  p.episodes = {{end - 86400, end + 10 * 86400}};
  EXPECT_TRUE(p.active_at(net::SimTime(end - 3600)));
  EXPECT_TRUE(p.active_at(net::SimTime(end + 86400)));
  EXPECT_FALSE(p.active_at(net::SimTime(0)));
  EXPECT_GT(p.delay_ms(net::Family::kIPv4,
                       net::SimTime(end - 86400 / 2)),  // 12:00 of last day
            29.0);
}

TEST(CongestionProfile, EmptyEpisodesMeanWholeCampaign) {
  CongestionProfile always;
  always.amplitude_ms = 30.0;
  // The permanent_prob arm emits an empty episode list = active for the
  // whole campaign; explicit windows restrict it.
  EXPECT_TRUE(always.active_at(net::SimTime(0)));
  EXPECT_TRUE(always.active_at(net::SimTime(519 * 86400)));

  CongestionProfile windowed = always;
  windowed.episodes = {{0, 86400}, {10 * 86400, 11 * 86400}};
  EXPECT_TRUE(windowed.active_at(net::SimTime(3600)));
  EXPECT_FALSE(windowed.active_at(net::SimTime(5 * 86400)));
  EXPECT_TRUE(windowed.active_at(net::SimTime(10 * 86400 + 3600)));
  EXPECT_FALSE(windowed.active_at(net::SimTime(12 * 86400)));
}

TEST(CongestionModel, PermanentOnlyConfigYieldsAlwaysActiveProfiles) {
  Topology topo = topology::generate(small_network_config(33).topology);
  CongestionConfig cfg;
  cfg.internal_fraction = 0.2;
  cfg.private_interconnect_fraction = 0.2;
  cfg.permanent_prob = 1.0;
  cfg.bursty_fraction = 0.0;
  const CongestionModel model(topo, cfg, stats::Rng(4));
  ASSERT_FALSE(model.profiles().empty());
  for (const auto& p : model.profiles()) {
    EXPECT_TRUE(p.episodes.empty());
    EXPECT_TRUE(p.active_at(net::SimTime(0)));
    EXPECT_TRUE(p.active_at(net::SimTime(519 * 86400)));
  }
}

TEST(CongestionModel, AmplitudesWithinRegionalBands) {
  Topology topo = topology::generate(small_network_config(31).topology);
  CongestionConfig cfg;
  cfg.internal_fraction = 0.3;  // dense for statistics
  cfg.private_interconnect_fraction = 0.3;
  cfg.bursty_fraction = 0.0;
  const CongestionModel model(topo, cfg, stats::Rng(1));
  ASSERT_GT(model.profiles().size(), 50u);
  for (const auto& p : model.profiles()) {
    EXPECT_GE(p.amplitude_ms, 10.0);
    EXPECT_LE(p.amplitude_ms, 120.0);
  }
}

TEST(CongestionModel, WritesProfileIndexIntoLinks) {
  Topology topo = topology::generate(small_network_config(32).topology);
  CongestionConfig cfg;
  cfg.internal_fraction = 0.2;
  const CongestionModel model(topo, cfg, stats::Rng(2));
  std::size_t flagged = 0;
  for (topology::LinkId id = 0; id < topo.links.size(); ++id) {
    if (topo.links[id].congestion_profile != topology::kInvalidId) {
      ++flagged;
      EXPECT_EQ(model.profiles()[topo.links[id].congestion_profile].link, id);
    } else {
      EXPECT_DOUBLE_EQ(
          model.queue_delay_ms(id, net::Family::kIPv4,
                               net::SimTime::from_hours(20.0)),
          0.0);
    }
  }
  EXPECT_GT(flagged, 0u);
}

class NetworkFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<Network>(small_network_config(33));
    std::vector<ServerId> servers;
    for (ServerId s = 0; s < net_->topo().servers.size(); ++s) {
      servers.push_back(s);
    }
    net_->prepare_full_mesh(servers);
  }
  std::unique_ptr<Network> net_;
};

TEST_F(NetworkFixture, ResolveReturnsContinuousRouterPath) {
  const auto& topo = net_->topo();
  std::size_t resolved = 0;
  for (ServerId a = 0; a < 10; ++a) {
    for (ServerId b = 10; b < 20; ++b) {
      const auto r = net_->resolve(a, b, net::Family::kIPv4, net::SimTime(0));
      if (!r) continue;
      ++resolved;
      ASSERT_FALSE(r->path->hops.empty());
      // First hop is the source's attachment router.
      EXPECT_EQ(r->path->hops.front().router, topo.servers[a].attachment);
      EXPECT_EQ(r->path->hops.back().router, topo.servers[b].attachment);
      // Consecutive hops are joined by the stated link.
      for (std::size_t i = 1; i < r->path->hops.size(); ++i) {
        const auto& hop = r->path->hops[i];
        ASSERT_NE(hop.link, topology::kInvalidId);
        const auto& link = topo.links[hop.link];
        const auto prev = r->path->hops[i - 1].router;
        EXPECT_TRUE((link.end_a.router == prev && link.end_b.router == hop.router) ||
                    (link.end_b.router == prev && link.end_a.router == hop.router));
        // Cumulative delay is strictly increasing.
        EXPECT_GT(hop.cumulative_delay_ms,
                  r->path->hops[i - 1].cumulative_delay_ms);
      }
      // AS path endpoints match server ASes.
      EXPECT_EQ(r->as_path.front(), topo.servers[a].as_id);
      EXPECT_EQ(r->as_path.back(), topo.servers[b].as_id);
    }
  }
  EXPECT_GT(resolved, 50u);
}

TEST_F(NetworkFixture, OneWayIncludesCongestionQueues) {
  // Find a resolvable pair, then compare one_way at a quiet hour vs the
  // same path evaluated with all congested links at their peak. Since
  // profiles vary, we only assert one_way >= propagation delay.
  for (ServerId a = 0; a < 5; ++a) {
    for (ServerId b = 5; b < 10; ++b) {
      const auto r = net_->resolve(a, b, net::Family::kIPv4, net::SimTime(0));
      if (!r) continue;
      const double ow = net_->one_way_ms(*r->path, net::Family::kIPv4,
                                         net::SimTime::from_hours(20.0));
      EXPECT_GE(ow, r->path->total_delay_ms - 1e-9);
    }
  }
}

TEST_F(NetworkFixture, PartialOneWayIsMonotone) {
  const auto r = net_->resolve(0, 15, net::Family::kIPv4, net::SimTime(0));
  if (!r) GTEST_SKIP() << "pair unroutable in this seed";
  std::vector<Network::HopDelay> delays;
  net_->hop_delays(*r->path, net::Family::kIPv4, net::SimTime(0), delays);
  double prev = 0.0;
  for (std::size_t i = 0; i < r->path->hops.size(); ++i) {
    const double v = Network::partial_one_way_ms(*r->path, i, delays);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_LE(prev, net_->one_way_ms(*r->path, net::Family::kIPv4,
                                   net::SimTime(0)) + 1e-9);
}

TEST_F(NetworkFixture, SeverityPopulatedForUsedAdjacencies) {
  double max_severity = 0.0;
  for (topology::AdjacencyId id = 0; id < net_->topo().adjacencies.size();
       ++id) {
    max_severity = std::max(max_severity, net_->severity_ms(id));
  }
  EXPECT_GT(max_severity, 0.0);
}

TEST_F(NetworkFixture, ResolveThrowsOnUnpreparedUse) {
  Network fresh(small_network_config(34));
  EXPECT_THROW(fresh.resolve(0, 1, net::Family::kIPv4, net::SimTime(0)),
               std::logic_error);
}

TEST_F(NetworkFixture, IncrementalPrepareMatchesOnePrepare) {
  // A subset first, then the full mesh: the second prepare builds only
  // the AS pairs the first left out, and every pair ends with the
  // candidates of the fixture's single full-mesh prepare.
  Network step(small_network_config(33));
  std::vector<ServerId> subset, servers;
  for (ServerId s = 0; s < step.topo().servers.size(); ++s) {
    servers.push_back(s);
    if (s % 3 == 0) subset.push_back(s);
  }
  step.prepare_full_mesh(subset);
  const auto& first = step.topo().servers[subset[0]];
  const auto& second = step.topo().servers[subset[1]];
  const routing::CandidateSet* kept =
      step.candidates(net::Family::kIPv4).find(first.as_id, second.as_id);
  ASSERT_NE(kept, nullptr);
  step.prepare_full_mesh(servers);
  // A set built by the first prepare stays where it was.
  EXPECT_EQ(step.candidates(net::Family::kIPv4).find(first.as_id,
                                                     second.as_id),
            kept);

  for (const net::Family family : {net::Family::kIPv4, net::Family::kIPv6}) {
    std::size_t pairs = 0, step_pairs = 0;
    step.candidates(family).for_each(
        [&](topology::AsId, topology::AsId, const routing::CandidateSet&) {
          ++step_pairs;
        });
    net_->candidates(family).for_each([&](topology::AsId src,
                                          topology::AsId dst,
                                          const routing::CandidateSet& want) {
      ++pairs;
      const auto* got = step.candidates(family).find(src, dst);
      ASSERT_NE(got, nullptr) << src << "->" << dst;
      ASSERT_EQ(got->candidates.size(), want.candidates.size())
          << src << "->" << dst;
      for (std::size_t i = 0; i < want.candidates.size(); ++i) {
        const auto& a = got->candidates[i];
        const auto& b = want.candidates[i];
        EXPECT_EQ(a.path, b.path) << src << "->" << dst << " #" << i;
        EXPECT_EQ(a.adjs, b.adjs) << src << "->" << dst << " #" << i;
        EXPECT_EQ(a.route_class, b.route_class) << src << "->" << dst;
        EXPECT_EQ(a.primary, b.primary) << src << "->" << dst;
      }
    });
    EXPECT_GT(pairs, 0u);
    EXPECT_EQ(step_pairs, pairs);
  }
}

/// A prepared full-mesh network for the memo tests.
std::unique_ptr<Network> prepared_network(std::uint64_t seed) {
  auto net = std::make_unique<Network>(small_network_config(seed));
  std::vector<ServerId> servers;
  for (ServerId s = 0; s < net->topo().servers.size(); ++s) {
    servers.push_back(s);
  }
  net->prepare_full_mesh(servers);
  return net;
}

TEST(RouterPathExpander, CachesByCandidateSlot) {
  const auto net = prepared_network(35);
  const Topology& topo = net->topo();
  // A real multi-AS path between dual-stack servers in different ASes.
  ServerId src = topology::kInvalidId, dst = topology::kInvalidId;
  std::vector<topology::AsId> as_path;
  for (ServerId a = 0; a < topo.servers.size() && as_path.empty(); ++a) {
    for (ServerId b = 0; b < topo.servers.size(); ++b) {
      if (topo.servers[a].as_id == topo.servers[b].as_id ||
          !topo.servers[a].dual_stack() || !topo.servers[b].dual_stack()) {
        continue;
      }
      const auto r = net->resolve(a, b, net::Family::kIPv4, net::SimTime(0));
      if (!r || r->from_fallback) continue;
      src = a;
      dst = b;
      as_path.assign(r->as_path.begin(), r->as_path.end());
      break;
    }
  }
  ASSERT_GE(as_path.size(), 2u) << "no multi-AS pair in this topology";

  RouterPathExpander expander(topo);
  const RouterPath* p1 =
      expander.expand(src, dst, as_path, net::Family::kIPv4, 0);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(expander.expand(src, dst, as_path, net::Family::kIPv4, 0), p1);
  // Another slot is its own entry, with the same expansion.
  const RouterPath* p2 =
      expander.expand(src, dst, as_path, net::Family::kIPv4, 1);
  ASSERT_NE(p2, nullptr);
  EXPECT_NE(p2, p1);
  ASSERT_EQ(p2->hops.size(), p1->hops.size());
  for (std::size_t i = 0; i < p1->hops.size(); ++i) {
    EXPECT_EQ(p2->hops[i].router, p1->hops[i].router);
    EXPECT_EQ(p2->hops[i].link, p1->hops[i].link);
  }
  // So is the other family (when the path exists in the IPv6 plane).
  if (const RouterPath* p6 =
          expander.expand(src, dst, as_path, net::Family::kIPv6, 0)) {
    EXPECT_NE(p6, p1);
    EXPECT_NE(p6, p2);
  }
  // The network's resolutions point into its own memo: a repeat is the
  // same entry.
  const auto r1 = net->resolve(src, dst, net::Family::kIPv4, net::SimTime(0));
  const auto r2 = net->resolve(src, dst, net::Family::kIPv4, net::SimTime(0));
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->path, r2->path);
}

TEST(RouterPathExpander, ResolversAgreeAcrossThreads) {
  const auto net = prepared_network(35);
  const std::size_t servers = net->topo().servers.size();
  // Every pair from server 0..7, both families, at a spread of times: one
  // line per resolution (the router sequence, or "-" when unreachable).
  const auto resolve_all = [&](Network::Resolver& resolver) {
    std::vector<std::vector<topology::RouterId>> out;
    for (int day = 0; day < 480; day += 40) {
      const auto t = net::SimTime::from_days(day);
      for (ServerId a = 0; a < 8; ++a) {
        for (ServerId b = 0; b < servers; ++b) {
          if (a == b) continue;
          for (const auto fam : {net::Family::kIPv4, net::Family::kIPv6}) {
            if (fam == net::Family::kIPv6 &&
                (!net->topo().servers[a].dual_stack() ||
                 !net->topo().servers[b].dual_stack())) {
              continue;
            }
            std::vector<topology::RouterId> routers;
            if (const auto r = resolver.resolve(a, b, fam, t)) {
              for (const RouterHop& hop : r->path->hops) {
                routers.push_back(hop.router);
              }
            }
            out.push_back(std::move(routers));
          }
        }
      }
    }
    return out;
  };
  Network::Resolver reference_resolver(*net);
  const auto want = resolve_all(reference_resolver);
  ASSERT_GT(want.size(), 1000u);

  std::vector<std::vector<std::vector<topology::RouterId>>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] {
      Network::Resolver resolver(*net);
      got[i] = resolve_all(resolver);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want) << "thread " << i;
  }
}

}  // namespace
}  // namespace s2s::simnet
