// Failover consistency: whatever route Network::resolve returns, it must
// be (a) policy-valid, (b) entirely up at the query time, and (c) equal to
// the no-failure primary whenever that primary is fully up. This pins the
// candidate-table + exact-fallback machinery against the outage schedule.
#include <gtest/gtest.h>

#include "routing/candidates.h"
#include "simnet/network.h"

namespace s2s::simnet {
namespace {

using topology::AdjacencyId;
using topology::ServerId;

class FailoverFixture : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    NetworkConfig cfg;
    cfg.topology.seed = GetParam();
    cfg.topology.tier1_count = 5;
    cfg.topology.transit_count = 25;
    cfg.topology.stub_count = 80;
    cfg.topology.server_count = 24;
    // Dense outages so failover paths actually exercise.
    cfg.dynamics.mean_outages_per_adjacency = 6.0;
    net_ = std::make_unique<Network>(cfg);
    std::vector<ServerId> servers;
    for (ServerId s = 0; s < net_->topo().servers.size(); ++s) {
      servers.push_back(s);
    }
    net_->prepare_full_mesh(servers);
  }

  std::unique_ptr<Network> net_;
};

TEST_P(FailoverFixture, ResolvedRoutesNeverCrossDownAdjacencies) {
  const auto& topo = net_->topo();
  std::size_t resolved = 0, failovers = 0;
  for (int day = 0; day < 485; day += 23) {
    const net::SimTime t = net::SimTime::from_days(day);
    for (ServerId a = 0; a < 8; ++a) {
      for (ServerId b = 8; b < 16; ++b) {
        for (const auto fam : {net::Family::kIPv4, net::Family::kIPv6}) {
          if (fam == net::Family::kIPv6 &&
              (!topo.servers[a].dual_stack() ||
               !topo.servers[b].dual_stack())) {
            continue;  // the v6 plane is only prepared for dual-stack pairs
          }
          const auto r = net_->resolve(a, b, fam, t);
          if (!r) continue;
          ++resolved;
          failovers += r->from_fallback;
          for (std::size_t i = 0; i + 1 < r->as_path.size(); ++i) {
            const auto adj =
                topo.find_adjacency(r->as_path[i], r->as_path[i + 1]);
            ASSERT_TRUE(adj.has_value());
            EXPECT_FALSE(net_->outages().is_down(*adj, fam, t))
                << "path crosses a down adjacency at day " << day;
            if (fam == net::Family::kIPv6) {
              EXPECT_TRUE(topo.adjacencies[*adj].ipv6);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(resolved, 1000u);
}

TEST_P(FailoverFixture, PrimaryUsedWheneverFullyUp) {
  const auto& topo = net_->topo();
  const routing::ValleyFreeRouter router(topo);
  std::size_t checked = 0;
  for (int day = 1; day < 485 && checked < 400; day += 37) {
    const net::SimTime t = net::SimTime::from_days(day);
    for (ServerId a = 0; a < 6; ++a) {
      for (ServerId b = 6; b < 12; ++b) {
        const auto base =
            router.compute(topo.servers[b].as_id, net::Family::kIPv4);
        const auto primary = router.extract(base, topo.servers[a].as_id);
        if (!primary) continue;
        bool fully_up = true;
        for (std::size_t i = 0; i + 1 < primary->size(); ++i) {
          const auto adj =
              topo.find_adjacency((*primary)[i], (*primary)[i + 1]);
          fully_up = fully_up &&
                     !net_->outages().is_down(*adj, net::Family::kIPv4, t);
        }
        if (!fully_up) continue;
        const auto r = net_->resolve(a, b, net::Family::kIPv4, t);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(std::vector<topology::AsId>(r->as_path.begin(),
                                              r->as_path.end()),
                  *primary);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST_P(FailoverFixture, OutagesChangeObservedPathsOverTime) {
  // Over 485 days with dense outages, at least some pair must see more
  // than one AS path (otherwise the dynamics are inert).
  std::size_t pairs_with_changes = 0;
  for (ServerId a = 0; a < 6; ++a) {
    for (ServerId b = 6; b < 12; ++b) {
      std::vector<std::vector<topology::AsId>> seen;
      for (int day = 0; day < 485; day += 5) {
        const auto r = net_->resolve(a, b, net::Family::kIPv4,
                                     net::SimTime::from_days(day));
        if (!r) continue;
        std::vector<topology::AsId> path(r->as_path.begin(),
                                         r->as_path.end());
        if (std::find(seen.begin(), seen.end(), path) == seen.end()) {
          seen.push_back(std::move(path));
        }
      }
      pairs_with_changes += seen.size() > 1;
    }
  }
  EXPECT_GT(pairs_with_changes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailoverFixture, ::testing::Values(51, 52));

}  // namespace
}  // namespace s2s::simnet
