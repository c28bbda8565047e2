#include "routing/valley_free.h"

#include <gtest/gtest.h>

#include "topology/generator.h"

namespace s2s::routing {
namespace {

using topology::AsId;
using topology::Relationship;
using topology::Topology;

/* Hand-built five-AS topology:

          T1a ---p2p--- T1b          (tier-1 clique)
          /  \            \
        c2p  c2p          c2p
        /      \            \
      M1 --p2p-- M2          M3
       |                      |
      c2p                    c2p
       |                      |
       S1                    S2

   S1's route to S2 must go up via M1 (or M2), across the tier-1 clique,
   and down via M3 — strictly valley-free. */
class TinyTopology : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add_as = [&](std::uint32_t asn) {
      topology::AsNode node;
      node.asn = net::Asn(asn);
      node.pop_cities = {0};
      node.routers = {static_cast<topology::RouterId>(topo_.routers.size())};
      topo_.routers.push_back({static_cast<AsId>(topo_.ases.size()), 0, 1.0});
      topo_.ases.push_back(node);
      return static_cast<AsId>(topo_.ases.size() - 1);
    };
    topo_.cities.push_back({"X", "US", "NA", {0, 0}, 0});
    t1a_ = add_as(10);
    t1b_ = add_as(11);
    m1_ = add_as(100);
    m2_ = add_as(101);
    m3_ = add_as(102);
    s1_ = add_as(5000);
    s2_ = add_as(5001);

    auto connect = [&](AsId a, AsId b, Relationship rel) {
      topology::Adjacency adj;
      adj.a = a;
      adj.b = b;
      adj.rel = rel;
      adj.ipv6 = true;
      adj.links = {static_cast<topology::LinkId>(topo_.links.size())};
      topology::Link link;
      link.scope = topology::LinkScope::kInterconnection;
      link.adjacency = static_cast<topology::AdjacencyId>(
          topo_.adjacencies.size());
      link.city = 0;
      link.ipv6 = true;
      link.end_a = {topo_.ases[a].routers[0],
                    net::IPv4Addr(next_addr_++), std::nullopt};
      link.end_b = {topo_.ases[b].routers[0],
                    net::IPv4Addr(next_addr_++), std::nullopt};
      topo_.links.push_back(link);
      topo_.adjacencies.push_back(adj);
      const auto id =
          static_cast<topology::AdjacencyId>(topo_.adjacencies.size() - 1);
      topo_.ases[a].adjacencies.push_back(id);
      topo_.ases[b].adjacencies.push_back(id);
      return id;
    };

    connect(t1a_, t1b_, Relationship::kPeerToPeer);
    connect(m1_, t1a_, Relationship::kCustomerToProvider);
    connect(m2_, t1a_, Relationship::kCustomerToProvider);
    connect(m3_, t1b_, Relationship::kCustomerToProvider);
    m1_m2_ = connect(m1_, m2_, Relationship::kPeerToPeer);
    s1_m1_ = connect(s1_, m1_, Relationship::kCustomerToProvider);
    connect(s2_, m3_, Relationship::kCustomerToProvider);
    topo_.reindex();
  }

  std::vector<AsId> path(AsId src, AsId dst,
                         const AdjacencyMask* failed = nullptr) {
    const ValleyFreeRouter router(topo_);
    const auto table = router.compute(dst, net::Family::kIPv4, failed);
    auto p = router.extract(table, src);
    return p.value_or(std::vector<AsId>{});
  }

  Topology topo_;
  AsId t1a_, t1b_, m1_, m2_, m3_, s1_, s2_;
  topology::AdjacencyId m1_m2_ = 0, s1_m1_ = 0;
  std::uint32_t next_addr_ = 0x01000001;
};

TEST_F(TinyTopology, StubToStubGoesUpAcrossDown) {
  EXPECT_EQ(path(s1_, s2_), (std::vector<AsId>{s1_, m1_, t1a_, t1b_, m3_, s2_}));
}

TEST_F(TinyTopology, CustomerRoutePreferredOverPeer) {
  // From t1a to s1: customer chain t1a -> m1 -> s1.
  EXPECT_EQ(path(t1a_, s1_), (std::vector<AsId>{t1a_, m1_, s1_}));
  // From m2 to s1: peer route via m1 beats provider route via t1a
  // (customer > peer > provider; both are length 2 here, class wins).
  EXPECT_EQ(path(m2_, s1_), (std::vector<AsId>{m2_, m1_, s1_}));
}

TEST_F(TinyTopology, PeerRouteDoesNotTransitPeer) {
  // s2 must not be reachable from m2 via the m1-m2 peer edge then up
  // (peer route only exports customer routes): the valid path is up via
  // t1a, across, down.
  EXPECT_EQ(path(m2_, s2_), (std::vector<AsId>{m2_, t1a_, t1b_, m3_, s2_}));
}

TEST_F(TinyTopology, FailureReroutes) {
  AdjacencyMask failed(topo_.adjacencies.size(), false);
  failed[s1_m1_] = true;  // sever S1's only uplink
  EXPECT_TRUE(path(s2_, s1_, &failed).empty());
  EXPECT_TRUE(path(s1_, s2_, &failed).empty());
}

TEST_F(TinyTopology, PeerEdgeFailureFallsBackToProvider) {
  AdjacencyMask failed(topo_.adjacencies.size(), false);
  failed[m1_m2_] = true;
  // m2 -> s1 now must go via its provider t1a.
  EXPECT_EQ(path(m2_, s1_, &failed), (std::vector<AsId>{m2_, t1a_, m1_, s1_}));
}

TEST_F(TinyTopology, SelfRoute) {
  EXPECT_EQ(path(s1_, s1_), (std::vector<AsId>{s1_}));
}

// Property over generated topologies: every extracted path is valley-free
// (a down or flat move is never followed by an up or another flat move).
class ValleyFreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValleyFreeProperty, AllPathsValleyFree) {
  topology::GeneratorConfig cfg;
  cfg.seed = GetParam();
  cfg.tier1_count = 5;
  cfg.transit_count = 25;
  cfg.stub_count = 80;
  cfg.server_count = 25;
  const Topology topo = topology::generate(cfg);
  const ValleyFreeRouter router(topo);

  std::size_t checked = 0;
  for (const auto& dst_server : topo.servers) {
    const auto table = router.compute(dst_server.as_id, net::Family::kIPv4);
    for (const auto& src_server : topo.servers) {
      const auto p = router.extract(table, src_server.as_id);
      if (!p) continue;
      // Classify each edge: +1 up (to provider), 0 peer, -1 down.
      bool seen_non_up = false;
      for (std::size_t i = 0; i + 1 < p->size(); ++i) {
        const auto adj_id = topo.find_adjacency((*p)[i], (*p)[i + 1]);
        ASSERT_TRUE(adj_id.has_value());
        const int role = topo.role_of(*adj_id, (*p)[i]);
        // role_of: -1 means (*p)[i] is the customer => moving up.
        const bool up = role == -1;
        const bool flat = role == 0;
        if (seen_non_up) {
          EXPECT_FALSE(up) << "valley at position " << i;
          EXPECT_FALSE(flat) << "second flat move at position " << i;
        }
        if (!up) seen_non_up = true;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValleyFreeProperty,
                         ::testing::Values(11, 22, 33));

TEST(ValleyFreeRouter, V6PlaneExcludesV4OnlyAdjacencies) {
  topology::GeneratorConfig cfg;
  cfg.seed = 5;
  cfg.tier1_count = 5;
  cfg.transit_count = 20;
  cfg.stub_count = 60;
  cfg.server_count = 20;
  cfg.ipv6_adjacency_fraction = 0.5;  // plenty of v4-only adjacencies
  const Topology topo = topology::generate(cfg);
  const ValleyFreeRouter router(topo);
  for (const auto& dst : topo.servers) {
    const auto table = router.compute(dst.as_id, net::Family::kIPv6);
    for (const auto& src : topo.servers) {
      const auto p = router.extract(table, src.as_id);
      if (!p) continue;
      for (std::size_t i = 0; i + 1 < p->size(); ++i) {
        const auto adj_id = topo.find_adjacency((*p)[i], (*p)[i + 1]);
        ASSERT_TRUE(adj_id.has_value());
        EXPECT_TRUE(topo.adjacencies[*adj_id].ipv6);
      }
    }
  }
}

}  // namespace
}  // namespace s2s::routing
