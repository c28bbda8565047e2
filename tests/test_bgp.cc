#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "bgp/relationships.h"
#include "bgp/rib.h"
#include "bgp/trie.h"
#include "stats/rng.h"
#include "topology/generator.h"

namespace s2s::bgp {
namespace {

TEST(Trie4, LongestPrefixMatchWins) {
  Trie4 trie;
  trie.insert(*net::Prefix4::parse("10.0.0.0/8"), 100);
  trie.insert(*net::Prefix4::parse("10.1.0.0/16"), 200);
  trie.insert(*net::Prefix4::parse("10.1.2.0/24"), 300);
  EXPECT_EQ(trie.lookup(*net::IPv4Addr::parse("10.1.2.3")), 300u);
  EXPECT_EQ(trie.lookup(*net::IPv4Addr::parse("10.1.3.3")), 200u);
  EXPECT_EQ(trie.lookup(*net::IPv4Addr::parse("10.9.9.9")), 100u);
  EXPECT_FALSE(trie.lookup(*net::IPv4Addr::parse("11.0.0.1")).has_value());
  EXPECT_EQ(trie.size(), 3u);
}

TEST(Trie4, DefaultRouteAndHostRoute) {
  Trie4 trie;
  trie.insert(net::Prefix4(net::IPv4Addr(0), 0), 1);
  trie.insert(net::Prefix4(net::IPv4Addr(1, 2, 3, 4), 32), 2);
  EXPECT_EQ(trie.lookup(net::IPv4Addr(1, 2, 3, 4)), 2u);
  EXPECT_EQ(trie.lookup(net::IPv4Addr(1, 2, 3, 5)), 1u);
}

TEST(Trie4, OverwriteSamePrefix) {
  Trie4 trie;
  trie.insert(*net::Prefix4::parse("10.0.0.0/8"), 1);
  trie.insert(*net::Prefix4::parse("10.0.0.0/8"), 2);
  EXPECT_EQ(trie.lookup(net::IPv4Addr(10, 0, 0, 1)), 2u);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(Trie6, LongestPrefixMatch) {
  Trie6 trie;
  trie.insert(*net::Prefix6::parse("2001:db8::/32"), 10);
  trie.insert(*net::Prefix6::parse("2001:db8:1::/48"), 20);
  EXPECT_EQ(trie.lookup(*net::IPv6Addr::parse("2001:db8:1::5")), 20u);
  EXPECT_EQ(trie.lookup(*net::IPv6Addr::parse("2001:db8:2::5")), 10u);
  EXPECT_FALSE(trie.lookup(*net::IPv6Addr::parse("2001:db9::1")).has_value());
}

/// Brute-force LPM over every inserted prefix, as the reference for the
/// range table: the longest prefix containing the address wins, and a
/// re-insert replaces the prefix's value.
template <typename Prefix, typename Addr>
class ReferenceLpm {
 public:
  void insert(const Prefix& p, std::uint32_t value) { prefixes_[p] = value; }
  std::optional<std::uint32_t> lookup(const Addr& a) const {
    std::optional<std::uint32_t> best;
    int best_len = -1;
    for (const auto& [p, value] : prefixes_) {
      if (p.length() > best_len && p.contains(a)) {
        best = value;
        best_len = p.length();
      }
    }
    return best;
  }
  std::size_t size() const { return prefixes_.size(); }

 private:
  std::map<Prefix, std::uint32_t> prefixes_;
};

// Interleaves inserts and lookups on a small address neighbourhood so
// prefixes nest, collide and get re-inserted, with /0 and host routes in
// the mix; every lookup and size() must match the brute-force reference.
// `random_addr` draws from a few clustered bases; `lengths` biases the
// prefix lengths toward the interesting ones.
template <typename Table, typename Prefix, typename Addr, typename Draw>
void differential_lpm(stats::Rng& rng, Draw random_addr,
                      const std::vector<int>& lengths) {
  for (int round = 0; round < 20; ++round) {
    Table table;
    ReferenceLpm<Prefix, Addr> ref;
    std::vector<Prefix> inserted;
    for (int step = 0; step < 400; ++step) {
      if (rng.chance(0.3)) {
        // Re-insert an existing prefix with a new value, or a fresh one.
        const Prefix p =
            !inserted.empty() && rng.chance(0.25)
                ? inserted[rng.below(inserted.size())]
                : Prefix(random_addr(rng),
                         lengths[rng.below(lengths.size())]);
        const auto value = static_cast<std::uint32_t>(rng.below(1000));
        table.insert(p, value);
        ref.insert(p, value);
        inserted.push_back(p);
        ASSERT_EQ(table.size(), ref.size());
      }
      const Addr a = random_addr(rng);
      ASSERT_EQ(table.lookup(a), ref.lookup(a))
          << "round " << round << " step " << step << " addr " << a;
    }
  }
}

TEST(Trie4, MatchesBruteForceLongestPrefix) {
  stats::Rng rng(0x1b9);
  const auto draw = [](stats::Rng& r) {
    static constexpr std::uint32_t kBases[] = {0x0a000000, 0x0a0100ff,
                                               0xc0000200, 0xffffff00, 0};
    return net::IPv4Addr(kBases[r.below(5)] ^
                         static_cast<std::uint32_t>(r.below(1u << 12)) ^
                         (r.chance(0.1) ? static_cast<std::uint32_t>(r())
                                        : 0u));
  };
  differential_lpm<Trie4, net::Prefix4, net::IPv4Addr>(
      rng, draw, {0, 1, 8, 16, 20, 22, 24, 28, 30, 31, 32, 32});
}

TEST(Trie6, MatchesBruteForceLongestPrefix) {
  stats::Rng rng(0x1b9);
  const auto draw = [](stats::Rng& r) {
    static constexpr std::uint64_t kHi[] = {0x20010db800000000ULL,
                                            0x20010db800010000ULL,
                                            0xffffffffffffffffULL, 0};
    const std::uint64_t hi =
        kHi[r.below(4)] ^ (r.chance(0.5) ? r.below(1u << 8) : 0) ^
        (r.chance(0.1) ? r() : 0);
    const std::uint64_t lo = r.chance(0.5) ? r.below(1u << 8) : r();
    return net::IPv6Addr::from_halves(hi, lo);
  };
  differential_lpm<Trie6, net::Prefix6, net::IPv6Addr>(
      rng, draw, {0, 1, 16, 32, 48, 56, 60, 64, 65, 96, 120, 127, 128, 128});
}

TEST(Rib, ExcludesUnannouncedPrefixes) {
  topology::GeneratorConfig cfg;
  cfg.seed = 9;
  cfg.tier1_count = 5;
  cfg.transit_count = 20;
  cfg.stub_count = 60;
  cfg.server_count = 20;
  cfg.unannounced_ixp_fraction = 1.0;  // every IXP LAN hidden
  const auto topo = topology::generate(cfg);
  const Rib rib = Rib::from_topology(topo);
  std::size_t hidden = 0;
  for (const auto& entry : topo.prefixes4) {
    const net::IPv4Addr probe(entry.prefix.address().value() + 1);
    const auto origin = rib.origin(probe);
    if (entry.announced) {
      ASSERT_TRUE(origin.has_value());
    } else {
      // Must not resolve to the hidden prefix's origin via this prefix:
      // either unmapped or covered by a shorter announced prefix (none in
      // our plan, so unmapped).
      EXPECT_FALSE(origin.has_value());
      ++hidden;
    }
  }
  EXPECT_GT(hidden, 0u);
}

TEST(Rib, DispatchesFamilies) {
  Rib rib;
  rib.insert(*net::Prefix4::parse("10.0.0.0/8"), net::Asn(64500));
  rib.insert(*net::Prefix6::parse("2001:db8::/32"), net::Asn(64501));
  EXPECT_EQ(rib.origin(*net::IPAddr::parse("10.1.1.1")), net::Asn(64500));
  EXPECT_EQ(rib.origin(*net::IPAddr::parse("2001:db8::1")), net::Asn(64501));
  EXPECT_FALSE(rib.origin(*net::IPAddr::parse("192.0.2.1")).has_value());
  EXPECT_EQ(rib.size4(), 1u);
  EXPECT_EQ(rib.size6(), 1u);
}

TEST(RelationshipTable, SymmetricViews) {
  RelationshipTable table;
  table.add(net::Asn(1), net::Asn(2), Rel::kCustomer);
  table.add(net::Asn(3), net::Asn(4), Rel::kPeer);
  EXPECT_EQ(table.rel(net::Asn(1), net::Asn(2)), Rel::kCustomer);
  EXPECT_EQ(table.rel(net::Asn(2), net::Asn(1)), Rel::kProvider);
  EXPECT_TRUE(table.are_peers(net::Asn(3), net::Asn(4)));
  EXPECT_TRUE(table.are_peers(net::Asn(4), net::Asn(3)));
  EXPECT_FALSE(table.rel(net::Asn(1), net::Asn(3)).has_value());
  EXPECT_TRUE(table.is_customer_of(net::Asn(1), net::Asn(2)));
  EXPECT_TRUE(table.is_provider_of(net::Asn(2), net::Asn(1)));
}

TEST(RelationshipTable, FromTopologyMatchesGroundTruth) {
  topology::GeneratorConfig cfg;
  cfg.seed = 10;
  cfg.tier1_count = 5;
  cfg.transit_count = 20;
  cfg.stub_count = 60;
  cfg.server_count = 10;
  const auto topo = topology::generate(cfg);
  const auto table = RelationshipTable::from_topology(topo);
  EXPECT_EQ(table.size(), topo.adjacencies.size());
  for (const auto& adj : topo.adjacencies) {
    const auto a = topo.ases[adj.a].asn;
    const auto b = topo.ases[adj.b].asn;
    if (adj.rel == topology::Relationship::kCustomerToProvider) {
      EXPECT_TRUE(table.is_customer_of(a, b));
    } else {
      EXPECT_TRUE(table.are_peers(a, b));
    }
  }
}

TEST(RelationshipTable, PerturbDropsAndFlips) {
  topology::GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.tier1_count = 5;
  cfg.transit_count = 20;
  cfg.stub_count = 60;
  cfg.server_count = 10;
  const auto topo = topology::generate(cfg);
  auto table = RelationshipTable::from_topology(topo);
  const std::size_t before = table.size();
  stats::Rng rng(3);
  table.perturb(rng, /*flip_prob=*/0.1, /*drop_prob=*/0.1);
  EXPECT_LT(table.size(), before);
  EXPECT_GT(table.size(), before / 2);
  // Some relationships must now disagree with ground truth.
  std::size_t flipped = 0;
  for (const auto& adj : topo.adjacencies) {
    const auto rel = table.rel(topo.ases[adj.a].asn, topo.ases[adj.b].asn);
    if (!rel) continue;
    const bool truth_c2p =
        adj.rel == topology::Relationship::kCustomerToProvider;
    if (truth_c2p != (*rel == Rel::kCustomer)) ++flipped;
  }
  EXPECT_GT(flipped, 0u);
}

}  // namespace
}  // namespace s2s::bgp
