#include "core/ownership.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/link_classify.h"

namespace s2s::core {
namespace {

using net::Asn;
using net::IPAddr;
using net::IPv4Addr;

// Address helper: 10.<as>.<host> style, AS x announces 10.x.0.0/16.
IPAddr in_as(int as, int host) {
  return IPAddr(IPv4Addr(10, static_cast<std::uint8_t>(as), 0,
                         static_cast<std::uint8_t>(host)));
}

class OwnershipFixture : public ::testing::Test {
 protected:
  OwnershipFixture() {
    for (int as : {1, 2, 3, 4, 5}) {
      rib_.insert(net::Prefix4(IPv4Addr(10, static_cast<std::uint8_t>(as), 0, 0), 16),
                  Asn(static_cast<std::uint32_t>(as)));
    }
    rels_.add(Asn(2), Asn(1), bgp::Rel::kCustomer);  // AS2 customer of AS1
    rels_.add(Asn(1), Asn(3), bgp::Rel::kPeer);
  }

  bgp::Rib rib_;
  bgp::RelationshipTable rels_;
};

TEST_F(OwnershipFixture, FirstHeuristicLabelsEarlierHop) {
  OwnershipInference inference(rib_, rels_);
  const std::vector<IPAddr> path{in_as(1, 1), in_as(1, 2), in_as(3, 1)};
  inference.observe_path(path);
  inference.finalize();
  EXPECT_EQ(inference.owner(in_as(1, 1)), Asn(1));
  EXPECT_GT(inference.stats().labels_first, 0u);
}

TEST_F(OwnershipFixture, CustomerHeuristic) {
  // IPx, IPy announced by AS1, IPz by AS2, AS2 customer of AS1:
  // IPy sits on AS2's border router (provider-assigned space).
  OwnershipInference inference(rib_, rels_);
  const std::vector<IPAddr> path{in_as(1, 1), in_as(1, 2), in_as(2, 1)};
  inference.observe_path(path);
  inference.finalize();
  EXPECT_GT(inference.stats().labels_customer, 0u);
  // IPy has candidates {AS1 via first, AS2 via customer}; the most
  // frequent label is `first`, so the election keeps AS1... unless only
  // one heuristic fired. Verify at least that AS2 was a candidate by
  // checking the stats; the elected owner must be defined.
  EXPECT_TRUE(inference.owner(in_as(1, 2)).has_value());
}

TEST_F(OwnershipFixture, ProviderHeuristic) {
  // IPx in AS2 (customer), IPy in AS1 (provider of AS2): IPy is on the
  // provider's customer-facing router.
  OwnershipInference inference(rib_, rels_);
  const std::vector<IPAddr> path{in_as(2, 5), in_as(1, 9)};
  inference.observe_path(path);
  inference.finalize();
  EXPECT_GT(inference.stats().labels_provider, 0u);
  EXPECT_EQ(inference.owner(in_as(1, 9)), Asn(1));
}

TEST_F(OwnershipFixture, NoIp2AsHeuristic) {
  OwnershipInference inference(rib_, rels_);
  const IPAddr unmapped(IPv4Addr(172, 16, 0, 1));
  const std::vector<IPAddr> path{in_as(1, 1), unmapped, in_as(1, 2)};
  inference.observe_path(path);
  inference.finalize();
  EXPECT_GT(inference.stats().labels_noip2as, 0u);
  EXPECT_EQ(inference.owner(unmapped), Asn(1));
}

TEST_F(OwnershipFixture, BackHeuristicPropagates) {
  OwnershipInference inference(rib_, rels_);
  // x1, x2 get `first` labels for AS1 on links into y; x3 (also AS1
  // space) is seen only as the tail of a path, so no pair labels it.
  inference.observe_path(std::vector<IPAddr>{in_as(1, 11), in_as(1, 77)});
  inference.observe_path(std::vector<IPAddr>{in_as(1, 12), in_as(1, 77)});
  inference.observe_path(std::vector<IPAddr>{in_as(5, 1), in_as(1, 13), in_as(1, 77)});
  // in_as(1,13) got a label from its own pair (1,13)->(1,77). Use a colder
  // x3: a hop whose only appearance is x3 -> y with y unmapped... instead
  // verify the mechanism with an x3 whose outgoing pair heuristic cannot
  // fire because the next hop maps to a different AS with no relationship.
  inference.observe_path(std::vector<IPAddr>{in_as(4, 3), in_as(1, 77)});
  inference.finalize();
  // x3 = in_as(4,3): mapped to AS4, so `first` cannot fire (next hop AS1),
  // no relationship between AS4 and AS1 -> provider heuristic silent.
  // back requires ASi (=AS1) to announce x3 -> AS4 != AS1, so x3 stays
  // unlabeled. This asserts back does NOT overreach.
  EXPECT_FALSE(inference.owner(in_as(4, 3)).has_value());
  EXPECT_GT(inference.stats().labels_first, 0u);
}

TEST_F(OwnershipFixture, ForwardHeuristicLabelsFanOut) {
  OwnershipInference inference(rib_, rels_);
  const IPAddr unmapped(IPv4Addr(172, 16, 9, 9));
  // y1, y2 in AS3 get labels via `first` (their own outgoing pairs).
  inference.observe_path(std::vector<IPAddr>{unmapped, in_as(3, 1), in_as(3, 100)});
  inference.observe_path(std::vector<IPAddr>{unmapped, in_as(3, 2), in_as(3, 100)});
  inference.finalize();
  // unmapped has out-links to y1, y2, both mapped to AS3 and labeled.
  EXPECT_GT(inference.stats().labels_forward, 0u);
  EXPECT_EQ(inference.owner(unmapped), Asn(3));
}

TEST_F(OwnershipFixture, ElectionPrefersFirstOnConflict) {
  OwnershipInference inference(rib_, rels_);
  // in_as(1,2) receives `first` (AS1) twice via two different next hops
  // inside AS1, and `customer` (AS2) once.
  inference.observe_path(std::vector<IPAddr>{in_as(1, 1), in_as(1, 2), in_as(2, 1)});
  inference.observe_path(std::vector<IPAddr>{in_as(1, 2), in_as(1, 50)});
  inference.finalize();
  EXPECT_EQ(inference.owner(in_as(1, 2)), Asn(1));
}

TEST_F(OwnershipFixture, DistinctTriplesWithCollidingHashKeysAreBothLabelled) {
  // Two noip2as windows through different unmapped hops, chosen so that
  // the hash-combined key (h(x) * 1000003) ^ (h(y) * 31) ^ h(z) is the
  // same for both: deduplicating windows by such a key skipped the
  // second one and left its hop unlabelled.
  const IPAddr x = in_as(1, 1);
  const IPAddr y1(IPv4Addr(172, 16, 0, 1));
  const IPAddr y2(IPv4Addr(172, 16, 0, 2));
  const IPAddr z1 = in_as(1, 2);
  const IPAddr z2 = in_as(1, 35);
  const auto lossy_key = [](const IPAddr& a, const IPAddr& b,
                            const IPAddr& c) {
    const std::hash<IPAddr> h;
    return (std::uint64_t{h(a)} * 1000003) ^ (std::uint64_t{h(b)} * 31) ^
           std::uint64_t{h(c)};
  };
  ASSERT_EQ(lossy_key(x, y1, z1), lossy_key(x, y2, z2));

  OwnershipInference inference(rib_, rels_);
  inference.observe_path(std::vector<IPAddr>{x, y1, z1});
  inference.observe_path(std::vector<IPAddr>{x, y2, z2});
  inference.finalize();
  EXPECT_EQ(inference.stats().labels_noip2as, 2u);
  EXPECT_EQ(inference.owner(y1), Asn(1));
  EXPECT_EQ(inference.owner(y2), Asn(1));
}

TEST(IxpDirectory, MatchesPrefixes) {
  IxpDirectory dir;
  dir.add(*net::Prefix4::parse("176.0.0.0/16"));
  dir.add(*net::Prefix6::parse("2001:7f8::/48"));
  EXPECT_TRUE(dir.contains(*net::IPAddr::parse("176.0.1.2")));
  EXPECT_FALSE(dir.contains(*net::IPAddr::parse("176.1.0.1")));
  EXPECT_TRUE(dir.contains(*net::IPAddr::parse("2001:7f8::5")));
  EXPECT_FALSE(dir.contains(*net::IPAddr::parse("2001:7f9::5")));
}

class ClassifyFixture : public OwnershipFixture {
 protected:
  ClassifyFixture() {
    inference_ = std::make_unique<OwnershipInference>(rib_, rels_);
    // Build owners: AS1 internal pair, AS1->AS2 c2p link, AS1->AS3 p2p.
    inference_->observe_path(std::vector<IPAddr>{in_as(1, 1), in_as(1, 2), in_as(1, 3)});
    inference_->observe_path(std::vector<IPAddr>{in_as(2, 5), in_as(1, 9)});   // provider label
    inference_->observe_path(std::vector<IPAddr>{in_as(3, 5), in_as(3, 6)});   // first label
    inference_->finalize();
    ixps_.add(*net::Prefix4::parse("176.0.0.0/16"));
    classifier_ = std::make_unique<LinkClassifier>(*inference_, rels_, ixps_);
  }
  std::unique_ptr<OwnershipInference> inference_;
  IxpDirectory ixps_;
  std::unique_ptr<LinkClassifier> classifier_;
};

TEST_F(ClassifyFixture, InternalLink) {
  const auto cls = classifier_->classify(in_as(1, 1), in_as(1, 2));
  EXPECT_EQ(cls.kind, LinkKind::kInternal);
}

TEST_F(ClassifyFixture, InterconnectionC2p) {
  // near owned by AS3 (peer of AS1)? Use AS3->AS1 pair: owner(in_as(3,5))
  // = AS3 via first; owner(in_as(1,9)) = AS1 via provider.
  const auto cls = classifier_->classify(in_as(3, 5), in_as(1, 9));
  EXPECT_EQ(cls.kind, LinkKind::kInterconnection);
  EXPECT_EQ(cls.rel, InterconnRel::kP2P);  // AS3-AS1 are peers
}

TEST_F(ClassifyFixture, UnknownWithoutOwners) {
  const auto cls = classifier_->classify(std::nullopt, in_as(1, 1));
  EXPECT_EQ(cls.kind, LinkKind::kUnknown);
  const auto cls2 =
      classifier_->classify(in_as(4, 1), in_as(5, 1));  // never observed
  EXPECT_EQ(cls2.kind, LinkKind::kUnknown);
}

}  // namespace
}  // namespace s2s::core
