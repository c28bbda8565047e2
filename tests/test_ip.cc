#include "net/ip.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

namespace s2s::net {
namespace {

TEST(IPv4Addr, ParsesDottedQuad) {
  const auto a = IPv4Addr::parse("192.0.2.17");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value(), 0xC0000211u);
  EXPECT_EQ(a->to_string(), "192.0.2.17");
}

TEST(IPv4Addr, ParsesBoundaries) {
  EXPECT_EQ(IPv4Addr::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(IPv4Addr::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(IPv4Addr, RejectsMalformed) {
  EXPECT_FALSE(IPv4Addr::parse(""));
  EXPECT_FALSE(IPv4Addr::parse("1.2.3"));
  EXPECT_FALSE(IPv4Addr::parse("1.2.3.4.5"));
  EXPECT_FALSE(IPv4Addr::parse("256.0.0.1"));
  EXPECT_FALSE(IPv4Addr::parse("1.2.3.x"));
  EXPECT_FALSE(IPv4Addr::parse("01.2.3.4"));  // ambiguous leading zero
  EXPECT_FALSE(IPv4Addr::parse("1..2.3"));
  EXPECT_FALSE(IPv4Addr::parse(" 1.2.3.4"));
  EXPECT_FALSE(IPv4Addr::parse("1.2.3.4 "));
}

TEST(IPv4Addr, OrderingMatchesNumericValue) {
  EXPECT_LT(IPv4Addr(1, 2, 3, 4), IPv4Addr(1, 2, 3, 5));
  EXPECT_LT(IPv4Addr(9, 255, 255, 255), IPv4Addr(10, 0, 0, 0));
}

TEST(IPv6Addr, ParsesFullForm) {
  const auto a = IPv6Addr::parse("2001:db8:0:0:0:0:0:1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->hi(), 0x20010db800000000ULL);
  EXPECT_EQ(a->lo(), 1u);
}

TEST(IPv6Addr, ParsesCompressedForm) {
  const auto a = IPv6Addr::parse("2001:db8::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->hi(), 0x20010db800000000ULL);
  EXPECT_EQ(a->lo(), 1u);
  EXPECT_EQ(IPv6Addr::parse("::")->hi(), 0u);
  EXPECT_EQ(IPv6Addr::parse("::")->lo(), 0u);
  EXPECT_EQ(IPv6Addr::parse("::1")->lo(), 1u);
  EXPECT_EQ(IPv6Addr::parse("fe80::")->hi(), 0xfe80000000000000ULL);
}

TEST(IPv6Addr, RejectsMalformed) {
  EXPECT_FALSE(IPv6Addr::parse(""));
  EXPECT_FALSE(IPv6Addr::parse(":::"));
  EXPECT_FALSE(IPv6Addr::parse("1:2:3:4:5:6:7"));       // too short, no gap
  EXPECT_FALSE(IPv6Addr::parse("1:2:3:4:5:6:7:8:9"));   // too long
  EXPECT_FALSE(IPv6Addr::parse("1::2::3"));             // two gaps
  EXPECT_FALSE(IPv6Addr::parse("12345::"));             // group too wide
  EXPECT_FALSE(IPv6Addr::parse("g::1"));                // bad hex
}

// RFC 5952 canonical text: longest zero run compressed, lower case.
struct V6Case {
  const char* input;
  const char* canonical;
};
// Prints a case as its input text. Without this gtest prints the raw bytes
// of the two pointers, and the test names ctest takes from that output
// change on every build and every run.
void PrintTo(const V6Case& c, std::ostream* os) { *os << c.input; }
class IPv6Canonical : public ::testing::TestWithParam<V6Case> {};

TEST_P(IPv6Canonical, RoundTrips) {
  const auto& c = GetParam();
  const auto a = IPv6Addr::parse(c.input);
  ASSERT_TRUE(a.has_value()) << c.input;
  EXPECT_EQ(a->to_string(), c.canonical);
  // Canonical text parses back to the same address.
  const auto b = IPv6Addr::parse(a->to_string());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc5952, IPv6Canonical,
    ::testing::Values(
        V6Case{"2001:db8:0:0:0:0:0:1", "2001:db8::1"},
        V6Case{"2001:0db8:0000:0001:0000:0000:0000:0001", "2001:db8:0:1::1"},
        V6Case{"0:0:0:0:0:0:0:0", "::"},
        V6Case{"0:0:0:0:0:0:0:1", "::1"},
        V6Case{"1:0:0:2:0:0:0:3", "1:0:0:2::3"},   // longest run wins
        V6Case{"fe80:0:0:0:1:0:0:1", "fe80::1:0:0:1"},
        V6Case{"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8"},
        V6Case{"0:1:0:1:0:1:0:1", "0:1:0:1:0:1:0:1"}));  // no run >= 2

TEST(IPAddr, DispatchesByFamily) {
  const auto v4 = IPAddr::parse("10.1.2.3");
  const auto v6 = IPAddr::parse("2001:db8::42");
  ASSERT_TRUE(v4 && v6);
  EXPECT_TRUE(v4->is_v4());
  EXPECT_TRUE(v6->is_v6());
  EXPECT_EQ(v4->family(), Family::kIPv4);
  EXPECT_EQ(v6->family(), Family::kIPv6);
  EXPECT_EQ(v4->to_string(), "10.1.2.3");
  EXPECT_EQ(v6->to_string(), "2001:db8::42");
}

TEST(IPAddr, HashDistinguishesAddresses) {
  std::unordered_set<IPAddr> set;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    set.insert(IPAddr(IPv4Addr(i)));
    set.insert(IPAddr(IPv6Addr::from_halves(0x2001, i)));
  }
  EXPECT_EQ(set.size(), 2000u);
}

TEST(IPAddr, TotalOrderIsStrict) {
  std::set<IPAddr> set{IPAddr(IPv4Addr(5)), IPAddr(IPv4Addr(1)),
                       IPAddr(IPv6Addr::from_halves(0, 1))};
  EXPECT_EQ(set.size(), 3u);
}

}  // namespace
}  // namespace s2s::net
