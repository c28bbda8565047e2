#include "io/records_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "core/timeline.h"
#include "faultsim/line_mangler.h"
#include "obs/log.h"
#include "probe/campaign.h"

namespace s2s::io {
namespace {

probe::TracerouteRecord sample_trace() {
  probe::TracerouteRecord rec;
  rec.src = 3;
  rec.dst = 9;
  rec.family = net::Family::kIPv4;
  rec.time = net::SimTime(123456);
  rec.method = probe::TracerouteMethod::kParis;
  rec.complete = true;
  rec.src_addr = *net::IPAddr::parse("1.2.0.5");
  rec.dst_addr = *net::IPAddr::parse("1.9.0.7");
  rec.hops.push_back({*net::IPAddr::parse("1.2.0.99"), 0.512});
  rec.hops.push_back({std::nullopt, 0.0});
  rec.hops.push_back({*net::IPAddr::parse("1.9.0.7"), 42.125});
  return rec;
}

TEST(RecordsIo, TracerouteRoundTrip) {
  const auto rec = sample_trace();
  const auto parsed = parse_traceroute(to_line(rec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, rec.src);
  EXPECT_EQ(parsed->dst, rec.dst);
  EXPECT_EQ(parsed->family, rec.family);
  EXPECT_EQ(parsed->time, rec.time);
  EXPECT_EQ(parsed->method, rec.method);
  EXPECT_EQ(parsed->complete, rec.complete);
  EXPECT_EQ(parsed->src_addr, rec.src_addr);
  EXPECT_EQ(parsed->dst_addr, rec.dst_addr);
  ASSERT_EQ(parsed->hops.size(), 3u);
  EXPECT_EQ(*parsed->hops[0].addr, *rec.hops[0].addr);
  EXPECT_NEAR(parsed->hops[0].rtt_ms, 0.512, 1e-9);
  EXPECT_FALSE(parsed->hops[1].addr.has_value());
  EXPECT_NEAR(parsed->hops[2].rtt_ms, 42.125, 1e-9);
}

TEST(RecordsIo, TracerouteV6RoundTrip) {
  auto rec = sample_trace();
  rec.family = net::Family::kIPv6;
  rec.src_addr = *net::IPAddr::parse("2001:db8::1");
  rec.dst_addr = *net::IPAddr::parse("2001:db8::2");
  rec.hops = {{*net::IPAddr::parse("2001:7f8::9"), 7.5}};
  const auto parsed = parse_traceroute(to_line(rec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_addr.to_string(), "2001:db8::1");
  EXPECT_EQ(*parsed->hops[0].addr, *net::IPAddr::parse("2001:7f8::9"));
}

TEST(RecordsIo, PingRoundTrip) {
  probe::PingRecord rec;
  rec.src = 1;
  rec.dst = 2;
  rec.family = net::Family::kIPv6;
  rec.time = net::SimTime(999);
  rec.success = true;
  rec.rtt_ms = 83.25;
  const auto parsed = parse_ping(to_line(rec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, 1u);
  EXPECT_EQ(parsed->family, net::Family::kIPv6);
  EXPECT_TRUE(parsed->success);
  EXPECT_NEAR(parsed->rtt_ms, 83.25, 1e-9);
}

TEST(RecordsIo, RejectsMalformedLines) {
  EXPECT_FALSE(parse_traceroute(""));
  EXPECT_FALSE(parse_traceroute("T\t1\t2"));
  EXPECT_FALSE(parse_traceroute("P\t1\t2\t4\t0\t1\t5.0"));
  EXPECT_FALSE(parse_ping("P\t1\t2\t4\t0\t1"));
  EXPECT_FALSE(parse_ping("P\t1\t2\t5\t0\t1\t5.0"));  // bad family
  EXPECT_FALSE(parse_ping("P\t1\t2\t4\t0\t2\t5.0"));  // bad success flag
  // Truncated hop field (the "@rtt" suffix of the last hop lost).
  auto line = to_line(sample_trace());
  line.resize(line.size() - 7);
  EXPECT_FALSE(parse_traceroute(line));
}

TEST(RecordsIo, WriterReaderStream) {
  std::stringstream buffer;
  RecordWriter writer(buffer);
  writer.write(sample_trace());
  probe::PingRecord ping;
  ping.src = 4;
  ping.dst = 5;
  ping.success = true;
  ping.rtt_ms = 10.0;
  writer.write(ping);
  buffer << "garbage line\n";
  EXPECT_EQ(writer.written(), 2u);

  RecordReader reader(buffer);
  std::size_t traces = 0, pings = 0;
  reader.read_all([&](const probe::TracerouteRecord&) { ++traces; },
                  [&](const probe::PingRecord&) { ++pings; });
  EXPECT_EQ(traces, 1u);
  EXPECT_EQ(pings, 1u);
  EXPECT_EQ(reader.errors(), 1u);
}

TEST(RecordsIo, CampaignRoundTripPreservesAnalysis) {
  // Write a small campaign to text, read it back, and verify the replayed
  // records reproduce the same Table 1 accounting.
  simnet::NetworkConfig cfg;
  cfg.topology.seed = 77;
  cfg.topology.tier1_count = 5;
  cfg.topology.transit_count = 20;
  cfg.topology.stub_count = 60;
  cfg.topology.server_count = 20;
  simnet::Network net(cfg);
  std::vector<std::pair<topology::ServerId, topology::ServerId>> pairs{
      {0, 5}, {2, 9}, {4, 12}};
  probe::TracerouteCampaignConfig campaign_cfg;
  campaign_cfg.days = 3.0;
  probe::TracerouteCampaign campaign(net, campaign_cfg, pairs);

  std::stringstream buffer;
  RecordWriter writer(buffer);
  core::TimelineStore direct(net.topo(), net.rib(), {0.0, net::kThreeHours});
  campaign.run([&](const probe::TracerouteRecord& r) {
    writer.write(r);
    direct.add(r);
  });

  core::TimelineStore replayed(net.topo(), net.rib(),
                               {0.0, net::kThreeHours});
  RecordReader reader(buffer);
  reader.read_all([&](const probe::TracerouteRecord& r) { replayed.add(r); },
                  [](const probe::PingRecord&) {});
  EXPECT_EQ(reader.errors(), 0u);
  EXPECT_EQ(replayed.table1().v4.collected, direct.table1().v4.collected);
  EXPECT_EQ(replayed.table1().v4.complete_as, direct.table1().v4.complete_as);
  EXPECT_EQ(replayed.table1().v6.missing_ip, direct.table1().v6.missing_ip);
  EXPECT_EQ(replayed.timeline_count(), direct.timeline_count());
}

TEST(RecordsIo, RejectsPathologicalPingNumerics) {
  // Baseline: the well-formed variant parses.
  EXPECT_TRUE(parse_ping("P\t1\t2\t4\t100\t1\t5.0"));
  // RTT: NaN, infinities, negative, implausibly large.
  EXPECT_FALSE(parse_ping("P\t1\t2\t4\t100\t1\tnan"));
  EXPECT_FALSE(parse_ping("P\t1\t2\t4\t100\t1\tinf"));
  EXPECT_FALSE(parse_ping("P\t1\t2\t4\t100\t1\t-inf"));
  EXPECT_FALSE(parse_ping("P\t1\t2\t4\t100\t1\t-3.0"));
  EXPECT_FALSE(parse_ping("P\t1\t2\t4\t100\t1\t1e9"));
  // Timestamp: negative or beyond the representable campaign range.
  EXPECT_FALSE(parse_ping("P\t1\t2\t4\t-5\t1\t5.0"));
  EXPECT_FALSE(parse_ping("P\t1\t2\t4\t9999999999999\t1\t5.0"));
}

TEST(RecordsIo, RejectsPathologicalTracerouteNumerics) {
  const std::string prefix = "T\t1\t2\t4\t100\tparis\t1\t1.2.0.5\t1.9.0.7\t";
  EXPECT_TRUE(parse_traceroute(prefix + "1.2.0.99@5.0"));
  EXPECT_FALSE(parse_traceroute(prefix + "1.2.0.99@nan"));
  EXPECT_FALSE(parse_traceroute(prefix + "1.2.0.99@inf"));
  EXPECT_FALSE(parse_traceroute(prefix + "1.2.0.99@-1.0"));
  EXPECT_FALSE(parse_traceroute(prefix + "1.2.0.99@1e9"));
  // One bad hop poisons the record even when other hops are fine.
  EXPECT_FALSE(parse_traceroute(prefix + "1.2.0.99@5.0,1.9.0.7@nan"));
  // Timestamp range.
  EXPECT_FALSE(parse_traceroute(
      "T\t1\t2\t4\t-100\tparis\t1\t1.2.0.5\t1.9.0.7\t*"));
  EXPECT_FALSE(parse_traceroute(
      "T\t1\t2\t4\t9999999999999\tparis\t1\t1.2.0.5\t1.9.0.7\t*"));
}

TEST(RecordsIo, ReaderRetainsFirstMalformedLinesWithNumbers) {
  std::stringstream buffer;
  buffer << std::string(500, 'x') << "\n";         // line 1: malformed, long
  buffer << to_line(sample_trace()) << "\n";       // line 2: fine
  buffer << "T\tbroken\n";                         // line 3: malformed
  buffer << "\n";                                  // line 4: empty, no error
  buffer << "P\tnot\ta\tping\n";                   // line 5: malformed
  buffer << to_line(sample_trace()) << "\n";       // line 6: fine

  RecordReader reader(buffer, 2);  // retain at most two samples
  std::size_t traces = 0;
  reader.read_all([&](const probe::TracerouteRecord&) { ++traces; },
                  [](const probe::PingRecord&) {});
  EXPECT_EQ(traces, 2u);
  EXPECT_EQ(reader.lines(), 6u);
  EXPECT_EQ(reader.errors(), 3u);
  ASSERT_EQ(reader.malformed().size(), 2u);  // cap respected
  EXPECT_EQ(reader.malformed()[0].line_number, 1u);
  EXPECT_EQ(reader.malformed()[0].text.size(),
            RecordReader::kMaxSampleLength);  // long line truncated
  EXPECT_EQ(reader.malformed()[1].line_number, 3u);
  EXPECT_EQ(reader.malformed()[1].text, "T\tbroken");
}

TEST(RecordsIo, MalformedRetainedDroppedSplitExported) {
  obs::set_log_level(obs::LogLevel::kOff);  // silence per-line warns

  std::stringstream buffer;
  for (int i = 0; i < 5; ++i) buffer << "T\tbroken" << i << "\n";
  buffer << to_line(sample_trace()) << "\n";

  RecordReader reader(buffer, 2);  // retain at most two samples
  std::size_t traces = 0;
  reader.read_all([&](const probe::TracerouteRecord&) { ++traces; },
                  [](const probe::PingRecord&) {});
  obs::set_log_level(obs::LogLevel::kInfo);

  EXPECT_EQ(traces, 1u);
  EXPECT_EQ(reader.errors(), 5u);
  EXPECT_EQ(reader.malformed_retained(), 2u);
  EXPECT_EQ(reader.malformed_dropped(), 3u);

  EXPECT_EQ(reader.parsed(), 1u);

  std::map<std::string, std::uint64_t> counters;
  reader.export_metrics(counters);
  const std::map<std::string, std::uint64_t> want = {
      {"s2s.io.records_parsed", 1},
      {"s2s.io.malformed_retained", 2},
      {"s2s.io.malformed_dropped", 3}};
  EXPECT_EQ(counters, want);
}

TEST(RecordsIo, CorruptedLinesNeverCrashAndStayRoundTrippable) {
  // Property test: serialize real records, corrupt them every way the
  // mangler knows, and require that parsing (a) never crashes, (b) when
  // it does accept a corrupted line, re-serializing is a fixed point.
  std::vector<std::string> lines;
  lines.push_back(to_line(sample_trace()));
  {
    auto rec = sample_trace();
    rec.family = net::Family::kIPv6;
    rec.src_addr = *net::IPAddr::parse("2001:db8::1");
    rec.dst_addr = *net::IPAddr::parse("2001:db8::2");
    rec.hops = {{*net::IPAddr::parse("2001:7f8::9"), 7.5},
                {std::nullopt, 0.0}};
    lines.push_back(to_line(rec));
  }
  {
    probe::PingRecord ping;
    ping.src = 4;
    ping.dst = 5;
    ping.time = net::SimTime(7777);
    ping.success = true;
    ping.rtt_ms = 10.125;
    lines.push_back(to_line(ping));
  }

  std::size_t parsed_corrupted = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    faultsim::LineMangler mangler({seed, 1.0});
    for (const auto& line : lines) {
      const auto mangled = mangler.mangle(line);
      if (const auto t = parse_traceroute(mangled)) {
        const auto s1 = to_line(*t);
        const auto again = parse_traceroute(s1);
        ASSERT_TRUE(again.has_value()) << s1;
        EXPECT_EQ(to_line(*again), s1);
        ++parsed_corrupted;
      }
      if (const auto p = parse_ping(mangled)) {
        const auto s1 = to_line(*p);
        const auto again = parse_ping(s1);
        ASSERT_TRUE(again.has_value()) << s1;
        EXPECT_EQ(to_line(*again), s1);
        ++parsed_corrupted;
      }
    }
  }
  // Corruption overwhelmingly yields rejects; survivors are the point of
  // the round-trip check, so make sure some existed (byte flips in an RTT
  // digit, for example, still parse).
  EXPECT_GT(parsed_corrupted, 0u);
}

}  // namespace
}  // namespace s2s::io
