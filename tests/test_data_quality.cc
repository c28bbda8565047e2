#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/data_quality.h"
#include "core/segment_series.h"
#include "stats/rng.h"

namespace s2s::core {
namespace {

/// Reference model of the window: a FIFO of the last `capacity` distinct
/// fingerprints plus a set for membership.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(std::size_t capacity) : capacity_(capacity) {}
  bool seen_or_insert(std::uint64_t fp) {
    if (members_.contains(fp)) return true;
    if (fifo_.size() == capacity_) {
      members_.erase(fifo_.front());
      fifo_.pop_front();
    }
    fifo_.push_back(fp);
    members_.insert(fp);
    return false;
  }

 private:
  std::size_t capacity_;
  std::deque<std::uint64_t> fifo_;
  std::set<std::uint64_t> members_;
};

TEST(DedupWindow, MatchesReferenceModel) {
  for (const std::size_t capacity : {1u, 2u, 7u, 4096u}) {
    stats::Rng rng(0xd0d0 + capacity);
    DedupWindow window(capacity);
    ReferenceWindow ref(capacity);
    std::vector<std::uint64_t> recent;
    for (int i = 0; i < 60000; ++i) {
      std::uint64_t fp;
      const double pick = rng.uniform();
      if (pick < 0.05) {
        fp = 0;  // a legal fingerprint, not an empty-slot marker
      } else if (pick < 0.45 && !recent.empty()) {
        // Near repeat: something from roughly one window back.
        const std::size_t back = rng.below(
            std::min<std::size_t>(recent.size(), 2 * capacity + 2));
        fp = recent[recent.size() - 1 - back];
      } else if (pick < 0.75) {
        // Clustered low bits: equal under any low-bit table index.
        fp = rng.below(64) << 40;
      } else {
        fp = rng.below(3 * capacity + 8);
      }
      recent.push_back(fp);
      ASSERT_EQ(window.seen_or_insert(fp), ref.seen_or_insert(fp))
          << "capacity " << capacity << " op " << i << " fp " << fp;
    }
  }
}

// One admission sequence, checked verdict by verdict. The gate's order
// shows in the counters: a duplicate that is also off-grid counts only as
// a duplicate, an off-grid record leaves the watermark where it was, and
// an invalid record advances it.
TEST(IngestGate, AdmitsInDedupGridReorderValidityOrder) {
  struct Step {
    std::uint64_t fp;
    std::int64_t epoch;
    bool valid;
    bool admitted;
    DataQualityReport after;  // duplicates, out_of_grid, reordered, invalid
  };
  const auto counts = [](std::size_t dup, std::size_t grid,
                         std::size_t reorder, std::size_t invalid) {
    DataQualityReport q;
    q.duplicates_dropped = dup;
    q.out_of_grid = grid;
    q.reordered = reorder;
    q.invalid_rtt = invalid;
    return q;
  };
  const std::vector<Step> steps = {
      {1, 0, true, true, counts(0, 0, 0, 0)},
      {2, 5, true, true, counts(0, 0, 0, 0)},
      {3, 3, true, true, counts(0, 0, 1, 0)},     // behind epoch 5
      {1, 20, true, false, counts(1, 0, 1, 0)},   // duplicate and off-grid
      {4, 12, true, false, counts(1, 1, 1, 0)},   // off-grid: watermark stays 5
      {5, 7, true, true, counts(1, 1, 1, 0)},     // not behind 5
      {6, 9, false, false, counts(1, 1, 1, 1)},   // invalid: watermark to 9
      {7, 8, true, true, counts(1, 1, 2, 1)},     // behind 9
      {8, -1, true, false, counts(1, 2, 2, 1)},   // before the grid
      {6, 9, false, false, counts(2, 2, 2, 1)},   // an invalid one was seen
      {0, 9, true, true, counts(2, 2, 2, 1)},     // fingerprint 0 is legal
      {0, 9, true, false, counts(3, 2, 2, 1)},
  };
  IngestGate gate("test_ingest_gate");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    EXPECT_EQ(gate.admit(s.fp, s.epoch, 10, s.valid), s.admitted)
        << "step " << i;
    EXPECT_EQ(gate.quality().as_map(), s.after.as_map()) << "step " << i;
  }
  gate.drop_duplicate();
  EXPECT_EQ(gate.quality().duplicates_dropped, 4u);

  // The gate's typed counts are what it exports, under the store's
  // metric names; the accepted count is the store's to tick.
  std::map<std::string, std::uint64_t> counters;
  gate.export_metrics(counters);
  const DataQualityReport& q = gate.quality();
  std::map<std::string, std::uint64_t> want = {
      {"s2s.test_ingest_gate.records", 0},
      {"s2s.test_ingest_gate.drop_duplicates", q.duplicates_dropped},
      {"s2s.test_ingest_gate.drop_out_of_grid", q.out_of_grid},
      {"s2s.test_ingest_gate.reordered", q.reordered},
      {"s2s.test_ingest_gate.drop_invalid_rtt", q.invalid_rtt}};
  EXPECT_EQ(counters, want);
  gate.accept();
  gate.accept();
  gate.export_metrics(counters);  // exports add: two owners' sums
  for (auto& [name, v] : want) v *= 2;
  want["s2s.test_ingest_gate.records"] = 2;
  EXPECT_EQ(counters, want);
}

probe::TracerouteRecord base_trace() {
  probe::TracerouteRecord r;
  r.src = 3;
  r.dst = 9;
  r.family = net::Family::kIPv6;
  r.time = net::SimTime(7 * net::kFifteenMinutes);
  r.method = probe::TracerouteMethod::kParis;
  r.complete = true;
  r.hops.push_back({*net::IPAddr::parse("2001:db8::1"), 1.25});
  r.hops.push_back({std::nullopt, 0.0});
  r.hops.push_back({*net::IPAddr::parse("2001:db8:0:9::1"), 7.5});
  return r;
}

TEST(Fingerprint, EveryTracerouteFieldCounts) {
  const probe::TracerouteRecord base = base_trace();
  const std::uint64_t fp = fingerprint(base);
  const std::vector<std::function<void(probe::TracerouteRecord&)>> edits = {
      [](auto& r) { r.src = 4; },
      [](auto& r) { r.dst = 8; },
      [](auto& r) { r.family = net::Family::kIPv4; },
      [](auto& r) { r.time = net::SimTime(r.time.seconds() + 1); },
      [](auto& r) { r.method = probe::TracerouteMethod::kClassic; },
      [](auto& r) { r.complete = false; },
      [](auto& r) { r.hops.pop_back(); },
      [](auto& r) { r.hops.push_back(r.hops.back()); },
      [](auto& r) { r.hops[0].addr = *net::IPAddr::parse("2001:db8::2"); },
      [](auto& r) { r.hops[0].addr = *net::IPAddr::parse("2001:db9::1"); },
      [](auto& r) { r.hops[0].addr = *net::IPAddr::parse("32.1.13.184"); },
      [](auto& r) { r.hops[0].addr.reset(); },
      [](auto& r) { r.hops[1].addr = *net::IPAddr::parse("::"); },
      [](auto& r) { r.hops[1].addr = *net::IPAddr::parse("0.0.0.0"); },
      [](auto& r) { r.hops[0].rtt_ms = 1.2500001; },
      [](auto& r) { r.hops[2].rtt_ms = -0.0; },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    probe::TracerouteRecord r = base;
    edits[i](r);
    EXPECT_NE(fingerprint(r), fp) << "edit " << i;
  }
  EXPECT_EQ(fingerprint(base_trace()), fp);
}

TEST(Fingerprint, EveryPingFieldCounts) {
  probe::PingRecord base;
  base.src = 3;
  base.dst = 9;
  base.family = net::Family::kIPv4;
  base.time = net::SimTime(7 * net::kFifteenMinutes);
  base.rtt_ms = 20.5;
  base.success = true;
  const std::uint64_t fp = fingerprint(base);
  const std::vector<std::function<void(probe::PingRecord&)>> edits = {
      [](auto& r) { r.src = 4; },
      [](auto& r) { r.dst = 8; },
      [](auto& r) { r.family = net::Family::kIPv6; },
      [](auto& r) { r.time = net::SimTime(r.time.seconds() + 1); },
      [](auto& r) { r.success = false; },
      [](auto& r) { r.rtt_ms = 20.500001; },
      [](auto& r) { std::swap(r.src, r.dst); },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    probe::PingRecord r = base;
    edits[i](r);
    EXPECT_NE(fingerprint(r), fp) << "edit " << i;
  }
}

// Two traceroutes that differ only in one IPv6 hop are two measurements.
// These two hop addresses collide under a boost-style combine of the
// address halves (std::hash<IPv6Addr>), so the fingerprint must mix each
// half itself.
TEST(Fingerprint, DistinctIPv6HopsAreNotDuplicates) {
  probe::TracerouteRecord a = base_trace();
  probe::TracerouteRecord b = a;
  a.hops[0].addr = *net::IPAddr::parse("2001:db8:0:1::1");
  b.hops[0].addr = *net::IPAddr::parse("2001:db8:0:2:ffff:ffff:ffff:ffc0");
  EXPECT_NE(fingerprint(a), fingerprint(b));

  SegmentSeriesStore store(0.0, net::kFifteenMinutes, 16);
  store.add(a);
  store.add(b);
  EXPECT_EQ(store.quality().duplicates_dropped, 0u);
  const auto* series = store.find(a.src, a.dst, a.family);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->traces, 2u);
  EXPECT_FALSE(series->ip_static);  // the hop changed between the two
}

}  // namespace
}  // namespace s2s::core
