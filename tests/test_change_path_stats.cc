#include <gtest/gtest.h>

#include "core/change_detect.h"
#include "core/path_stats.h"

namespace s2s::core {
namespace {

using net::Asn;
using net::AsPath;

TEST(EditDistance, PaperExample) {
  // Paper Section 4.1: p1 = a b c d, p2 = a b d => distance 1.
  const AsPath p1{Asn(1), Asn(2), Asn(3), Asn(4)};
  const AsPath p2{Asn(1), Asn(2), Asn(4)};
  EXPECT_EQ(edit_distance(p1, p2), 1);
  EXPECT_EQ(edit_distance(p2, p1), 1);
}

TEST(EditDistance, BasicCases) {
  const AsPath a{Asn(1), Asn(2), Asn(3)};
  EXPECT_EQ(edit_distance(a, a), 0);
  EXPECT_EQ(edit_distance(a, {}), 3);
  EXPECT_EQ(edit_distance({}, a), 3);
  EXPECT_EQ(edit_distance(a, AsPath{Asn(1), Asn(9), Asn(3)}), 1);  // subst
  EXPECT_EQ(edit_distance(a, AsPath{Asn(9), Asn(8), Asn(7)}), 3);
  EXPECT_EQ(edit_distance(a, AsPath{Asn(3), Asn(2), Asn(1)}), 2);
}

TEST(EditDistance, TriangleInequalitySpotCheck) {
  const AsPath x{Asn(1), Asn(2)};
  const AsPath y{Asn(1), Asn(3), Asn(2)};
  const AsPath z{Asn(4), Asn(3), Asn(2)};
  EXPECT_LE(edit_distance(x, z),
            edit_distance(x, y) + edit_distance(y, z));
}

// Builds a timeline from a path-id sequence (all RTTs 100 ms, each epoch
// consecutive).
TraceTimeline make_timeline(PathInterner& interner,
                            const std::vector<AsPath>& paths,
                            const std::vector<int>& sequence,
                            const std::vector<double>& rtts = {}) {
  TraceTimeline timeline;
  for (const AsPath& p : paths) {
    timeline.local_paths.push_back(interner.intern(p));
  }
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    Observation o;
    o.epoch = static_cast<std::uint16_t>(i);
    o.path = static_cast<std::uint16_t>(sequence[i]);
    const double rtt = rtts.empty() ? 100.0 : rtts[i];
    o.rtt_tenths = static_cast<std::uint16_t>(rtt * 10.0);
    timeline.obs.push_back(o);
  }
  return timeline;
}

TEST(DetectChanges, FindsTransitionsWithDistances) {
  PathInterner interner;
  const AsPath p0{Asn(1), Asn(2), Asn(3)};
  const AsPath p1{Asn(1), Asn(5), Asn(3)};
  const auto timeline = make_timeline(interner, {p0, p1}, {0, 0, 1, 1, 0});
  const auto events = detect_changes(timeline, interner);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].epoch, 2);
  EXPECT_EQ(events[0].distance, 1);
  EXPECT_EQ(events[1].epoch, 4);
}

TEST(DetectChanges, NoChangesOnStableTimeline) {
  PathInterner interner;
  const auto timeline =
      make_timeline(interner, {AsPath{Asn(1)}}, {0, 0, 0, 0});
  EXPECT_TRUE(detect_changes(timeline, interner).empty());
}

TEST(AnalyzeTimeline, BucketsLifetimesAndPrevalence) {
  PathInterner interner;
  const AsPath p0{Asn(1), Asn(2)};
  const AsPath p1{Asn(1), Asn(3), Asn(2)};
  // 6 observations on p0 at 100ms, 2 on p1 at 150ms; 3-hour interval.
  const auto timeline = make_timeline(
      interner, {p0, p1}, {0, 0, 0, 1, 1, 0, 0, 0},
      {100, 100, 100, 150, 150, 100, 100, 100});
  const auto analysis = analyze_timeline(timeline, 3.0);
  ASSERT_EQ(analysis.buckets.size(), 2u);
  EXPECT_EQ(analysis.observations, 8u);
  EXPECT_EQ(analysis.changes, 2u);
  const auto& b0 = analysis.buckets[0];
  EXPECT_EQ(b0.count, 6u);
  EXPECT_DOUBLE_EQ(b0.lifetime_hours, 18.0);
  EXPECT_DOUBLE_EQ(b0.prevalence, 0.75);
  EXPECT_NEAR(b0.p10, 100.0, 1e-9);
  EXPECT_EQ(analysis.most_prevalent(), 0u);
  EXPECT_EQ(analysis.best(BestPathCriterion::kP10), 0u);
  // p1's 10th percentile is 150 -> suboptimal by 50 ms.
  EXPECT_NEAR(analysis.buckets[1].p10 - b0.p10, 50.0, 1e-9);
}

TEST(AnalyzeTimeline, BestByDifferentCriteriaCanDiffer) {
  PathInterner interner;
  const AsPath p0{Asn(1)};
  const AsPath p1{Asn(2)};
  // p0: low baseline, huge spikes. p1: higher baseline, steady.
  std::vector<int> seq;
  std::vector<double> rtts;
  for (int i = 0; i < 10; ++i) {
    seq.push_back(0);
    rtts.push_back(i < 8 ? 50.0 : 500.0);
  }
  for (int i = 0; i < 10; ++i) {
    seq.push_back(1);
    rtts.push_back(80.0);
  }
  const auto timeline = make_timeline(interner, {p0, p1}, seq, rtts);
  const auto analysis = analyze_timeline(timeline, 3.0);
  EXPECT_EQ(analysis.best(BestPathCriterion::kP10), 0u);
  EXPECT_EQ(analysis.best(BestPathCriterion::kP90), 1u);
  EXPECT_EQ(analysis.best(BestPathCriterion::kStddev), 1u);
}

TEST(AnalyzeTimeline, EmptyTimeline) {
  const TraceTimeline timeline;
  const auto analysis = analyze_timeline(timeline, 3.0);
  EXPECT_TRUE(analysis.buckets.empty());
  EXPECT_EQ(analysis.observations, 0u);
}

TEST(PathInterner, DeduplicatesAndRetrieves) {
  PathInterner interner;
  const AsPath p{Asn(1), Asn(2)};
  const auto id1 = interner.intern(p);
  const auto id2 = interner.intern(p);
  const auto id3 = interner.intern(AsPath{Asn(2), Asn(1)});
  EXPECT_EQ(id1, id2);
  EXPECT_NE(id1, id3);
  EXPECT_EQ(interner.path(id1), p);
  EXPECT_EQ(interner.size(), 2u);
}

}  // namespace
}  // namespace s2s::core
