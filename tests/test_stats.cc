#include <gtest/gtest.h>

#include <cmath>

#include "stats/binned_ecdf.h"
#include "stats/density.h"
#include "stats/ecdf.h"
#include "stats/heatmap.h"
#include "stats/pearson.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace s2s::stats {
namespace {

TEST(Summary, QuantileLinearInterpolation) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);   // numpy type-7
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Summary, QuantileSingleElement) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 7.0);
}

TEST(Summary, QuantileUnsortedInput) {
  const std::vector<double> v{9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(median(v), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 9.0);
}

TEST(Summary, ThrowsOnEmpty) {
  EXPECT_THROW(quantile(std::vector<double>{}, 0.5), std::invalid_argument);
}

TEST(Summary, MomentsMatchHandComputation) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(stddev(v), 2.13809, 1e-4);  // n-1 denominator
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{3.0}), 0.0);
}

TEST(Summary, SummarizeAllFields) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p10, 10.9, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
}

TEST(Ecdf, StepFunctionSemantics) {
  const Ecdf e(std::vector<double>{1, 2, 2, 3});
  EXPECT_DOUBLE_EQ(e.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.at(2.0), 0.75);  // ties included
  EXPECT_DOUBLE_EQ(e.at(3.0), 1.0);
  EXPECT_DOUBLE_EQ(e.below(2.0), 0.25);
  EXPECT_DOUBLE_EQ(e.tail_at_least(2.0), 0.75);
}

TEST(Ecdf, QuantileInverse) {
  const Ecdf e(std::vector<double>{10, 20, 30, 40, 50});
  EXPECT_DOUBLE_EQ(e.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(e.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 30.0);
}

TEST(Ecdf, QuantileMatchesSharedInterpolatingConvention) {
  // Regression: the old nearest-rank formula (rank = q * size) returned
  // 3.0 for the median of {1,2,3,4}; the shared convention says 2.5.
  const Ecdf e(std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 2.5);
  // Ecdf::quantile and Summary's quantile() must agree on any input.
  Rng rng(21);
  std::vector<double> v;
  for (int i = 0; i < 257; ++i) v.push_back(rng.normal(40, 12));
  const Ecdf big(v);
  for (const double q : {0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(big.quantile(q), quantile(v, q)) << "q=" << q;
  }
}

TEST(Ecdf, CurveIsMonotone) {
  Rng rng(7);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.normal(10, 3));
  const Ecdf e(v);
  const auto curve = e.curve(50);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].x, curve[i].x);
    EXPECT_LE(curve[i - 1].f, curve[i].f);
  }
  EXPECT_DOUBLE_EQ(curve.back().f, 1.0);
}

TEST(Pearson, KnownCorrelations) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  std::vector<double> neg(x.rbegin(), x.rend());
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
  const std::vector<double> constant{3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(pearson(x, constant), 0.0);
  EXPECT_DOUBLE_EQ(pearson(x, std::vector<double>{1, 2}), 0.0);  // size mismatch
}

TEST(Pearson, ShiftAndScaleInvariant) {
  Rng rng(11);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    const double v = rng.normal();
    x.push_back(v);
    y.push_back(5.0 * v + 100.0 + rng.normal(0, 0.01));
  }
  EXPECT_GT(pearson(x, y), 0.999);
}

TEST(Histogram, DensityIntegratesToOne) {
  Histogram h(0.0, 10.0, 20);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.add(rng.uniform(0.0, 10.0));
  double integral = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) integral += h.density(b) * 0.5;
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Histogram, ClampsOutliers) {
  Histogram h(0.0, 1.0, 2);
  h.add(-5.0);
  h.add(9.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
}

TEST(Kde, RecoversGaussianShape) {
  Rng rng(5);
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.normal(50.0, 5.0));
  const auto curve = kde(v, 20.0, 80.0, 61);
  ASSERT_FALSE(curve.empty());
  // Peak near the mean.
  const auto peak = std::max_element(
      curve.begin(), curve.end(),
      [](const KdePoint& a, const KdePoint& b) { return a.density < b.density; });
  EXPECT_NEAR(peak->x, 50.0, 2.0);
  // Roughly the normal peak height 1/(sigma*sqrt(2*pi)).
  EXPECT_NEAR(peak->density, 0.0798, 0.015);
}

TEST(DecileHeatmap, PercentagesSumTo100) {
  Rng rng(9);
  std::vector<double> x, y;
  for (int i = 0; i < 2000; ++i) {
    x.push_back(rng.exponential_mean(10.0));
    y.push_back(rng.normal(0, 1));
  }
  const DecileHeatmap map(x, y);
  double total = 0.0;
  for (std::size_t yi = 0; yi < map.y_bins(); ++yi) {
    total += map.row_percent(yi);
  }
  EXPECT_NEAR(total, 100.0, 1e-6);
  EXPECT_EQ(map.total_points(), 2000u);
  // Decile binning: each row holds ~10% of points.
  for (std::size_t yi = 0; yi < map.y_bins(); ++yi) {
    EXPECT_NEAR(map.row_percent(yi), 100.0 / map.y_bins(), 3.0);
  }
}

TEST(DecileHeatmap, MergesDuplicateEdges) {
  // Half the x mass at exactly 3.0 (like the paper's 3-hour lifetime floor).
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(i < 50 ? 3.0 : static_cast<double>(i));
    y.push_back(i);
  }
  const DecileHeatmap map(x, y);
  EXPECT_LT(map.x_bins(), 10u);  // duplicate decile edges merged
  const auto& edges = map.x_edges();
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]);
  }
}

TEST(Rng, DeterministicAndDistinctStreams) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
  bool any_diff = false;
  Rng a2(42);
  for (int i = 0; i < 16; ++i) any_diff |= a2() != c();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(BinnedEcdfMerge, EmptyIntoEmptyStaysEmpty) {
  BinnedEcdf a(0.0, 10.0, 100), b(0.0, 10.0, 100);
  a.merge(b);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.total(), 0u);
}

TEST(BinnedEcdfMerge, EmptySideIsIdentity) {
  BinnedEcdf a(0.0, 10.0, 100), empty(0.0, 10.0, 100);
  a.add(1.0);
  a.add(9.0);
  const double q50_before = a.quantile(0.5);
  a.merge(empty);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), q50_before);

  BinnedEcdf into_empty(0.0, 10.0, 100);
  into_empty.merge(a);
  EXPECT_EQ(into_empty.total(), 2u);
  EXPECT_DOUBLE_EQ(into_empty.quantile(0.5), a.quantile(0.5));
}

TEST(BinnedEcdfMerge, DisjointRangesMatchBulk) {
  // Two partials covering disjoint value ranges merge to the same curve
  // a single accumulator over all samples produces.
  BinnedEcdf lowhalf(0.0, 100.0, 1000), highhalf(0.0, 100.0, 1000);
  BinnedEcdf bulk(0.0, 100.0, 1000);
  for (int i = 0; i < 50; ++i) {
    const double lo = 0.1 * i, hi = 60.0 + 0.5 * i;
    lowhalf.add(lo);
    highhalf.add(hi);
    bulk.add(lo);
    bulk.add(hi);
  }
  lowhalf.merge(highhalf);
  EXPECT_EQ(lowhalf.total(), bulk.total());
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    EXPECT_DOUBLE_EQ(lowhalf.quantile(q), bulk.quantile(q));
  }
  for (double x : {0.0, 2.5, 59.9, 60.0, 84.9, 100.0}) {
    EXPECT_DOUBLE_EQ(lowhalf.at(x), bulk.at(x));
  }
}

TEST(BinnedEcdfMerge, ClampedOutliersSurviveMerge) {
  BinnedEcdf a(0.0, 10.0, 10), b(0.0, 10.0, 10);
  a.add(-100.0);  // clamps into the first bin
  b.add(1e9);     // clamps into the last bin
  a.merge(b);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_DOUBLE_EQ(a.at(0.0), 0.5);
  EXPECT_DOUBLE_EQ(a.at(10.0), 1.0);
}

TEST(BinnedEcdfMerge, GridMismatchThrows) {
  BinnedEcdf a(0.0, 10.0, 100);
  BinnedEcdf wrong_bins(0.0, 10.0, 50);
  BinnedEcdf wrong_range(0.0, 20.0, 100);
  EXPECT_THROW(a.merge(wrong_bins), std::invalid_argument);
  EXPECT_THROW(a.merge(wrong_range), std::invalid_argument);
}

TEST(Summary, QuantilePairMatchesSortBitForBit) {
  // Random values, heavy ties and every small size, with the pair at the
  // tails, in the middle and at the ends: the selected order statistics
  // are the sorted ones, so the interpolations are identical.
  Rng rng(9);
  const std::pair<double, double> qs[] = {
      {0.05, 0.95}, {0.0, 1.0}, {0.1, 0.9}, {0.5, 0.5}, {0.95, 0.05},
      {0.01, 0.99}};
  for (std::size_t n = 1; n <= 1400; n += (n < 40 ? 1 : 37)) {
    for (const bool ties : {false, true}) {
      std::vector<double> v(n);
      for (auto& x : v) {
        x = ties ? std::floor(rng.uniform() * 4.0) * 2.5
                 : rng.normal(40.0, 15.0);
      }
      const auto s = sorted(v);
      for (const auto& [lo, hi] : qs) {
        const auto [a, b] = quantile_pair(v, lo, hi);
        EXPECT_EQ(a, quantile_sorted(s, lo)) << "n=" << n << " q=" << lo;
        EXPECT_EQ(b, quantile_sorted(s, hi)) << "n=" << n << " q=" << hi;
      }
    }
  }
  // Samples the every-16th bracket misjudges: the sampled positions hold
  // the smallest and largest values, so both brackets miss their ranks
  // and fall back to every sample.
  std::vector<double> v(672);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = i % 16 == 0 ? (i % 32 == 0 ? -1000.0 - i : 1000.0 + i)
                       : rng.normal(40.0, 1.0);
  }
  const auto s = sorted(v);
  const auto [p5, p95] = quantile_pair(v, 0.05, 0.95);
  EXPECT_EQ(p5, quantile_sorted(s, 0.05));
  EXPECT_EQ(p95, quantile_sorted(s, 0.95));
  EXPECT_THROW(quantile_pair({}, 0.05, 0.95), std::invalid_argument);
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(2);
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) v.push_back(rng.normal(7.0, 2.0));
  EXPECT_NEAR(mean(v), 7.0, 0.05);
  EXPECT_NEAR(stddev(v), 2.0, 0.05);
}

}  // namespace
}  // namespace s2s::stats
