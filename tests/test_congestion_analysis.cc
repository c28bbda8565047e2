#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/congestion_detect.h"
#include "core/localize.h"
#include "core/segment_series.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace s2s::core {
namespace {

using net::IPAddr;
using net::IPv4Addr;

std::vector<double> diurnal_series(double base, double amplitude,
                                   double noise_sigma, int days,
                                   int per_day, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> out;
  for (int i = 0; i < days * per_day; ++i) {
    const double hour = 24.0 * (i % per_day) / per_day;
    out.push_back(base +
                  amplitude * std::exp(-std::pow(hour - 20.0, 2) / 10.0) +
                  rng.normal(0, noise_sigma));
  }
  return out;
}

TEST(AssessSeries, FlagsDiurnalCongestion) {
  const auto series = diurnal_series(80, 25, 0.5, 7, 96, 1);
  const auto verdict = assess_series(series, 96.0);
  EXPECT_TRUE(verdict.high_variation);
  EXPECT_TRUE(verdict.strong_diurnal);
  EXPECT_TRUE(verdict.consistent_congestion());
  EXPECT_GT(verdict.variation_ms, 10.0);
}

TEST(AssessSeries, QuietSeriesNotFlagged) {
  const auto series = diurnal_series(80, 0.0, 0.5, 7, 96, 2);
  const auto verdict = assess_series(series, 96.0);
  EXPECT_FALSE(verdict.high_variation);
  EXPECT_FALSE(verdict.consistent_congestion());
}

TEST(AssessSeries, NoisyButNotDiurnalFailsRatioTest) {
  stats::Rng rng(3);
  std::vector<double> series;
  for (int i = 0; i < 7 * 96; ++i) series.push_back(80 + rng.normal(0, 15));
  const auto verdict = assess_series(series, 96.0);
  EXPECT_TRUE(verdict.high_variation);
  EXPECT_FALSE(verdict.strong_diurnal);
  EXPECT_FALSE(verdict.consistent_congestion());
}

TEST(AssessSeries, SmallDiurnalBelowVariationThreshold) {
  // Clean diurnal shape but < 10ms swing: strong ratio, not flagged.
  const auto series = diurnal_series(80, 4.0, 0.1, 7, 96, 4);
  const auto verdict = assess_series(series, 96.0);
  EXPECT_TRUE(verdict.strong_diurnal);
  EXPECT_FALSE(verdict.high_variation);
  EXPECT_FALSE(verdict.consistent_congestion());
}

/// One Goertzel pass for bin k, as goertzel_bin computed it before the
/// recurrences were fused (kept here so the reference does not share
/// code with the kernel it checks).
std::complex<double> reference_goertzel(std::span<const double> series,
                                        double k) {
  const auto n = static_cast<double>(series.size());
  const double omega = 2.0 * std::numbers::pi * k / n;
  const double coeff = 2.0 * std::cos(omega);
  double s_prev = 0.0, s_prev2 = 0.0;
  for (const double x : series) {
    const double s = x + coeff * s_prev - s_prev2;
    s_prev2 = s_prev;
    s_prev = s;
  }
  const std::complex<double> w(std::cos(omega), std::sin(omega));
  return s_prev * w - s_prev2;
}

/// assess_series as it was before selection and the fused recurrences:
/// a full sort for the quantiles, and over a mean-removed copy one
/// Goertzel pass per bin beside a separate Parseval pass.
SeriesVerdict reference_assess(std::span<const double> rtt_ms,
                               double samples_per_day) {
  const CongestionDetectConfig config;
  SeriesVerdict verdict;
  verdict.samples = rtt_ms.size();
  std::vector<double> usable;
  for (const double v : rtt_ms) {
    if (std::isfinite(v)) {
      usable.push_back(v);
    } else {
      ++verdict.invalid_samples;
    }
  }
  if (usable.size() < 2) {
    verdict.insufficient = true;
    return verdict;
  }
  const auto sorted = stats::sorted(usable);
  verdict.variation_ms = stats::quantile_sorted(sorted, 0.95) -
                         stats::quantile_sorted(sorted, 0.05);
  verdict.high_variation =
      verdict.variation_ms > config.variation_threshold_ms;
  const std::size_t n = usable.size();
  const double days = static_cast<double>(n) / samples_per_day;
  if (days >= 2.0) {
    const double m = stats::mean(usable);
    std::vector<double> centered(n);
    for (std::size_t i = 0; i < n; ++i) centered[i] = usable[i] - m;
    double sum_sq = 0.0;
    for (const double x : centered) sum_sq += x * x;
    const double total = static_cast<double>(n) * sum_sq;
    const int day_bin = static_cast<int>(std::lround(days));
    double diurnal = 0.0;
    for (int k = day_bin - 1; k <= day_bin + 1; ++k) {
      if (k <= 0 || static_cast<std::size_t>(k) > n / 2) continue;
      const double power =
          std::norm(reference_goertzel(centered, static_cast<double>(k)));
      diurnal += n % 2 == 0 && static_cast<std::size_t>(k) == n / 2
                     ? power
                     : 2.0 * power;
    }
    verdict.diurnal_ratio =
        total > 0.0 ? std::min(1.0, diurnal / total) : 0.0;
  }
  verdict.strong_diurnal =
      verdict.diurnal_ratio >= config.diurnal_ratio_threshold;
  return verdict;
}

void expect_same_verdict(const SeriesVerdict& a, const SeriesVerdict& b,
                         const std::string& what) {
  EXPECT_EQ(a.samples, b.samples) << what;
  EXPECT_EQ(a.invalid_samples, b.invalid_samples) << what;
  EXPECT_EQ(a.insufficient, b.insufficient) << what;
  EXPECT_EQ(a.variation_ms, b.variation_ms) << what;  // bit for bit
  EXPECT_EQ(a.diurnal_ratio, b.diurnal_ratio) << what;
  EXPECT_EQ(a.high_variation, b.high_variation) << what;
  EXPECT_EQ(a.strong_diurnal, b.strong_diurnal) << what;
}

TEST(AssessSeries, SelectionAndFusedKernelMatchSortAndThreePasses) {
  stats::Rng rng(11);
  std::vector<std::pair<std::string, std::vector<double>>> cases;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    cases.emplace_back("diurnal " + std::to_string(seed),
                       diurnal_series(60, 5.0 * static_cast<double>(seed % 7),
                                      0.2 + static_cast<double>(seed), 7, 96,
                                      100 + seed));
  }
  for (int c = 0; c < 10; ++c) {  // heavy ties: a few 0.1 ms levels
    std::vector<double> s(672);
    for (auto& v : s) v = 40.0 + std::floor(rng.uniform() * 3.0) / 10.0;
    cases.emplace_back("ties " + std::to_string(c), s);
  }
  cases.emplace_back("constant", std::vector<double>(672, 12.5));
  {
    auto s = diurnal_series(80, 20, 1.0, 7, 96, 3);
    for (std::size_t i = 0; i < s.size(); i += 37) {
      s[i] = i % 2 ? std::nan("") : HUGE_VAL;
    }
    cases.emplace_back("non-finite", s);
  }
  cases.emplace_back("under two days", diurnal_series(80, 20, 1.0, 1, 150, 4));
  cases.emplace_back("n < W", diurnal_series(80, 20, 1.0, 5, 96, 5));
  cases.emplace_back("odd n", diurnal_series(80, 20, 1.0, 7, 95, 6));
  {
    // samples_per_day = 2: the day bin is the even-n Nyquist bin.
    std::vector<double> s(8);
    for (auto& v : s) v = rng.normal(30.0, 8.0);
    cases.emplace_back("nyquist", s);
  }
  cases.emplace_back("one sample", std::vector<double>{5.0});
  cases.emplace_back("empty", std::vector<double>{});
  for (const auto& [name, series] : cases) {
    const double per_day =
        name == "nyquist" ? 2.0 : (name == "under two days" ? 150.0 : 96.0);
    expect_same_verdict(assess_series(series, per_day),
                        reference_assess(series, per_day), name);
  }
}

PingSeriesStore::Series slots_of(const std::vector<double>& ms,
                                 std::size_t missing_every) {
  PingSeriesStore::Series s;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const bool missing = missing_every > 0 && i % missing_every == 0;
    s.rtt_tenths.push_back(missing ? kMissingSlot
                                   : static_cast<std::uint16_t>(ms[i] * 10));
    if (!missing) ++s.valid;
  }
  return s;
}

TEST(WindowVerdict, JudgesOnlyTheTrailingWeek) {
  // Two weeks: a loud diurnal first week, a quiet second one. The verdict
  // sees the second week alone, its gaps filled from inside the window.
  auto ms = diurnal_series(80, 40, 0.5, 7, 96, 21);
  const auto quiet = diurnal_series(80, 0, 0.5, 7, 96, 22);
  ms.insert(ms.end(), quiet.begin(), quiet.end());
  const auto series = slots_of(ms, 5);
  const CongestionDetectConfig config;
  const auto verdict = window_verdict(series, 96.0, config, 0.6);

  const std::span<const std::uint16_t> week =
      std::span<const std::uint16_t>(series.rtt_tenths).last(672);
  const auto expected =
      assess_series(interpolate_slots_ms(week), 96.0, config);
  EXPECT_EQ(verdict.samples, 672u);
  EXPECT_EQ(verdict.missing_samples,
            static_cast<std::size_t>(std::count(week.begin(), week.end(),
                                                kMissingSlot)));
  EXPECT_FALSE(verdict.insufficient);
  EXPECT_EQ(verdict.variation_ms, expected.variation_ms);
  EXPECT_EQ(verdict.diurnal_ratio, expected.diurnal_ratio);
  EXPECT_FALSE(verdict.consistent_congestion());
  // The whole two weeks would have been flagged.
  EXPECT_TRUE(assess_series(interpolate_slots_ms(series.rtt_tenths), 96.0)
                  .high_variation);
}

TEST(WindowVerdict, ShortGridIsWholeSeries) {
  const auto ms = diurnal_series(80, 25, 0.5, 5, 96, 23);
  const auto series = slots_of(ms, 7);
  const CongestionDetectConfig config;
  const auto verdict = window_verdict(series, 96.0, config, 0.6);
  const auto expected = assess_series(
      interpolate_slots_ms(series.rtt_tenths), 96.0, config);
  EXPECT_EQ(verdict.samples, ms.size());
  EXPECT_EQ(verdict.missing_samples, ms.size() - series.valid);
  EXPECT_EQ(verdict.variation_ms, expected.variation_ms);
  EXPECT_EQ(verdict.diurnal_ratio, expected.diurnal_ratio);
  EXPECT_TRUE(verdict.consistent_congestion());
}

TEST(WindowVerdict, SparseOrEmptyWindowIsInsufficient) {
  const CongestionDetectConfig config;
  // Observed only before the window: nothing to judge.
  auto ms = diurnal_series(80, 25, 0.5, 8, 96, 24);
  auto series = slots_of(ms, 0);
  for (std::size_t i = 96; i < series.rtt_tenths.size(); ++i) {
    series.rtt_tenths[i] = kMissingSlot;
  }
  series.valid = 96;
  auto verdict = window_verdict(series, 96.0, config, 0.6);
  EXPECT_TRUE(verdict.insufficient);
  EXPECT_EQ(verdict.samples, 672u);
  EXPECT_EQ(verdict.missing_samples, 672u);
  EXPECT_EQ(verdict.variation_ms, 0.0);
  EXPECT_FALSE(verdict.consistent_congestion());
  // Half the window observed: under the 0.6 floor, statistics still set.
  series = slots_of(ms, 2);
  verdict = window_verdict(series, 96.0, config, 0.6);
  EXPECT_TRUE(verdict.insufficient);
  EXPECT_EQ(verdict.missing_samples, 336u);
  EXPECT_GT(verdict.variation_ms, 10.0);
  EXPECT_FALSE(window_verdict(series, 96.0, config, 0.5).insufficient);
}

TEST(PingSeriesStore, AccumulatesOnGrid) {
  PingSeriesStore store(0.0, net::kFifteenMinutes, 96);
  probe::PingRecord rec;
  rec.src = 1;
  rec.dst = 2;
  rec.family = net::Family::kIPv4;
  rec.success = true;
  rec.time = net::SimTime(30 * 60);  // epoch 2
  rec.rtt_ms = 42.5;
  store.add(rec);
  rec.success = false;
  rec.time = net::SimTime(45 * 60);
  store.add(rec);  // failed ping ignored
  const auto* series = store.find(1, 2, net::Family::kIPv4);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->valid, 1u);
  EXPECT_EQ(series->rtt_tenths[2], 425);
  EXPECT_EQ(series->rtt_tenths[3], kMissingSlot);
}

TEST(PingSeriesStore, InterpolationFillsGaps) {
  PingSeriesStore::Series series;
  series.rtt_tenths = {kMissingSlot, 100, kMissingSlot, 300, kMissingSlot};
  series.valid = 2;
  const auto ms = interpolate_slots_ms(series.rtt_tenths);
  ASSERT_EQ(ms.size(), 5u);
  EXPECT_DOUBLE_EQ(ms[0], 10.0);  // leading gap copies first valid
  EXPECT_DOUBLE_EQ(ms[1], 10.0);
  EXPECT_DOUBLE_EQ(ms[2], 20.0);  // midpoint of 10 and 30
  EXPECT_DOUBLE_EQ(ms[3], 30.0);
  EXPECT_DOUBLE_EQ(ms[4], 30.0);  // trailing gap copies last valid

  using Ms = std::vector<double>;
  constexpr std::uint16_t M = kMissingSlot;
  const auto fill = [](std::vector<std::uint16_t> slots) {
    return interpolate_slots_ms(slots);
  };
  EXPECT_EQ(fill({}), Ms{});
  EXPECT_EQ(fill({M, M, M}), Ms{});  // all missing: nothing to fill from
  EXPECT_EQ(fill({M, 55, M, M}), (Ms{5.5, 5.5, 5.5, 5.5}));  // one sample
  EXPECT_EQ(fill({M, M, 125, 130}), (Ms{12.5, 12.5, 12.5, 13.0}));  // lead
  EXPECT_EQ(fill({100, M, M, M, 500}),  // interior: linear
            (Ms{10.0, 20.0, 30.0, 40.0, 50.0}));
  EXPECT_EQ(fill({70, 80, M, M}), (Ms{7.0, 8.0, 8.0, 8.0}));  // trailing
}

TEST(SurveyCongestion, CountsPerFamily) {
  const int epochs = 7 * 96;
  PingSeriesStore store(0.0, net::kFifteenMinutes, epochs);
  auto feed = [&](topology::ServerId src, net::Family fam,
                  const std::vector<double>& series) {
    probe::PingRecord rec;
    rec.src = src;
    rec.dst = 99;
    rec.family = fam;
    rec.success = true;
    for (int i = 0; i < epochs; ++i) {
      rec.time = net::SimTime(static_cast<std::int64_t>(i) * 900);
      rec.rtt_ms = series[static_cast<std::size_t>(i)];
      store.add(rec);
    }
  };
  feed(1, net::Family::kIPv4, diurnal_series(80, 25, 0.5, 7, 96, 5));
  feed(2, net::Family::kIPv4, diurnal_series(80, 0, 0.5, 7, 96, 6));
  feed(3, net::Family::kIPv6, diurnal_series(80, 30, 1.0, 7, 96, 7));

  const auto survey = survey_congestion(store);
  EXPECT_EQ(survey.v4.pairs_assessed, 2u);
  EXPECT_EQ(survey.v4.consistent, 1u);
  EXPECT_EQ(survey.v6.consistent, 1u);
  ASSERT_EQ(survey.flagged.size(), 2u);
}

// ---- segment localization ------------------------------------------------

IPAddr addr(int i) {
  return IPAddr(IPv4Addr(10, 0, 0, static_cast<std::uint8_t>(i)));
}
IPAddr rev_addr(int i) {
  return IPAddr(IPv4Addr(10, 0, 1, static_cast<std::uint8_t>(i)));
}

// Builds a symmetric pair of segment series with a diurnal bump injected
// at hop `congested_hop` (and correspondingly in the reverse direction).
void build_store(SegmentSeriesStore& store, int hops, int congested_hop,
                 int days, int per_day, std::uint64_t seed) {
  stats::Rng rng(seed);
  const int epochs = days * per_day;
  for (int e = 0; e < epochs; ++e) {
    const double hour = 24.0 * (e % per_day) / per_day;
    const double bump =
        25.0 * std::exp(-std::pow(hour - 20.0, 2) / 10.0);
    auto make = [&](bool forward) {
      probe::TracerouteRecord rec;
      rec.src = forward ? 1 : 2;
      rec.dst = forward ? 2 : 1;
      rec.family = net::Family::kIPv4;
      rec.complete = true;
      rec.time = net::SimTime(static_cast<std::int64_t>(e) * 1800);
      for (int h = 0; h < hops; ++h) {
        probe::Hop hop;
        const int label = forward ? h : hops - 1 - h;
        hop.addr = forward ? addr(label) : rev_addr(label);
        double rtt = 10.0 * (h + 1) + rng.normal(0, 0.2);
        // Hops at or beyond the congested link carry the bump. In reverse
        // the same physical link sits at index hops-1-congested_hop.
        const int bump_at = forward ? congested_hop : hops - congested_hop;
        if (h >= bump_at) rtt += bump;
        hop.rtt_ms = rtt;
        rec.hops.push_back(hop);
      }
      probe::Hop last;
      last.addr = forward ? addr(99) : rev_addr(99);
      last.rtt_ms = 10.0 * (hops + 1) + bump + rng.normal(0, 0.3);
      rec.hops.push_back(last);
      store.add(rec);
    };
    make(true);
    make(false);
  }
}

TEST(LocalizeCongestion, FindsInjectedSegment) {
  const int days = 14, per_day = 48, hops = 6, congested = 3;
  SegmentSeriesStore store(0.0, 1800, days * per_day);
  build_store(store, hops, congested, days, per_day, 8);

  LocalizeConfig cfg;
  cfg.require_symmetric_as_paths = false;  // synthetic addresses, no RIB
  cfg.min_traces = 10;
  bgp::Rib empty_rib;
  const auto result = localize_congestion(store, empty_rib, cfg);
  EXPECT_EQ(result.pairs_considered, 2u);
  EXPECT_EQ(result.pairs_persistent, 2u);
  ASSERT_EQ(result.segments.size(), 2u);
  for (const auto& seg : result.segments) {
    const bool forward = seg.src == 1;
    EXPECT_EQ(seg.segment_index,
              static_cast<std::size_t>(forward ? congested
                                               : hops - congested));
    EXPECT_GE(seg.rho, 0.5);
    EXPECT_NEAR(seg.overhead_ms, 25.0, 8.0);
  }
}

TEST(LocalizeCongestion, QuietPairNotLocalized) {
  const int days = 14, per_day = 48;
  SegmentSeriesStore store(0.0, 1800, days * per_day);
  stats::Rng rng(9);
  for (int e = 0; e < days * per_day; ++e) {
    probe::TracerouteRecord rec;
    rec.src = 5;
    rec.dst = 6;
    rec.family = net::Family::kIPv4;
    rec.complete = true;
    rec.time = net::SimTime(static_cast<std::int64_t>(e) * 1800);
    for (int h = 0; h < 4; ++h) {
      rec.hops.push_back({addr(h), 10.0 * (h + 1) + rng.normal(0, 0.2)});
    }
    store.add(rec);
  }
  LocalizeConfig cfg;
  cfg.require_symmetric_as_paths = false;
  cfg.min_traces = 10;
  bgp::Rib rib;
  const auto result = localize_congestion(store, rib, cfg);
  EXPECT_TRUE(result.segments.empty());
  EXPECT_EQ(result.pairs_persistent, 0u);
}

TEST(SegmentSeriesStore, DetectsNonStaticPaths) {
  SegmentSeriesStore store(0.0, 1800, 10);
  probe::TracerouteRecord rec;
  rec.src = 1;
  rec.dst = 2;
  rec.family = net::Family::kIPv4;
  rec.complete = true;
  rec.time = net::SimTime(0);
  rec.hops = {{addr(1), 1.0}, {addr(2), 2.0}, {addr(99), 3.0}};
  store.add(rec);
  rec.time = net::SimTime(1800);
  rec.hops = {{addr(1), 1.0}, {addr(7), 2.0}, {addr(99), 3.0}};  // changed
  store.add(rec);
  const auto* series = store.find(1, 2, net::Family::kIPv4);
  ASSERT_NE(series, nullptr);
  EXPECT_FALSE(series->ip_static);
}

TEST(SegmentSeriesStore, UnresponsiveHopsAreWildcards) {
  SegmentSeriesStore store(0.0, 1800, 10);
  probe::TracerouteRecord rec;
  rec.src = 1;
  rec.dst = 2;
  rec.family = net::Family::kIPv4;
  rec.complete = true;
  rec.time = net::SimTime(0);
  rec.hops = {{addr(1), 1.0}, {std::nullopt, 0.0}, {addr(99), 3.0}};
  store.add(rec);
  rec.time = net::SimTime(1800);
  rec.hops = {{addr(1), 1.0}, {addr(2), 2.0}, {addr(99), 3.0}};
  store.add(rec);
  const auto* series = store.find(1, 2, net::Family::kIPv4);
  ASSERT_NE(series, nullptr);
  EXPECT_TRUE(series->ip_static);
  ASSERT_TRUE(series->hop_addrs[1].has_value());  // learned later
  EXPECT_EQ(*series->hop_addrs[1], addr(2));
}

// Two traceroutes in one 30-minute epoch: the row keeps the first one
// whole instead of mixing the second's answered hops into it.
TEST(SegmentSeriesStore, SecondTraceInAnEpochKeepsTheFirstRow) {
  SegmentSeriesStore store(0.0, 1800, 10);
  probe::TracerouteRecord rec;
  rec.src = 1;
  rec.dst = 2;
  rec.family = net::Family::kIPv4;
  rec.complete = true;
  rec.time = net::SimTime(0);
  rec.hops = {{addr(1), 1.0}, {addr(2), 2.0}, {addr(99), 3.0}};
  store.add(rec);
  rec.time = net::SimTime(60);
  rec.hops = {{addr(1), 5.0}, {std::nullopt, 0.0}, {addr(99), 9.0}};
  store.add(rec);
  const auto* series = store.find(1, 2, net::Family::kIPv4);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->traces, 2u);
  EXPECT_TRUE(series->ip_static);
  EXPECT_EQ(series->hop_rtt[0][0], 10);
  EXPECT_EQ(series->hop_rtt[1][0], 20);
  EXPECT_EQ(series->end_rtt[0], 30);
  EXPECT_EQ(store.quality().duplicates_dropped, 0u);
}

}  // namespace
}  // namespace s2s::core
