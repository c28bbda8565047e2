#include "stats/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "stats/rng.h"

namespace s2s::stats {
namespace {

std::vector<std::complex<double>> naive_dft(
    const std::vector<std::complex<double>>& x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> sum = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k * j) / static_cast<double>(n);
      sum += x[j] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = sum;
  }
  return out;
}

TEST(Fft, MatchesNaiveDft) {
  // Every bin of a real series, Goertzel against the O(n^2) DFT.
  Rng rng(4);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.normal();
  const auto expected =
      naive_dft(std::vector<std::complex<double>>(x.begin(), x.end()));
  for (std::size_t k = 0; k < x.size(); ++k) {
    const auto actual = goertzel_bin(x, static_cast<double>(k));
    EXPECT_NEAR(actual.real(), expected[k].real(), 1e-9) << k;
    EXPECT_NEAR(actual.imag(), expected[k].imag(), 1e-9) << k;
  }
}

TEST(Goertzel, MatchesDftBin) {
  Rng rng(6);
  std::vector<double> x(100);
  for (auto& v : x) v = rng.normal();
  std::vector<std::complex<double>> cx(x.begin(), x.end());
  const auto dft = naive_dft(cx);
  for (int k : {0, 1, 7, 49}) {
    const auto g = goertzel_bin(x, k);
    // The Goertzel recurrence accumulates rounding over N terms; compare
    // at a few-ULP-per-term tolerance.
    EXPECT_NEAR(g.real(), dft[static_cast<std::size_t>(k)].real(), 5e-4);
    EXPECT_NEAR(g.imag(), dft[static_cast<std::size_t>(k)].imag(), 5e-4);
  }
}

TEST(Goertzel, PureToneConcentratesPower) {
  // Exactly 5 cycles over the window.
  const std::size_t n = 200;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * 5.0 * static_cast<double>(i) /
                    static_cast<double>(n));
  }
  const double p5 = std::norm(goertzel_bin(x, 5.0));
  const double p6 = std::norm(goertzel_bin(x, 6.0));
  EXPECT_GT(p5, 1000.0 * (p6 + 1e-12));
}

TEST(DiurnalRatio, HighForCleanDailySignal) {
  // 7 days at 15-minute sampling, a clean diurnal bump.
  const double per_day = 96.0;
  std::vector<double> x;
  for (int i = 0; i < 7 * 96; ++i) {
    const double hour = std::fmod(i / 4.0, 24.0);
    x.push_back(50.0 + 20.0 * std::exp(-std::pow(hour - 20.0, 2) / 8.0));
  }
  const auto r = diurnal_power_ratio(x, per_day);
  EXPECT_EQ(r.day_bin, 7);
  // A Gaussian bump is not sinusoidal: a large share of its power sits in
  // the 2/day+ harmonics, so the fundamental carries ~0.6 of the total.
  EXPECT_GT(r.ratio, 0.5);
  EXPECT_TRUE(has_strong_diurnal_pattern(x, per_day));
}

TEST(DiurnalRatio, LowForWhiteNoise) {
  Rng rng(8);
  std::vector<double> x;
  for (int i = 0; i < 7 * 96; ++i) x.push_back(50.0 + rng.normal(0, 3));
  const auto r = diurnal_power_ratio(x, 96.0);
  EXPECT_LT(r.ratio, 0.15);
  EXPECT_FALSE(has_strong_diurnal_pattern(x, 96.0));
}

TEST(DiurnalRatio, LowForSingleSpike) {
  std::vector<double> x(7 * 96, 50.0);
  x[300] = 500.0;  // one isolated outlier
  EXPECT_LT(diurnal_power_ratio(x, 96.0).ratio, 0.1);
}

TEST(DiurnalRatio, ZeroForShortOrEmptySeries) {
  EXPECT_DOUBLE_EQ(diurnal_power_ratio({}, 96.0).ratio, 0.0);
  std::vector<double> one_day(96, 1.0);
  EXPECT_DOUBLE_EQ(diurnal_power_ratio(one_day, 96.0).ratio, 0.0);
}

// The ratio should degrade gracefully as noise drowns the daily signal.
class DiurnalNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(DiurnalNoiseSweep, MonotoneDetection) {
  const double noise_sigma = GetParam();
  Rng rng(10);
  std::vector<double> x;
  for (int i = 0; i < 7 * 96; ++i) {
    const double hour = std::fmod(i / 4.0, 24.0);
    x.push_back(50.0 + 15.0 * std::exp(-std::pow(hour - 13.0, 2) / 10.0) +
                rng.normal(0, noise_sigma));
  }
  const double ratio = diurnal_power_ratio(x, 96.0).ratio;
  if (noise_sigma <= 2.0) {
    EXPECT_GT(ratio, 0.3);
  } else if (noise_sigma >= 60.0) {
    EXPECT_LT(ratio, 0.3);
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, DiurnalNoiseSweep,
                         ::testing::Values(0.0, 1.0, 2.0, 60.0, 120.0));

// Sampling-rate invariance: the same physical signal sampled at the
// paper's three cadences is detected at all of them.
class DiurnalCadence : public ::testing::TestWithParam<int> {};

TEST_P(DiurnalCadence, DetectsAcrossCadences) {
  const int per_day = GetParam();
  std::vector<double> x;
  for (int i = 0; i < 14 * per_day; ++i) {
    const double hour = 24.0 * (i % per_day) / per_day;
    x.push_back(80.0 + 25.0 * std::exp(-std::pow(hour - 20.0, 2) / 12.0));
  }
  EXPECT_TRUE(has_strong_diurnal_pattern(x, per_day)) << per_day;
}

INSTANTIATE_TEST_SUITE_P(Cadences, DiurnalCadence,
                         ::testing::Values(8, 48, 96));  // 3h, 30min, 15min

TEST(DiurnalRatio, DayBinAtNyquistCountsOnce) {
  // samples_per_day == 2 puts the day bin at Nyquist: 8 samples over 4
  // days -> day_bin = 4 = n/2. The Nyquist bin is self-conjugate, so its
  // power must be counted once, and the k = 5 neighbour lies past Nyquist
  // (it aliases onto bin 3) and must be skipped. The old guard (k < n)
  // admitted k = 5 and doubled Nyquist, inflating the ratio.
  constexpr std::size_t n = 8;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = 2.0 * std::numbers::pi * static_cast<double>(i) / 8.0;
    // Bin 1 (outside the day window), bin 3, and the Nyquist bin 4.
    x[i] = 5.0 * std::cos(1.0 * t) + 2.0 * std::cos(3.0 * t) +
           3.0 * std::cos(4.0 * t);
  }
  const auto r = diurnal_power_ratio(x, 2.0);
  EXPECT_EQ(r.day_bin, 4);
  // Cross-check against the full spectrum: window = {3, 4}, with bin 3
  // conjugate-doubled and Nyquist counted once.
  std::vector<double> p(n / 2 + 1);  // mean is already zero
  for (std::size_t k = 0; k < p.size(); ++k) {
    p[k] = std::norm(goertzel_bin(x, static_cast<double>(k)));
  }
  const double expected =
      (2.0 * p[3] + p[4]) / (2.0 * p[1] + 2.0 * p[3] + p[4]);
  EXPECT_NEAR(r.ratio, expected, 1e-9);
  EXPECT_LT(r.ratio, 1.0);  // bin 1 keeps the ratio off the clamp
}

TEST(PowerSpectrum, ParsevalHolds) {
  // The identity diurnal_power_ratio takes its denominator from:
  // sum_k |X_k|^2 over all n bins = n * sum x^2, with every X_k from
  // goertzel_bin (any n, here not a power of two).
  Rng rng(12);
  std::vector<double> x(120);
  for (auto& v : x) v = rng.normal();
  double freq_sum = 0;
  for (std::size_t k = 0; k < x.size(); ++k) {
    freq_sum += std::norm(goertzel_bin(x, static_cast<double>(k)));
  }
  double time_sum = 0;
  for (double v : x) time_sum += v * v;
  EXPECT_NEAR(freq_sum, 120.0 * time_sum, 1e-9 * freq_sum);
}

}  // namespace
}  // namespace s2s::stats
