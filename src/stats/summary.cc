#include "stats/summary.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace s2s::stats {

std::vector<double> sorted(std::span<const double> samples) {
  std::vector<double> copy(samples.begin(), samples.end());
  std::sort(copy.begin(), copy.end());
  return copy;
}

namespace {

/// Where a type-7 quantile reads a sorted sample of n: order statistic
/// `lo`, and when `interpolate`, `lo + 1` weighted by `frac`.
struct QuantileRanks {
  std::size_t lo = 0;
  double frac = 0.0;
  bool interpolate = false;
};

QuantileRanks ranks_of(std::size_t n, double q) {
  if (q <= 0.0) return {0, 0.0, false};
  if (q >= 1.0) return {n - 1, 0.0, false};
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= n) return {n - 1, 0.0, false};
  return {lo, pos - static_cast<double>(lo), true};
}

double interpolate(const QuantileRanks& r, double at_lo, double next) {
  return r.interpolate ? at_lo + r.frac * (next - at_lo) : at_lo;
}

/// The samples one tail of a sorted order could hold: `kept[0, count)`
/// are the samples of ranks offset .. offset + count - 1, and the samples
/// equal to `tie` hold ranks tie_begin .. tie_end - 1, next to them.
struct Bracket {
  double* kept = nullptr;
  std::size_t count = 0;
  std::size_t offset = 0;
  double tie = 0.0;
  std::size_t tie_begin = 0;
  std::size_t tie_end = 0;

  bool holds(std::size_t rank) const {
    return (rank >= offset && rank - offset < count) ||
           (rank >= tie_begin && rank < tie_end);
  }
  bool kept_rank(std::size_t rank) const {
    return rank >= offset && rank - offset < count;
  }
};

/// The quantile at `r`, read from a bracket that holds its ranks.
/// Reorders `b.kept`.
double select_in(const QuantileRanks& r, const Bracket& b) {
  double* const end = b.kept + b.count;
  double* nth = nullptr;
  double at_lo = b.tie;
  if (b.kept_rank(r.lo)) {
    nth = b.kept + (r.lo - b.offset);
    std::nth_element(b.kept, nth, end);
    at_lo = *nth;
  }
  if (!r.interpolate) return at_lo;
  // Rank lo + 1 is a tie, the smallest kept sample past the nth (every
  // one of them is no smaller), or, after the tie, the smallest kept.
  double next = b.tie;
  if (b.kept_rank(r.lo + 1)) {
    next = *std::min_element(nth != nullptr ? nth + 1 : b.kept, end);
  }
  return interpolate(r, at_lo, next);
}

}  // namespace

double quantile_sorted(std::span<const double> s, double q) {
  if (s.empty()) throw std::invalid_argument("quantile of empty sample");
  const QuantileRanks r = ranks_of(s.size(), q);
  return interpolate(r, s[r.lo], r.interpolate ? s[r.lo + 1] : s[r.lo]);
}

std::pair<double, double> quantile_pair(std::span<const double> s,
                                        double q_low, double q_high) {
  if (s.empty()) throw std::invalid_argument("quantile of empty sample");
  const std::size_t n = s.size();
  const QuantileRanks low = ranks_of(n, q_low);
  const QuantileRanks high = ranks_of(n, q_high);
  const std::size_t low_last = low.lo + (low.interpolate ? 1 : 0);
  // Bounds from a sample of every 16th sample, three sample ranks (~48
  // samples) wide of the ranks read: the low ranks are among the samples
  // <= low_bound, the high ones among those >= high_bound.
  const auto buffer = std::make_unique_for_overwrite<double[]>(2 * n);
  double* const below = buffer.get();
  double* const above = below + n;
  double low_bound = HUGE_VAL;
  double high_bound = -HUGE_VAL;
  if (n >= 256) {
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; i += 16) below[m++] = s[i];
    const std::size_t low_at = low_last * m / n + 3;
    const std::size_t high_at = high.lo * m / n;
    if (low_at < m) {
      std::nth_element(below, below + low_at, below + m);
      low_bound = below[low_at];
    }
    if (high_at >= 3) {
      std::nth_element(below, below + (high_at - 3), below + m);
      high_bound = below[high_at - 3];
    }
  }
  // One pass keeps both brackets, without branches. Samples equal to a
  // bound are only counted: tails often repeat one value many times.
  std::size_t n_below = 0, n_above = 0, at_low = 0, at_high = 0;
  for (const double x : s) {
    below[n_below] = x;
    n_below += x < low_bound ? 1 : 0;
    at_low += x == low_bound ? 1 : 0;
    above[n_above] = x;
    n_above += x > high_bound ? 1 : 0;
    at_high += x == high_bound ? 1 : 0;
  }
  Bracket low_bracket{below,     n_below, 0,
                      low_bound, n_below, n_below + at_low};
  Bracket high_bracket{above,      n_above,
                       n - n_above, high_bound,
                       n - n_above - at_high, n - n_above};
  // A bracket that missed its ranks takes every sample instead.
  const Bracket every{below, n, 0, 0.0, 0, 0};
  if (!low_bracket.holds(low.lo) || !low_bracket.holds(low_last)) {
    std::copy(s.begin(), s.end(), below);
    low_bracket = every;
  }
  if (!high_bracket.holds(high.lo) ||
      !high_bracket.holds(high.lo + (high.interpolate ? 1 : 0))) {
    std::copy(s.begin(), s.end(), above);
    high_bracket = every;
    high_bracket.kept = above;
  }
  return {select_in(low, low_bracket), select_in(high, high_bracket)};
}

double quantile(std::span<const double> samples, double q) {
  return quantile_sorted(sorted(samples), q);
}

double percentile(std::span<const double> samples, double pct) {
  return quantile(samples, pct / 100.0);
}

double median(std::span<const double> samples) {
  return quantile(samples, 0.5);
}

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double stddev(std::span<const double> samples) {
  if (samples.size() < 2) return 0.0;
  const double m = mean(samples);
  double ss = 0.0;
  for (double v : samples) ss += (v - m) * (v - m);
  return std::sqrt(ss / static_cast<double>(samples.size() - 1));
}

Summary summarize(std::span<const double> samples) {
  Summary out;
  if (samples.empty()) return out;
  const auto s = sorted(samples);
  out.count = s.size();
  out.min = s.front();
  out.max = s.back();
  out.p5 = quantile_sorted(s, 0.05);
  out.p10 = quantile_sorted(s, 0.10);
  out.p25 = quantile_sorted(s, 0.25);
  out.p50 = quantile_sorted(s, 0.50);
  out.p75 = quantile_sorted(s, 0.75);
  out.p90 = quantile_sorted(s, 0.90);
  out.p95 = quantile_sorted(s, 0.95);
  out.mean = mean(samples);
  out.stddev = stddev(samples);
  return out;
}

}  // namespace s2s::stats
