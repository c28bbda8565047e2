// Order statistics and moment summaries over samples of doubles.
#pragma once

#include <span>
#include <utility>
#include <vector>

namespace s2s::stats {

/// Returns the q-quantile (q in [0,1]) of the samples using linear
/// interpolation between order statistics (type-7, the numpy default).
/// Precondition: samples non-empty.
double quantile(std::span<const double> samples, double q);

/// Convenience wrappers used throughout the paper's analyses.
double percentile(std::span<const double> samples, double pct);  // pct in [0,100]
double median(std::span<const double> samples);

double mean(std::span<const double> samples);
/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
double stddev(std::span<const double> samples);

/// All the per-bucket summaries the routing analysis needs in one pass
/// over a *sorted* copy of the samples.
struct Summary {
  std::size_t count = 0;
  double min = 0, max = 0;
  double p5 = 0, p10 = 0, p25 = 0, p50 = 0, p75 = 0, p90 = 0, p95 = 0;
  double mean = 0;
  double stddev = 0;
};

/// Computes the summary; returns a zeroed Summary for empty input.
Summary summarize(std::span<const double> samples);

/// Sorts a copy of the samples (helper for repeated quantile queries).
std::vector<double> sorted(std::span<const double> samples);

/// Quantile on samples already sorted ascending (no copy).
double quantile_sorted(std::span<const double> sorted_samples, double q);

/// {quantile_sorted(sorted(samples), q_low), quantile_sorted(sorted(
/// samples), q_high)} without the sort: selects just the order
/// statistics the two interpolations read, so both are bit-identical.
/// Built for a pair of tails (p5 and p95): one pass keeps the samples
/// that every 16th sample places near each tail's ranks, and the
/// selection runs on those few; any q is exact. Precondition: samples
/// non-empty and NaN-free.
std::pair<double, double> quantile_pair(std::span<const double> samples,
                                        double q_low, double q_high);

}  // namespace s2s::stats
