// Histograms and Gaussian kernel density estimates (paper Figure 9 is a
// density plot of congestion overhead).
#pragma once

#include <span>
#include <string>
#include <vector>

namespace s2s::stats {

/// A fixed-width histogram over [lo, hi); samples outside are clamped into
/// the first/last bin.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value);

  std::size_t bins() const noexcept { return counts_.size(); }
  std::size_t total() const noexcept { return total_; }
  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  /// Center x-value of a bin.
  double bin_center(std::size_t bin) const;
  /// Normalized density for a bin (fraction / bin width).
  double density(std::size_t bin) const;

  std::string to_tsv() const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Gaussian KDE evaluated on a regular grid.
struct KdePoint {
  double x;
  double density;
};

/// Evaluates a Gaussian KDE of the samples at `grid_points` equally-spaced
/// x-values over [lo, hi]. `bandwidth` <= 0 selects Silverman's rule.
std::vector<KdePoint> kde(std::span<const double> samples, double lo,
                          double hi, std::size_t grid_points,
                          double bandwidth = 0.0);

/// Silverman's rule-of-thumb bandwidth for Gaussian kernels.
double silverman_bandwidth(std::span<const double> samples);

}  // namespace s2s::stats
