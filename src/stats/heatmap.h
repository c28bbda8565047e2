// Decile heat maps (paper Figures 4 and 5).
//
// Both axes are binned at the deciles of their own marginal distribution;
// adjacent deciles with identical values are merged (the paper's lifetime
// axis has 9 columns because the 0th and 10th percentiles coincide at the
// 3-hour sampling floor). Each cell holds the percentage of points falling
// in that (x-bin, y-bin) rectangle.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace s2s::stats {

class DecileHeatmap {
 public:
  struct Cell {
    double percent = 0.0;  ///< percentage of all points in this cell
  };

  /// Builds the heat map from paired points (x[i], y[i]).
  DecileHeatmap(std::span<const double> x, std::span<const double> y);

  std::size_t x_bins() const noexcept { return x_edges_.size() - 1; }
  std::size_t y_bins() const noexcept { return y_edges_.size() - 1; }

  /// Half-open bin intervals [edge(i), edge(i+1)).
  const std::vector<double>& x_edges() const noexcept { return x_edges_; }
  const std::vector<double>& y_edges() const noexcept { return y_edges_; }

  double percent(std::size_t xi, std::size_t yi) const;

  /// Sum of a row across all x-bins = percentage of points with y in that
  /// row's interval (the paper sums rows to report "10% of AS paths suffer
  /// >= 48.3 ms").
  double row_percent(std::size_t yi) const;

  std::size_t total_points() const noexcept { return total_; }

 private:
  std::vector<double> x_edges_;
  std::vector<double> y_edges_;
  std::vector<double> percent_;  // row-major [yi * x_bins + xi]
  std::size_t total_ = 0;
};

/// Decile edges (11 values from min to max) of the samples, with duplicate
/// consecutive edges merged; the result always brackets all samples.
std::vector<double> decile_edges(std::span<const double> samples);

}  // namespace s2s::stats
