#include "stats/heatmap.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/summary.h"

namespace s2s::stats {

std::vector<double> decile_edges(std::span<const double> samples) {
  if (samples.empty()) return {0.0, 1.0};
  const auto s = sorted(samples);
  std::vector<double> edges;
  edges.reserve(11);
  for (int i = 0; i <= 10; ++i) {
    const double e = quantile_sorted(s, static_cast<double>(i) / 10.0);
    if (edges.empty() || e > edges.back()) edges.push_back(e);
  }
  if (edges.size() < 2) edges.push_back(edges.front() + 1.0);
  // Widen the last edge a hair so max samples land inside the final
  // half-open bin.
  edges.back() = std::nextafter(edges.back(),
                                std::numeric_limits<double>::infinity());
  return edges;
}

namespace {

std::size_t bin_index(const std::vector<double>& edges, double v) {
  // Half-open bins [e_i, e_{i+1}); clamp outliers into the end bins.
  const auto it = std::upper_bound(edges.begin(), edges.end(), v);
  auto idx = static_cast<std::ptrdiff_t>(it - edges.begin()) - 1;
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(edges.size()) - 2);
  return static_cast<std::size_t>(idx);
}

}  // namespace

DecileHeatmap::DecileHeatmap(std::span<const double> x,
                             std::span<const double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("DecileHeatmap: size mismatch");
  }
  x_edges_ = decile_edges(x);
  y_edges_ = decile_edges(y);
  percent_.assign(x_bins() * y_bins(), 0.0);
  total_ = x.size();
  if (total_ == 0) return;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::size_t xi = bin_index(x_edges_, x[i]);
    const std::size_t yi = bin_index(y_edges_, y[i]);
    percent_[yi * x_bins() + xi] += 1.0;
  }
  const double scale = 100.0 / static_cast<double>(total_);
  for (auto& c : percent_) c *= scale;
}

double DecileHeatmap::percent(std::size_t xi, std::size_t yi) const {
  if (xi >= x_bins() || yi >= y_bins()) {
    throw std::out_of_range("DecileHeatmap::percent");
  }
  return percent_[yi * x_bins() + xi];
}

double DecileHeatmap::row_percent(std::size_t yi) const {
  double sum = 0.0;
  for (std::size_t xi = 0; xi < x_bins(); ++xi) sum += percent(xi, yi);
  return sum;
}

}  // namespace s2s::stats
