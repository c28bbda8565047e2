#include "stats/density.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <stdexcept>

#include "stats/summary.h"

namespace s2s::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (bins == 0 || !(hi > lo)) {
    throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
  }
}

void Histogram::add(double value) {
  auto bin = static_cast<std::ptrdiff_t>((value - lo_) / width_);
  bin = std::clamp<std::ptrdiff_t>(
      bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::bin_center(std::size_t bin) const {
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::density(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(bin)) /
         (static_cast<double>(total_) * width_);
}

std::string Histogram::to_tsv() const {
  std::string out;
  char line[64];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    std::snprintf(line, sizeof(line), "%.6g\t%.6g\n", bin_center(i),
                  density(i));
    out += line;
  }
  return out;
}

double silverman_bandwidth(std::span<const double> samples) {
  if (samples.size() < 2) return 1.0;
  const double sd = stddev(samples);
  const auto s = sorted(samples);
  const double iqr =
      quantile_sorted(s, 0.75) - quantile_sorted(s, 0.25);
  double scale = sd;
  if (iqr > 0.0) scale = std::min(sd, iqr / 1.349);
  if (scale <= 0.0) scale = sd > 0.0 ? sd : 1.0;
  return 0.9 * scale *
         std::pow(static_cast<double>(samples.size()), -0.2);
}

std::vector<KdePoint> kde(std::span<const double> samples, double lo,
                          double hi, std::size_t grid_points,
                          double bandwidth) {
  std::vector<KdePoint> out;
  if (samples.empty() || grid_points < 2 || !(hi > lo)) return out;
  const double h = bandwidth > 0.0 ? bandwidth : silverman_bandwidth(samples);
  const double norm =
      1.0 / (static_cast<double>(samples.size()) * h *
             std::sqrt(2.0 * std::numbers::pi));
  out.reserve(grid_points);
  for (std::size_t i = 0; i < grid_points; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(grid_points - 1);
    double sum = 0.0;
    for (double v : samples) {
      const double z = (x - v) / h;
      sum += std::exp(-0.5 * z * z);
    }
    out.push_back({x, norm * sum});
  }
  return out;
}

}  // namespace s2s::stats
