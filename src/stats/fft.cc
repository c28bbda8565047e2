#include "stats/fft.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "stats/summary.h"

namespace s2s::stats {

namespace {

/// Goertzel's state for one bin: the recurrence coefficient in, the last
/// two terms out.
struct GoertzelChain {
  double omega = 0.0;
  double coeff = 0.0;
  double s_prev = 0.0;
  double s_prev2 = 0.0;

  GoertzelChain(double k, double n)
      : omega(2.0 * std::numbers::pi * k / n), coeff(2.0 * std::cos(omega)) {}

  void step(double x) noexcept {
    const double s = x + coeff * s_prev - s_prev2;
    s_prev2 = s_prev;
    s_prev = s;
  }

  // Forward-DFT convention (exp(-i...)): X_k = s_{N-1} e^{i omega} - s_{N-2}.
  std::complex<double> coefficient() const {
    const std::complex<double> w(std::cos(omega), std::sin(omega));
    return s_prev * w - s_prev2;
  }
};

}  // namespace

std::complex<double> goertzel_bin(std::span<const double> series, double k) {
  if (series.empty()) return {0.0, 0.0};
  GoertzelChain chain(k, static_cast<double>(series.size()));
  for (const double x : series) chain.step(x);
  return chain.coefficient();
}

DiurnalPower diurnal_power_ratio(std::span<const double> series,
                                 double samples_per_day) {
  DiurnalPower out;
  const std::size_t n = series.size();
  if (n == 0 || samples_per_day <= 0.0) return out;
  const double days = static_cast<double>(n) / samples_per_day;
  if (days < 2.0) return out;

  // The 1/day frequency falls at bin k = N / samples_per_day = #days.
  const int day_bin = static_cast<int>(std::lround(days));
  out.day_bin = day_bin;

  // One pass over the mean-removed series (the DC term would otherwise
  // dominate) runs the day bin's and both neighbours' recurrences beside
  // Parseval's total AC power, sum_k |X_k|^2 = N * sum_n x_n^2. Every
  // chain does goertzel_bin's operations in its order, so each bin is
  // bit-identical to goertzel_bin over a centred copy.
  const double m = mean(series);
  GoertzelChain chains[3] = {
      {static_cast<double>(day_bin - 1), static_cast<double>(n)},
      {static_cast<double>(day_bin), static_cast<double>(n)},
      {static_cast<double>(day_bin + 1), static_cast<double>(n)}};
  double sum_sq = 0.0;
  for (const double x : series) {
    const double c = x - m;
    sum_sq += c * c;
    chains[0].step(c);
    chains[1].step(c);
    chains[2].step(c);
  }
  const double total_power = static_cast<double>(n) * sum_sq;

  // Power "around" f: the day bin plus its immediate neighbours, counting
  // both the positive and the (conjugate-symmetric) negative frequency.
  // Distinct bins only exist up to Nyquist (k = n/2); beyond it they
  // alias onto bins already counted, and the Nyquist bin itself (n even)
  // is self-conjugate, so doubling it would count its power twice.
  const std::size_t nyquist = n / 2;
  double diurnal = 0.0;
  for (int j = 0; j < 3; ++j) {
    const int k = day_bin - 1 + j;
    if (k <= 0 || static_cast<std::size_t>(k) > nyquist) continue;
    const double power = std::norm(chains[j].coefficient());
    const bool self_conjugate =
        n % 2 == 0 && static_cast<std::size_t>(k) == nyquist;
    diurnal += self_conjugate ? power : 2.0 * power;
  }
  out.diurnal_power = diurnal;
  out.total_power = total_power;
  out.ratio = total_power > 0.0 ? std::min(1.0, diurnal / total_power) : 0.0;
  return out;
}

bool has_strong_diurnal_pattern(std::span<const double> series,
                                double samples_per_day, double threshold) {
  return diurnal_power_ratio(series, samples_per_day).ratio >= threshold;
}

}  // namespace s2s::stats
