// Spectral analysis used by the congestion detector (paper Section 5.1).
//
// The paper applies an FFT at frequency f = 1/day to each RTT time series
// and flags "consistent congestion" when the fraction of signal power that
// sits at (and immediately around) the diurnal frequency is at least 0.3.
// Only three bins are ever read, so no FFT is run: each bin is a Goertzel
// single-bin DFT (any series length), and the total power comes from
// Parseval.
#pragma once

#include <complex>
#include <span>

namespace s2s::stats {

/// DFT coefficient X_k of a real series at (possibly fractional) bin `k`
/// via the Goertzel recurrence: X_k = sum_n x[n] * exp(-2*pi*i*k*n/N).
std::complex<double> goertzel_bin(std::span<const double> series, double k);

/// Result of the diurnal-signal test.
struct DiurnalPower {
  double ratio = 0.0;        ///< power near f=1/day divided by total AC power
  double diurnal_power = 0;  ///< numerator
  double total_power = 0;    ///< denominator (Parseval, mean removed)
  int day_bin = 0;           ///< integer bin closest to 1 cycle/day
};

/// Computes the fraction of (mean-removed) signal power concentrated at the
/// 1/day frequency. `samples_per_day` is the sampling rate (e.g. 96 for the
/// paper's 15-minute pings, 8 for 3-hour traceroutes). Power is summed over
/// the day bin and its two neighbours ("around the frequency f", paper
/// Section 5.1). Series shorter than two days yield ratio 0. Bit-identical
/// to goertzel_bin over a mean-removed copy, one call per bin, though the
/// three recurrences share one pass.
DiurnalPower diurnal_power_ratio(std::span<const double> series,
                                 double samples_per_day);

/// The paper's detection threshold (footnote 2: "settled on 0.3").
inline constexpr double kDiurnalRatioThreshold = 0.3;

/// True iff the series carries a strong diurnal signal per the paper's rule.
bool has_strong_diurnal_pattern(std::span<const double> series,
                                double samples_per_day,
                                double threshold = kDiurnalRatioThreshold);

}  // namespace s2s::stats
