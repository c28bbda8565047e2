// Stochastic measurement noise shared by the ping and traceroute engines.
//
// Deterministic latency (propagation + diurnal queueing) comes from
// simnet::Network; everything transient lives here: measurement jitter,
// short queueing spikes (the "spikes above the baseline" of the paper's
// Figure 1), ICMP generation delay on routers, slow control planes, and
// probe loss.
#pragma once

#include <cmath>

#include "stats/rng.h"

namespace s2s::probe {

struct NoiseConfig {
  /// Lognormal jitter added to every RTT sample (sigma of underlying
  /// normal; median ~ exp(mu) = jitter_median_ms).
  double jitter_median_ms = 0.3;
  double jitter_sigma = 0.6;
  /// Transient congestion spike: probability per end-to-end sample and
  /// exponential mean of the added delay.
  double spike_prob = 0.015;
  double spike_mean_ms = 18.0;
  /// ICMP TTL-exceeded generation delay on intermediate routers.
  double hop_proc_min_ms = 0.05;
  double hop_proc_max_ms = 0.6;
  /// Routers occasionally answer from a slow control plane.
  double slow_path_prob = 0.01;
  double slow_path_mean_ms = 40.0;
  /// Per-probe loss (an otherwise responsive hop shows "*").
  double probe_loss_prob = 0.00005;
};

/// The noise draws of both engines. The lognormal's location,
/// log(jitter_median_ms), is taken once here rather than per sample.
class NoiseModel {
 public:
  explicit NoiseModel(const NoiseConfig& cfg)
      : cfg_(cfg), jitter_mu_(std::log(cfg.jitter_median_ms)) {}

  /// Noise on an end-to-end RTT sample (ping or final traceroute hop).
  double end_to_end_ms(stats::Rng& rng) const {
    double noise = rng.lognormal(jitter_mu_, cfg_.jitter_sigma);
    if (rng.chance(cfg_.spike_prob)) {
      noise += rng.exponential_mean(cfg_.spike_mean_ms);
    }
    return noise;
  }

  /// Noise on an intermediate traceroute hop's RTT sample.
  double hop_ms(stats::Rng& rng) const {
    double noise = rng.lognormal(jitter_mu_, cfg_.jitter_sigma) +
                   rng.uniform(cfg_.hop_proc_min_ms, cfg_.hop_proc_max_ms);
    if (rng.chance(cfg_.slow_path_prob)) {
      noise += rng.exponential_mean(cfg_.slow_path_mean_ms);
    }
    if (rng.chance(cfg_.spike_prob)) {
      noise += rng.exponential_mean(cfg_.spike_mean_ms);
    }
    return noise;
  }

 private:
  NoiseConfig cfg_;
  double jitter_mu_;
};

}  // namespace s2s::probe
