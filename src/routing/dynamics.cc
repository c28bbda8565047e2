#include "routing/dynamics.h"

#include <algorithm>
#include <cmath>

namespace s2s::routing {

using topology::AdjacencyId;

namespace {

std::vector<std::pair<std::int64_t, std::int64_t>> merge_intervals(
    std::vector<std::pair<std::int64_t, std::int64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  for (const auto& s : spans) {
    if (!merged.empty() && s.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, s.second);
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

}  // namespace

OutageSchedule::OutageSchedule(
    const topology::Topology& topo, const DynamicsConfig& config,
    const std::function<double(AdjacencyId)>& severity_ms, stats::Rng rng) {
  const std::size_t n = topo.adjacencies.size();
  raw_.resize(n);
  down4_.resize(n);
  down6_.resize(n);

  const double horizon_s = config.campaign_days * 86400.0;
  // Lognormal multiplier with mean 1: mu = -sigma^2/2.
  const double rate_mu = -config.rate_sigma * config.rate_sigma / 2.0;

  for (AdjacencyId id = 0; id < n; ++id) {
    std::vector<std::pair<std::int64_t, std::int64_t>> spans4, spans6;

    // Oscillating adjacency: alternating preferred/de-preferred phases,
    // restricted to low-impact adjacencies.
    if (rng.chance(config.oscillate_fraction) &&
        severity_ms(id) > 1e-9 &&
        severity_ms(id) <= config.oscillate_max_severity_ms) {
      const double plane_draw = rng.uniform();
      const bool v4 =
          plane_draw < config.both_planes_prob + config.v4_only_prob;
      const bool v6 = plane_draw < config.both_planes_prob ||
                      plane_draw >=
                          config.both_planes_prob + config.v4_only_prob;
      double t = rng.uniform(0.0, config.oscillate_up_days_max) * 86400.0;
      while (t < horizon_s) {
        const double down_len =
            rng.uniform(config.oscillate_down_days_min,
                        config.oscillate_down_days_max) *
            86400.0;
        const auto start = static_cast<std::int64_t>(t);
        const auto end = static_cast<std::int64_t>(
            std::min(t + down_len, horizon_s));
        Outage outage;
        outage.start = net::SimTime(start);
        outage.end = net::SimTime(end);
        outage.v4 = v4;
        outage.v6 = v6;
        raw_[id].push_back(outage);
        if (v4) spans4.emplace_back(start, end);
        if (v6) spans6.emplace_back(start, end);
        t += down_len + rng.uniform(config.oscillate_up_days_min,
                                    config.oscillate_up_days_max) *
                            86400.0;
      }
    }

    const double multiplier = rng.lognormal(rate_mu, config.rate_sigma);
    const double mean_count =
        config.mean_outages_per_adjacency * multiplier;
    const int count = std::poisson_distribution<int>(mean_count)(rng);

    const double sev = std::max(0.0, severity_ms(id));
    const double mean_repair_h =
        config.repair_min_hours +
        config.repair_span_hours *
            std::exp(-sev / config.severity_scale_ms);
    // Lognormal with the requested mean: mu = ln(mean) - sigma^2/2.
    const double dur_mu = std::log(mean_repair_h * 3600.0) -
                          config.duration_sigma * config.duration_sigma / 2.0;

    for (int k = 0; k < count; ++k) {
      const auto start =
          static_cast<std::int64_t>(rng.uniform() * horizon_s);
      const auto duration = static_cast<std::int64_t>(
          rng.lognormal(dur_mu, config.duration_sigma));
      const std::int64_t end =
          std::min(start + std::max<std::int64_t>(duration, 60),
                   static_cast<std::int64_t>(horizon_s));
      Outage outage;
      outage.start = net::SimTime(start);
      outage.end = net::SimTime(end);
      const double plane_draw = rng.uniform();
      outage.v4 = plane_draw < config.both_planes_prob + config.v4_only_prob;
      outage.v6 = plane_draw < config.both_planes_prob ||
                  plane_draw >=
                      config.both_planes_prob + config.v4_only_prob;
      raw_[id].push_back(outage);
      if (outage.v4) spans4.emplace_back(start, end);
      if (outage.v6) spans6.emplace_back(start, end);
    }
    for (const auto& [s, e] : merge_intervals(std::move(spans4))) {
      down4_[id].push_back({s, e});
    }
    for (const auto& [s, e] : merge_intervals(std::move(spans6))) {
      down6_[id].push_back({s, e});
    }
  }
}

bool OutageSchedule::covered(const std::vector<Interval>& intervals,
                             std::int64_t t) {
  // Intervals are sorted and disjoint; find the last starting at or before t.
  const auto it = std::upper_bound(
      intervals.begin(), intervals.end(), t,
      [](std::int64_t value, const Interval& iv) { return value < iv.start; });
  if (it == intervals.begin()) return false;
  return t < std::prev(it)->end;
}

bool OutageSchedule::is_down(AdjacencyId id, net::Family family,
                             net::SimTime t) const {
  const auto& planes =
      family == net::Family::kIPv4 ? down4_[id] : down6_[id];
  return covered(planes, t.seconds());
}

void OutageSchedule::failed_mask(net::Family family, net::SimTime t,
                                 AdjacencyMask& out) const {
  out.assign(raw_.size(), false);
  for (AdjacencyId id = 0; id < raw_.size(); ++id) {
    out[id] = is_down(id, family, t);
  }
}

}  // namespace s2s::routing
