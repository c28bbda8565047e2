#include "simnet/network.h"

#include <algorithm>
#include <stdexcept>

namespace s2s::simnet {

using routing::Candidate;
using routing::CandidateTable;
using topology::AsId;
using topology::ServerId;

Network::Network(const NetworkConfig& config)
    : config_(config),
      topo_(topology::generate(config.topology)),
      router_(topo_),
      congestion_(topo_, config.congestion,
                  stats::Rng(config.topology.seed * 0x9e3779b9ULL + 17)),
      rib_(bgp::Rib::from_topology(topo_)),
      expander_(topo_) {}

void Network::prepare(
    std::span<const std::pair<ServerId, ServerId>> pairs) {
  std::vector<std::pair<AsId, AsId>> as_pairs4, as_pairs6;
  for (const auto& [s, d] : pairs) {
    const auto& src = topo_.servers.at(s);
    const auto& dst = topo_.servers.at(d);
    as_pairs4.emplace_back(src.as_id, dst.as_id);
    if (src.dual_stack() && dst.dual_stack()) {
      as_pairs6.emplace_back(src.as_id, dst.as_id);
    }
  }
  // Sorted, so a table's insertion order, which its walk in
  // calibrate_and_schedule() follows, does not depend on pair order;
  // add() skips the repeats.
  std::sort(as_pairs4.begin(), as_pairs4.end());
  std::sort(as_pairs6.begin(), as_pairs6.end());
  candidates4_.add(router_, as_pairs4);
  candidates6_.add(router_, as_pairs6);
  if (!outages_) calibrate_and_schedule();
}

void Network::prepare_full_mesh(std::span<const ServerId> servers) {
  std::vector<std::pair<ServerId, ServerId>> pairs;
  pairs.reserve(servers.size() * (servers.size() - 1));
  for (ServerId a : servers) {
    for (ServerId b : servers) {
      if (a != b) pairs.emplace_back(a, b);
    }
  }
  prepare(pairs);
}

void Network::calibrate_and_schedule() {
  severity_.assign(topo_.adjacencies.size(), 0.0);
  std::vector<std::uint32_t> count(topo_.adjacencies.size(), 0);

  // Severity = mean RTT regression (one representative server per AS).
  std::vector<ServerId> rep(topo_.ases.size(), topology::kInvalidId);
  for (ServerId s = 0; s < topo_.servers.size(); ++s) {
    if (rep[topo_.servers[s].as_id] == topology::kInvalidId) {
      rep[topo_.servers[s].as_id] = s;
    }
  }

  candidates4_.for_each([&](AsId src_as, AsId dst_as,
                             const routing::CandidateSet& set) {
    if (set.candidates.empty() || !set.candidates.front().primary) return;
    const ServerId s = rep[src_as];
    const ServerId d = rep[dst_as];
    if (s == topology::kInvalidId || d == topology::kInvalidId) return;
    const Candidate& primary = set.candidates.front();
    const RouterPath* base =
        expander_.expand(s, d, primary.path, net::Family::kIPv4, 0);
    if (base == nullptr) return;
    const double d0 = base->total_delay_ms;
    for (topology::AdjacencyId e : primary.adjs) {
      double delta = config_.disconnect_severity_ms;
      for (std::size_t idx = 1; idx < set.candidates.size(); ++idx) {
        const Candidate& alt = set.candidates[idx];
        if (std::find(alt.adjs.begin(), alt.adjs.end(), e) != alt.adjs.end()) {
          continue;
        }
        const RouterPath* alt_path = expander_.expand(
            s, d, alt.path, net::Family::kIPv4,
            static_cast<std::uint32_t>(idx));
        if (alt_path != nullptr) {
          delta = std::max(0.0, alt_path->total_delay_ms - d0);
        }
        break;
      }
      // RTT regression is twice the one-way regression.
      severity_[e] += 2.0 * delta;
      ++count[e];
    }
  });
  for (std::size_t e = 0; e < severity_.size(); ++e) {
    if (count[e] > 0) severity_[e] /= count[e];
  }

  outages_ = std::make_unique<routing::OutageSchedule>(
      topo_, config_.dynamics,
      [this](topology::AdjacencyId id) { return severity_[id]; },
      stats::Rng(config_.topology.seed * 0x9e3779b9ULL + 29));
}

double Network::severity_ms(topology::AdjacencyId id) const {
  return severity_.empty() ? 0.0 : severity_.at(id);
}

Network::Resolver::Resolver(const Network& net)
    : net_(&net),
      routes_computed_(
          obs::MetricsRegistry::global().counter("s2s.simnet.routes_computed")) {}

void Network::Resolver::refresh_plane(net::Family family, net::SimTime t,
                                      Plane& plane) {
  net_->outages_->failed_mask(family, t, next_);
  if (next_ == plane.failed) return;
  // The routes and expansions derived from the old mask are stale; the
  // candidate-slot index is mask-independent and stays.
  plane.failed.swap(next_);
  plane.routes.clear();
  plane.fallbacks.clear();
}

void Network::Resolver::refresh(net::SimTime t) {
  if (t == time_) return;
  refresh_plane(net::Family::kIPv4, t, v4_);
  refresh_plane(net::Family::kIPv6, t, v6_);
  time_ = t;
}

std::optional<Network::Resolution> Network::Resolver::resolve(
    ServerId src, ServerId dst, net::Family family, net::SimTime t) {
  if (!net_->prepared()) {
    throw std::logic_error("Network::resolve before prepare()");
  }
  refresh(t);
  Plane& plane = family == net::Family::kIPv4 ? v4_ : v6_;
  const auto& topo = net_->topo_;
  const AsId src_as = topo.servers.at(src).as_id;
  const AsId dst_as = topo.servers.at(dst).as_id;
  const auto* set = net_->candidates(family).find(src_as, dst_as);
  if (set == nullptr) {
    throw std::logic_error("Network::resolve on unprepared pair");
  }

  if (const Candidate* cand = set->resolve(plane.failed)) {
    const auto slot = static_cast<std::uint32_t>(cand - set->candidates.data());
    const std::uint64_t key =
        RouterPathExpander::memo_key(src, dst, slot, family);
    auto it = slot_paths_.find(key);
    if (it == slot_paths_.end()) {
      it = slot_paths_
               .emplace(key, net_->expander_.expand(src, dst, cand->path,
                                                    family, slot))
               .first;
    }
    if (it->second != nullptr) {
      return Resolution{cand->path, it->second, false};
    }
  }
  return fallback(src, dst, family, plane);
}

std::optional<Network::Resolution> Network::Resolver::fallback(
    ServerId src, ServerId dst, net::Family family, Plane& plane) {
  // Exact fallback: every candidate (or the expansion) was blocked. The
  // answer depends only on the pair and the plane's mask, so it is kept
  // until the mask changes.
  const std::uint64_t pair_key = (std::uint64_t{src} << 32) | dst;
  auto found = plane.fallbacks.find(pair_key);
  if (found == plane.fallbacks.end()) {
    const auto& topo = net_->topo_;
    const AsId src_as = topo.servers[src].as_id;
    const AsId dst_as = topo.servers[dst].as_id;
    auto route = plane.routes.find(dst_as);
    if (route == plane.routes.end()) {
      route = plane.routes
                  .emplace(dst_as, net_->router_.compute(dst_as, family,
                                                         &plane.failed))
                  .first;
      routes_computed_.inc();
    }
    std::optional<Fallback> entry;
    if (auto as_path = net_->router_.extract(route->second, src_as)) {
      Fallback fb{std::move(*as_path), {}};
      if (net_->expander_.expand_into(src, dst, fb.as_path, family,
                                      fb.path)) {
        entry = std::move(fb);
      }
    }
    found = plane.fallbacks.emplace(pair_key, std::move(entry)).first;
  }
  if (!found->second) return std::nullopt;
  return Resolution{found->second->as_path, &found->second->path, true};
}

Network::HopDelay Network::hop_delay(const RouterHop& hop, net::Family family,
                                     net::SimTime t) const {
  HopDelay d;
  if (hop.link == topology::kInvalidId) return d;
  d.queue_ms = congestion_.queue_delay_ms(hop.link, family, t);
  if (events_ != nullptr) d.event_ms = events_->delay_ms(hop.link, family, t);
  return d;
}

void Network::hop_delays(const RouterPath& path, net::Family family,
                         net::SimTime t, std::vector<HopDelay>& out) const {
  out.resize(path.hops.size());
  for (std::size_t i = 0; i < path.hops.size(); ++i) {
    out[i] = hop_delay(path.hops[i], family, t);
  }
}

// Every sum adds each hop's queue term, then its event term, in hop order:
// the same sequence of additions whether or not a term is present, since
// adding +0.0 to the (non-negative) running total leaves it unchanged.
double Network::one_way_ms(const RouterPath& path,
                           std::span<const HopDelay> delays) {
  double total = path.total_delay_ms;
  for (const HopDelay& d : delays) {
    total += d.queue_ms;
    total += d.event_ms;
  }
  return total;
}

double Network::partial_one_way_ms(const RouterPath& path,
                                   std::size_t hop_index,
                                   std::span<const HopDelay> delays) {
  double total = path.hops.at(hop_index).cumulative_delay_ms;
  for (std::size_t i = 0; i <= hop_index; ++i) {
    total += delays[i].queue_ms;
    total += delays[i].event_ms;
  }
  return total;
}

double Network::one_way_ms(const RouterPath& path, net::Family family,
                           net::SimTime t) const {
  double total = path.total_delay_ms;
  for (const RouterHop& hop : path.hops) {
    const HopDelay d = hop_delay(hop, family, t);
    total += d.queue_ms;
    total += d.event_ms;
  }
  return total;
}

PairSample sample_dual_stack_pairs(const topology::Topology& topo,
                                   std::size_t target, std::uint64_t seed) {
  PairSample out;
  for (topology::ServerId s = 0; s < topo.servers.size(); ++s) {
    if (topo.servers[s].dual_stack()) out.dual_stack.push_back(s);
  }
  std::vector<std::pair<topology::ServerId, topology::ServerId>> all;
  for (std::size_t i = 0; i < out.dual_stack.size(); ++i) {
    for (std::size_t j = i + 1; j < out.dual_stack.size(); ++j) {
      all.emplace_back(out.dual_stack[i], out.dual_stack[j]);
    }
  }
  stats::Rng rng(seed * 7919 + 1);
  const double keep = all.empty() ? 0.0
                                  : static_cast<double>(target) /
                                        static_cast<double>(all.size());
  for (const auto& p : all) {
    if (rng.uniform() < keep) out.pairs.push_back(p);
  }
  if (out.pairs.empty() && !all.empty()) out.pairs.push_back(all.front());
  return out;
}

}  // namespace s2s::simnet
