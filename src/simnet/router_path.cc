#include "simnet/router_path.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <queue>

#include "net/geo.h"

namespace s2s::simnet {

using topology::AdjacencyId;
using topology::AsId;
using topology::CityId;
using topology::LinkId;
using topology::LinkScope;
using topology::RouterId;
using topology::ServerId;
using topology::Topology;

RouterPathExpander::RouterPathExpander(const Topology& topo) : topo_(topo) {
  internal_links_.resize(topo.routers.size());
  for (LinkId id = 0; id < topo.links.size(); ++id) {
    const auto& link = topo.links[id];
    if (link.scope != LinkScope::kInternal) continue;
    internal_links_[link.end_a.router].push_back(id);
    internal_links_[link.end_b.router].push_back(id);
  }
}

const std::vector<LinkId>* RouterPathExpander::intra_path(AsId /*as*/,
                                                          RouterId from,
                                                          RouterId to) {
  const IntraKey key{from, to};
  auto it = intra_cache_.find(key);
  if (it != intra_cache_.end()) {
    return it->second.empty() && from != to ? nullptr : &it->second;
  }

  // Dijkstra over the owner AS's internal links, by delay.
  std::unordered_map<RouterId, double> dist;
  std::unordered_map<RouterId, LinkId> parent_link;
  using Item = std::pair<double, RouterId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.emplace(0.0, from);
  while (!heap.empty()) {
    const auto [d, r] = heap.top();
    heap.pop();
    if (d > dist[r]) continue;
    if (r == to) break;
    for (LinkId lid : internal_links_[r]) {
      const auto& link = topo_.links[lid];
      const RouterId other = topo_.far_end(link, r).router;
      const double nd = d + link.delay_ms;
      const auto found = dist.find(other);
      if (found == dist.end() || nd < found->second - 1e-12) {
        dist[other] = nd;
        parent_link[other] = lid;
        heap.emplace(nd, other);
      }
    }
  }

  std::vector<LinkId> path;
  if (from != to) {
    if (!dist.contains(to)) {
      // Cache the negative result as an empty path with from != to.
      intra_cache_.emplace(key, std::vector<LinkId>{});
      return nullptr;
    }
    RouterId cur = to;
    while (cur != from) {
      const LinkId lid = parent_link.at(cur);
      path.push_back(lid);
      cur = topo_.far_end(topo_.links[lid], cur).router;
    }
    std::reverse(path.begin(), path.end());
  }
  auto [slot, inserted] = intra_cache_.emplace(key, std::move(path));
  return &slot->second;
}

std::optional<LinkId> RouterPathExpander::pick_link(AdjacencyId adj,
                                                    RouterId from,
                                                    CityId dst_city,
                                                    net::Family family) const {
  const auto& adjacency = topo_.adjacencies[adj];
  const auto& from_city = topo_.cities[topo_.routers[from].city];
  const auto& final_city = topo_.cities[dst_city];
  double best = std::numeric_limits<double>::infinity();
  std::optional<LinkId> best_link;
  for (LinkId lid : adjacency.links) {
    const auto& link = topo_.links[lid];
    if (family == net::Family::kIPv6 && !link.ipv6) continue;
    const auto& link_city = topo_.cities[link.city];
    double metric =
        net::great_circle_km(from_city.location, link_city.location) +
        0.5 * net::great_circle_km(link_city.location, final_city.location);
    if (family == net::Family::kIPv6) {
      // Deterministic per-link perturbation so the IPv6 plane sometimes
      // hands off in a different facility than IPv4 (shared AS path,
      // different router path — the paper's Section 6 observation).
      const double jitter =
          static_cast<double>((lid * 2654435761u) % 1000u) / 1000.0;
      metric *= 1.0 + 0.18 * jitter;
    }
    if (metric < best) {
      best = metric;
      best_link = lid;
    }
  }
  return best_link;
}

bool RouterPathExpander::build(ServerId src, ServerId dst,
                               std::span<const AsId> as_path,
                               net::Family family, RouterPath& out) {
  const auto& source = topo_.servers[src];
  const auto& target = topo_.servers[dst];
  out.src = src;
  out.dst = dst;
  out.hops.clear();

  double delay = kAccessDelayMs;
  RouterId cur = source.attachment;
  out.hops.push_back({topology::kInvalidId, cur, delay});

  auto walk_internal = [&](AsId as, RouterId to) -> bool {
    if (cur == to) return true;
    const auto* segment = intra_path(as, cur, to);
    if (segment == nullptr) return false;
    for (LinkId lid : *segment) {
      const auto& link = topo_.links[lid];
      delay += link.delay_ms;
      cur = topo_.far_end(link, cur).router;
      out.hops.push_back({lid, cur, delay});
    }
    return true;
  };

  for (std::size_t i = 0; i + 1 < as_path.size(); ++i) {
    const auto adj = topo_.find_adjacency(as_path[i], as_path[i + 1]);
    if (!adj) return false;
    const auto lid = pick_link(*adj, cur, target.city, family);
    if (!lid) return false;
    const auto& link = topo_.links[*lid];
    // Egress router of the current AS on this link.
    const RouterId egress =
        topo_.routers[link.end_a.router].owner == as_path[i]
            ? link.end_a.router
            : link.end_b.router;
    if (!walk_internal(as_path[i], egress)) return false;
    delay += link.delay_ms;
    cur = topo_.far_end(link, cur).router;
    out.hops.push_back({*lid, cur, delay});
  }

  if (!walk_internal(as_path.back(), target.attachment)) return false;
  delay += kAccessDelayMs;
  out.total_delay_ms = delay;
  return true;
}

const RouterPath* RouterPathExpander::expand(ServerId src, ServerId dst,
                                             std::span<const AsId> as_path,
                                             net::Family family,
                                             std::uint32_t cache_slot) {
  if (as_path.empty()) return nullptr;
  const std::uint64_t key = memo_key(src, dst, cache_slot, family);
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = path_cache_.find(key);
    if (it != path_cache_.end()) return &it->second;
  }
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  const auto it = path_cache_.find(key);
  if (it != path_cache_.end()) return &it->second;
  RouterPath path;
  if (!build(src, dst, as_path, family, path)) return nullptr;
  return &path_cache_.emplace(key, std::move(path)).first->second;
}

bool RouterPathExpander::expand_into(ServerId src, ServerId dst,
                                     std::span<const AsId> as_path,
                                     net::Family family, RouterPath& out) {
  if (as_path.empty()) return false;
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  return build(src, dst, as_path, family, out);
}

}  // namespace s2s::simnet
