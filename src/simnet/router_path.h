// Router-level expansion of AS-level paths.
//
// Given the AS path a route resolves to, the expander picks the concrete
// interconnection link for every AS-AS transition (the parallel link whose
// facility city minimizes geographic detour) and stitches intra-AS
// shortest-delay backbone segments between ingress and egress routers.
// Expansions are deterministic per (servers, AS path, family), so they are
// memoized aggressively — long campaigns re-traverse the same few paths.
// The expander is safe to share between threads: a memo hit takes one
// shared lock, the candidate-slot memo and the intra-AS segment cache
// fill under the exclusive one, and a memoized path never moves once
// inserted.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/ip.h"
#include "topology/topology.h"

namespace s2s::simnet {

/// One traceroute-visible hop: the probe arrives at `router` over `link`.
/// For the very first hop (the source's gateway) `link` is kInvalidId.
struct RouterHop {
  topology::LinkId link = topology::kInvalidId;
  topology::RouterId router = topology::kInvalidId;
  /// One-way propagation delay from the source server up to this router.
  double cumulative_delay_ms = 0.0;
};

struct RouterPath {
  topology::ServerId src = topology::kInvalidId;
  topology::ServerId dst = topology::kInvalidId;
  std::vector<RouterHop> hops;   ///< gateway first, dst attachment last
  double total_delay_ms = 0.0;   ///< one-way, source host to dest host
};

class RouterPathExpander {
 public:
  explicit RouterPathExpander(const topology::Topology& topo);

  /// Expands `as_path` (which must start at the source server's AS and end
  /// at the destination server's AS) into a router path, memoized under
  /// (src, dst, `cache_slot`, family): the slot tags the AS path (e.g. its
  /// candidate index), so one slot must always name the same path. Returns
  /// nullptr if some AS transition has no link in the requested plane.
  /// The returned path lives as long as the expander.
  const RouterPath* expand(topology::ServerId src, topology::ServerId dst,
                           std::span<const topology::AsId> as_path,
                           net::Family family, std::uint32_t cache_slot);

  /// The memo key of (src, dst, cache_slot, family).
  static std::uint64_t memo_key(topology::ServerId src, topology::ServerId dst,
                                std::uint32_t cache_slot, net::Family family) {
    // Disjoint bit fields: servers < 2^20, candidate slots < 2^19.
    return (std::uint64_t{src} << 40) | (std::uint64_t{dst} << 20) |
           (std::uint64_t{cache_slot} << 1) |
           (family == net::Family::kIPv6 ? 1u : 0u);
  }

  /// Unmemoized expansion into `out` (one-off paths such as exact-fallback
  /// routes); false when some AS transition has no link in the plane.
  bool expand_into(topology::ServerId src, topology::ServerId dst,
                   std::span<const topology::AsId> as_path, net::Family family,
                   RouterPath& out);

  /// Delay of the server access hop (server <-> attachment router).
  static constexpr double kAccessDelayMs = 0.05;

 private:
  struct IntraKey {
    topology::RouterId from;
    topology::RouterId to;
    bool operator==(const IntraKey&) const = default;
  };
  struct IntraKeyHash {
    std::size_t operator()(const IntraKey& k) const {
      return (std::size_t{k.from} << 32) ^ k.to;
    }
  };

  /// Intra-AS shortest-delay path (sequence of internal links from `from`
  /// to `to`); empty when from == to. Returns nullptr when disconnected.
  const std::vector<topology::LinkId>* intra_path(topology::AsId as,
                                                  topology::RouterId from,
                                                  topology::RouterId to);

  /// Picks the interconnection link for an adjacency, minimizing detour
  /// relative to the current position and the final destination.
  std::optional<topology::LinkId> pick_link(topology::AdjacencyId adj,
                                            topology::RouterId from,
                                            topology::CityId dst_city,
                                            net::Family family) const;

  /// Caller holds mutex_ exclusively.
  bool build(topology::ServerId src, topology::ServerId dst,
             std::span<const topology::AsId> as_path, net::Family family,
             RouterPath& out);

  const topology::Topology& topo_;
  /// Per-router adjacency of internal links.
  std::vector<std::vector<topology::LinkId>> internal_links_;
  /// Guards intra_cache_ and path_cache_; memo hits share it.
  std::shared_mutex mutex_;
  std::unordered_map<IntraKey, std::vector<topology::LinkId>, IntraKeyHash>
      intra_cache_;
  std::unordered_map<std::uint64_t, RouterPath> path_cache_;
};

}  // namespace s2s::simnet
