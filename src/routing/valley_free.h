// Per-destination valley-free (Gao-Rexford) route computation.
//
// Standard BGP policy model:
//   * export rules: an AS exports everything to its customers, but only its
//     own prefixes and customer-learned routes to peers and providers;
//   * selection: customer routes over peer routes over provider routes,
//     then shortest AS-path, then lowest next-hop ASN (deterministic).
//
// compute() runs the classic three-phase propagation (customer BFS up,
// one-hop peer step, provider BFS down) in O(V + E) per destination, with
// an optional mask of failed adjacencies and a per-family (IPv4/IPv6)
// adjacency plane.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/asn.h"
#include "net/ip.h"
#include "topology/topology.h"

namespace s2s::routing {

/// failed[adjacency] == true removes that AS adjacency from the plane.
using AdjacencyMask = std::vector<bool>;

/// Route class in preference order (smaller is better); kNone = unreachable.
enum class RouteClass : std::uint8_t {
  kCustomer = 1,
  kPeer = 2,
  kProvider = 3,
  kNone = 255,
};

/// Routes from every AS toward one destination AS.
struct RouteTable {
  topology::AsId dest = topology::kInvalidId;
  net::Family family = net::Family::kIPv4;
  std::vector<RouteClass> route_class;       // per AS
  std::vector<std::uint16_t> length;         // AS hops to dest
  std::vector<topology::AsId> next_hop;      // neighbor toward dest
  std::vector<topology::AdjacencyId> via;    // adjacency to that neighbor

  bool reachable(topology::AsId src) const {
    return route_class[src] != RouteClass::kNone;
  }
};

class ValleyFreeRouter {
 public:
  explicit ValleyFreeRouter(const topology::Topology& topo);

  /// Computes the route table toward `dest` in the given protocol plane.
  /// `failed` (optional) masks adjacencies out of the plane.
  RouteTable compute(topology::AsId dest, net::Family family,
                     const AdjacencyMask* failed = nullptr) const;

  /// AS-level path src -> ... -> dest from a table; nullopt if unreachable.
  std::optional<std::vector<topology::AsId>> extract(const RouteTable& table,
                                                     topology::AsId src) const;

  const topology::Topology& topo() const noexcept { return topo_; }

 private:
  struct Neighbor {
    topology::AsId as;
    topology::AdjacencyId adj;
    /// Role of the neighbor relative to the owning AS:
    /// +1 the neighbor is our customer, 0 peer, -1 the neighbor is our
    /// provider.
    int8_t role;
  };

  const std::vector<Neighbor>& neighbors(topology::AsId as,
                                         net::Family family) const {
    return family == net::Family::kIPv4 ? neighbors4_[as] : neighbors6_[as];
  }

  const topology::Topology& topo_;
  std::vector<std::vector<Neighbor>> neighbors4_;
  std::vector<std::vector<Neighbor>> neighbors6_;
};

}  // namespace s2s::routing
