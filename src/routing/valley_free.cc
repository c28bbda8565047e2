#include "routing/valley_free.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace s2s::routing {

using topology::AdjacencyId;
using topology::Adjacency;
using topology::AsId;
using topology::Relationship;
using topology::Topology;

ValleyFreeRouter::ValleyFreeRouter(const Topology& topo) : topo_(topo) {
  neighbors4_.resize(topo.ases.size());
  neighbors6_.resize(topo.ases.size());
  for (AdjacencyId id = 0; id < topo.adjacencies.size(); ++id) {
    const Adjacency& adj = topo.adjacencies[id];
    int8_t role_for_a = 0;  // b as seen from a
    int8_t role_for_b = 0;  // a as seen from b
    if (adj.rel == Relationship::kCustomerToProvider) {
      role_for_a = -1;  // a's neighbor b is a's provider
      role_for_b = +1;  // b's neighbor a is b's customer
    }
    neighbors4_[adj.a].push_back({adj.b, id, role_for_a});
    neighbors4_[adj.b].push_back({adj.a, id, role_for_b});
    if (adj.ipv6) {
      neighbors6_[adj.a].push_back({adj.b, id, role_for_a});
      neighbors6_[adj.b].push_back({adj.a, id, role_for_b});
    }
  }
  // Deterministic relaxation order (by neighbor ASN).
  auto sort_all = [&](std::vector<std::vector<Neighbor>>& lists) {
    for (auto& list : lists) {
      std::sort(list.begin(), list.end(),
                [&](const Neighbor& x, const Neighbor& y) {
                  return topo.ases[x.as].asn < topo.ases[y.as].asn;
                });
    }
  };
  sort_all(neighbors4_);
  sort_all(neighbors6_);
}

RouteTable ValleyFreeRouter::compute(AsId dest, net::Family family,
                                     const AdjacencyMask* failed) const {
  const std::size_t n = topo_.ases.size();
  constexpr std::uint16_t kInf = std::numeric_limits<std::uint16_t>::max();

  RouteTable table;
  table.dest = dest;
  table.family = family;
  table.route_class.assign(n, RouteClass::kNone);
  table.length.assign(n, kInf);
  table.next_hop.assign(n, topology::kInvalidId);
  table.via.assign(n, topology::kInvalidId);

  auto blocked = [&](AdjacencyId id) {
    return failed != nullptr && (*failed)[id];
  };
  // Deterministic tie-break on equal (class, length): lowest next-hop ASN
  // on IPv4, highest on IPv6. Operators pick v6 egress policies
  // independently of v4, which is why dual-stack paths frequently differ
  // even between the same endpoints (paper Section 6).
  const bool prefer_low = family == net::Family::kIPv4;
  auto better_neighbor = [&](AsId cand, AsId incumbent) {
    const auto a = topo_.ases[cand].asn;
    const auto b = topo_.ases[incumbent].asn;
    return prefer_low ? a < b : b < a;
  };

  // ---- Phase A: customer routes (BFS up provider edges from dest) ----
  // An AS p learns a customer route via its customer n when n's own route
  // is customer-learned (or n is the destination itself).
  table.route_class[dest] = RouteClass::kCustomer;
  table.length[dest] = 0;
  std::vector<AsId> frontier = {dest};
  std::vector<AsId> next;
  std::uint16_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (AsId nhop : frontier) {
      for (const Neighbor& nb : neighbors(nhop, family)) {
        // nb.role == -1: nb.as is nhop's provider; nhop is nb.as's customer.
        if (nb.role != -1 || blocked(nb.adj)) continue;
        AsId p = nb.as;
        if (table.route_class[p] == RouteClass::kCustomer) {
          // Already settled; same-level tie-break on next-hop ASN.
          if (table.length[p] == level &&
              better_neighbor(nhop, table.next_hop[p])) {
            table.next_hop[p] = nhop;
            table.via[p] = nb.adj;
          }
          continue;
        }
        table.route_class[p] = RouteClass::kCustomer;
        table.length[p] = level;
        table.next_hop[p] = nhop;
        table.via[p] = nb.adj;
        next.push_back(p);
      }
    }
    frontier.swap(next);
  }

  // ---- Phase B: peer routes (one hop across a p2p edge) ----
  // x learns a peer route via peer n when n's best route is customer-type.
  // Applied only where no customer route exists (customer > peer).
  struct PeerCand {
    std::uint16_t length = kInf;
    AsId next = topology::kInvalidId;
    AdjacencyId via = topology::kInvalidId;
  };
  std::vector<PeerCand> peer(n);
  for (AsId x = 0; x < n; ++x) {
    if (table.route_class[x] == RouteClass::kCustomer) continue;
    for (const Neighbor& nb : neighbors(x, family)) {
      if (nb.role != 0 || blocked(nb.adj)) continue;
      if (table.route_class[nb.as] != RouteClass::kCustomer) continue;
      const auto cand_len = static_cast<std::uint16_t>(table.length[nb.as] + 1);
      PeerCand& cur = peer[x];
      if (cand_len < cur.length ||
          (cand_len == cur.length && cur.next != topology::kInvalidId &&
           better_neighbor(nb.as, cur.next))) {
        cur = {cand_len, nb.as, nb.adj};
      }
    }
  }
  for (AsId x = 0; x < n; ++x) {
    if (peer[x].next == topology::kInvalidId) continue;
    table.route_class[x] = RouteClass::kPeer;
    table.length[x] = peer[x].length;
    table.next_hop[x] = peer[x].next;
    table.via[x] = peer[x].via;
  }

  // ---- Phase C: provider routes (bucket BFS down customer edges) ----
  // A provider exports its best route (of any class) to its customers.
  // Seeds are every AS holding a customer or peer route; propagation
  // continues down chains of c2p edges.
  std::priority_queue<std::pair<std::uint32_t, AsId>,
                      std::vector<std::pair<std::uint32_t, AsId>>,
                      std::greater<>>
      heap;
  for (AsId x = 0; x < n; ++x) {
    if (table.route_class[x] != RouteClass::kNone) {
      heap.emplace(table.length[x], x);
    }
  }
  while (!heap.empty()) {
    const auto [len, x] = heap.top();
    heap.pop();
    if (len > table.length[x]) continue;  // stale entry
    for (const Neighbor& nb : neighbors(x, family)) {
      // nb.role == +1: nb.as is x's customer, so x exports everything to it.
      if (nb.role != +1 || blocked(nb.adj)) continue;
      const AsId c = nb.as;
      if (table.route_class[c] == RouteClass::kCustomer ||
          table.route_class[c] == RouteClass::kPeer) {
        continue;  // better class already present
      }
      const auto cand_len = static_cast<std::uint16_t>(table.length[x] + 1);
      const bool improves =
          table.route_class[c] == RouteClass::kNone ||
          cand_len < table.length[c] ||
          (cand_len == table.length[c] && better_neighbor(x, table.next_hop[c]));
      if (!improves) continue;
      table.route_class[c] = RouteClass::kProvider;
      table.length[c] = cand_len;
      table.next_hop[c] = x;
      table.via[c] = nb.adj;
      heap.emplace(cand_len, c);
    }
  }

  return table;
}

std::optional<std::vector<AsId>> ValleyFreeRouter::extract(
    const RouteTable& table, AsId src) const {
  if (!table.reachable(src)) return std::nullopt;
  std::vector<AsId> path;
  AsId cur = src;
  path.push_back(cur);
  while (cur != table.dest) {
    cur = table.next_hop[cur];
    path.push_back(cur);
    if (path.size() > topo_.ases.size()) return std::nullopt;  // defensive
  }
  return path;
}

}  // namespace s2s::routing
