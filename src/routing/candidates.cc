#include "routing/candidates.h"

#include <algorithm>
#include <map>
#include <set>

namespace s2s::routing {

using topology::AdjacencyId;
using topology::AsId;
using topology::Topology;

Candidate make_candidate(const Topology& topo, const RouteTable& table,
                         std::vector<AsId> path, bool primary) {
  Candidate c;
  c.route_class = table.route_class[path.front()];
  c.primary = primary;
  c.adjs.reserve(path.size() - 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    c.adjs.push_back(*topo.find_adjacency(path[i], path[i + 1]));
  }
  c.path = std::move(path);
  return c;
}

bool candidate_preferred(const Topology& topo, const Candidate& a,
                         const Candidate& b) {
  if (a.route_class != b.route_class) return a.route_class < b.route_class;
  if (a.length() != b.length()) return a.length() < b.length();
  const std::size_t n = std::min(a.path.size(), b.path.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto asn_a = topo.ases[a.path[i]].asn;
    const auto asn_b = topo.ases[b.path[i]].asn;
    if (asn_a != asn_b) return asn_a < asn_b;
  }
  return a.path.size() < b.path.size();
}

CandidateTable::CandidateTable(
    const ValleyFreeRouter& router, net::Family family,
    std::span<const std::pair<AsId, AsId>> pairs)
    : family_(family) {
  add(router, pairs);
}

void CandidateTable::add(const ValleyFreeRouter& router,
                         std::span<const std::pair<AsId, AsId>> pairs) {
  const Topology& topo = router.topo();

  // Group the new sources by destination so each destination's tables
  // are computed once (std::map for deterministic processing order).
  std::map<AsId, std::vector<AsId>> by_dest;
  for (const auto& [src, dst] : pairs) {
    if (!sets_.try_emplace(as_pair_key(src, dst)).second) continue;
    by_dest[dst].push_back(src);
  }

  AdjacencyMask mask(topo.adjacencies.size(), false);
  for (auto& [dest, srcs] : by_dest) {
    std::sort(srcs.begin(), srcs.end());

    const RouteTable base = router.compute(dest, family_);

    // Primary paths, and which sources traverse which adjacency.
    std::map<AdjacencyId, std::vector<AsId>> users;
    for (AsId src : srcs) {
      auto path = router.extract(base, src);
      if (!path) continue;  // destination unreachable in this plane
      Candidate primary = make_candidate(topo, base, std::move(*path), true);
      for (AdjacencyId adj : primary.adjs) users[adj].push_back(src);
      sets_[as_pair_key(src, dest)].candidates.push_back(std::move(primary));
    }

    // One failure scenario per adjacency used by any primary path.
    for (const auto& [adj, using_srcs] : users) {
      mask[adj] = true;
      const RouteTable alt_table = router.compute(dest, family_, &mask);
      mask[adj] = false;
      for (AsId src : using_srcs) {
        auto path = router.extract(alt_table, src);
        if (!path) continue;  // no policy-compliant alternate
        Candidate alt =
            make_candidate(topo, alt_table, std::move(*path), false);
        auto& set = sets_[as_pair_key(src, dest)].candidates;
        const bool duplicate =
            std::any_of(set.begin(), set.end(), [&](const Candidate& c) {
              return c.path == alt.path;
            });
        if (!duplicate) set.push_back(std::move(alt));
      }
    }

    // Order: primary first, then alternates by BGP-like preference.
    for (AsId src : srcs) {
      auto& set = sets_[as_pair_key(src, dest)].candidates;
      std::stable_sort(set.begin(), set.end(),
                       [&](const Candidate& a, const Candidate& b) {
                         if (a.primary != b.primary) return a.primary;
                         return candidate_preferred(topo, a, b);
                       });
    }
  }
}

const CandidateSet* CandidateTable::find(AsId src, AsId dst) const {
  const auto it = sets_.find(as_pair_key(src, dst));
  return it == sets_.end() ? nullptr : &it->second;
}

}  // namespace s2s::routing
