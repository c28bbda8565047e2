// Candidate AS paths per ordered server-AS pair.
//
// For every (source AS, destination AS) pair used by a measurement
// campaign, we precompute the primary valley-free path plus the best
// alternate for the failure of each adjacency on that primary path.
// At simulation time, the active route under a set of failed adjacencies
// is the most-preferred candidate that avoids all failures; multi-failure
// corner cases fall back to an exact recomputation (see simnet::Network).
//
// This mirrors how BGP converges to the next-best policy-compliant path
// when a link or session fails, while keeping per-epoch resolution O(1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "routing/valley_free.h"

namespace s2s::routing {

struct Candidate {
  std::vector<topology::AsId> path;           ///< src .. dest (inclusive)
  std::vector<topology::AdjacencyId> adjs;    ///< adjacency per AS hop
  RouteClass route_class = RouteClass::kNone; ///< class at the source
  /// True for the no-failure primary path.
  bool primary = false;

  std::uint16_t length() const {
    return static_cast<std::uint16_t>(adjs.size());
  }
  /// True iff no adjacency of this path is in the failed mask.
  bool avoids(const AdjacencyMask& failed) const {
    for (auto a : adjs) {
      if (failed[a]) return false;
    }
    return true;
  }
};

/// Candidates for one ordered (src AS, dst AS) pair, most preferred first.
struct CandidateSet {
  std::vector<Candidate> candidates;

  /// Most preferred candidate avoiding `failed`, or nullptr.
  const Candidate* resolve(const AdjacencyMask& failed) const {
    for (const Candidate& c : candidates) {
      if (c.avoids(failed)) return &c;
    }
    return nullptr;
  }
};

/// Ordered (source AS, destination AS) pair.
using AsPairKey = std::uint64_t;
inline AsPairKey as_pair_key(topology::AsId src, topology::AsId dst) {
  return (std::uint64_t{src} << 32) | dst;
}

class CandidateTable {
 public:
  /// An empty table for the given protocol plane.
  explicit CandidateTable(net::Family family) : family_(family) {}
  /// Builds candidate sets for all ordered pairs, in the given protocol
  /// plane. Pairs whose destination is unreachable get an empty set.
  CandidateTable(const ValleyFreeRouter& router, net::Family family,
                 std::span<const std::pair<topology::AsId, topology::AsId>> pairs);

  /// Builds the sets of the pairs not in the table yet. A pair's set
  /// depends only on its own (src, dst), so the sets already built stay
  /// as they are (and where they are): adding pairs in several calls
  /// gives every pair the set one call over all of them would.
  void add(const ValleyFreeRouter& router,
           std::span<const std::pair<topology::AsId, topology::AsId>> pairs);

  const CandidateSet* find(topology::AsId src, topology::AsId dst) const;

  net::Family family() const noexcept { return family_; }

  /// Calls `fn(srcAs, dstAs, set)` for every pair.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, set] : sets_) {
      fn(static_cast<topology::AsId>(key >> 32),
         static_cast<topology::AsId>(key & 0xffffffffu), set);
    }
  }

 private:
  net::Family family_;
  std::unordered_map<AsPairKey, CandidateSet> sets_;
};

/// Builds a Candidate from an extracted AS path and a route table.
Candidate make_candidate(const topology::Topology& topo,
                         const RouteTable& table,
                         std::vector<topology::AsId> path, bool primary);

/// Preference order used to sort alternates: route class, then length,
/// then lexicographic ASN path (deterministic).
bool candidate_preferred(const topology::Topology& topo, const Candidate& a,
                         const Candidate& b);

}  // namespace s2s::routing
