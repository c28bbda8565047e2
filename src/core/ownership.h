// Router-ownership inference (paper Section 5.3, Figure 8).
//
// Traceroute hop addresses are labeled with *possible* owner ASes using
// six heuristics, then one owner per address is elected:
//   first:    IPx -> IPy, both announced by ASi       => IPx possibly ASi
//   noip2as:  IPx -> IPy -> IPz, x,z in ASi, y unmapped => IPy possibly ASi
//   customer: IPx,IPy in ASi, IPz in ASj, ASj customer of ASi
//                                                     => IPy possibly ASj
//             (a customer interconnects using provider-assigned space)
//   provider: IPx in ASi, IPy in ASj, ASj provider of ASi
//                                                     => IPy possibly ASj
//             (the provider's router interface facing its customer)
//   back:     IPx1-IPy, IPx2-IPy labeled ASi; a third IPx3-IPy whose
//             address ASi announces                    => IPx3 possibly ASi
//   forward:  all links from IPx go to IPy1..IPyk, every IPy* mapped to
//             ASj and owner-labeled                    => IPx possibly ASj
//
// Election: a single candidate wins outright; with multiple candidates,
// the owner is taken from the most frequent label if that label came from
// the `first` heuristic, otherwise the address stays unresolved.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/relationships.h"
#include "bgp/rib.h"
#include "net/ip.h"
#include "probe/records.h"

namespace s2s::core {

/// Calls `fn(std::span<const net::IPAddr>)` with each maximal run of two
/// or more consecutive responsive hops of a complete traceroute, in hop
/// order; an incomplete trace has none. An unresponsive hop ends a run:
/// bridging it would fabricate a router adjacency and poison the
/// ownership heuristics. `scratch` holds the run being built.
template <typename Fn>
void for_each_responsive_run(const probe::TracerouteRecord& record,
                             std::vector<net::IPAddr>& scratch, Fn&& fn) {
  if (!record.complete) return;
  scratch.clear();
  for (const auto& hop : record.hops) {
    if (hop.addr) {
      scratch.push_back(*hop.addr);
      continue;
    }
    if (scratch.size() >= 2) fn(std::span<const net::IPAddr>(scratch));
    scratch.clear();
  }
  if (scratch.size() >= 2) fn(std::span<const net::IPAddr>(scratch));
}

enum class OwnershipHeuristic : std::uint8_t {
  kFirst,
  kNoIp2As,
  kCustomer,
  kProvider,
  kBack,
  kForward,
};

class OwnershipInference {
 public:
  OwnershipInference(const bgp::Rib& rib,
                     const bgp::RelationshipTable& relationships)
      : rib_(rib), relationships_(relationships) {}

  /// Feeds one traceroute's hop addresses, in order. Unresponsive hops
  /// must be skipped by the caller *within contiguous runs only*: pass the
  /// address list with gaps removed but adjacency preserved only across
  /// single responsive runs (use observe_path per gap-free run).
  void observe_path(std::span<const net::IPAddr> hops);

  /// Feeds every maximal responsive run of a complete traceroute to
  /// observe_path (for_each_responsive_run); incomplete traces are
  /// ignored.
  void observe_trace(const probe::TracerouteRecord& record);

  /// Runs the triple heuristics, the back/forward propagation, and the
  /// election. Call once after all paths are observed.
  void finalize();

  /// Elected owner of an address; nullopt when unresolved.
  std::optional<net::Asn> owner(const net::IPAddr& addr) const;

  struct Stats {
    std::size_t addresses = 0;
    std::size_t labels_first = 0;
    std::size_t labels_noip2as = 0;
    std::size_t labels_customer = 0;
    std::size_t labels_provider = 0;
    std::size_t labels_back = 0;
    std::size_t labels_forward = 0;
    std::size_t resolved_single = 0;   ///< one candidate
    std::size_t resolved_first = 0;    ///< plurality via `first`
    std::size_t unresolved = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Once finalized, adds the observed address links to
  /// s2s.ownership.links_observed.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const {
    if (finalized_) counters["s2s.ownership.links_observed"] += links_.size();
  }

 private:
  struct LabelSet {
    /// candidate owner -> (count, per-heuristic counts)
    std::map<std::uint32_t, std::array<std::uint32_t, 6>> votes;
  };

  void label(const net::IPAddr& addr, net::Asn owner,
             OwnershipHeuristic heuristic);
  std::optional<net::Asn> map(const net::IPAddr& addr) const {
    return rib_.origin(addr);
  }

  const bgp::Rib& rib_;
  const bgp::RelationshipTable& relationships_;

  /// Unique directed links observed (x -> y).
  std::vector<std::pair<net::IPAddr, net::IPAddr>> links_;
  std::unordered_map<net::IPAddr, LabelSet> labels_;
  std::unordered_map<net::IPAddr, net::Asn> owners_;
  /// Each address's observed next and previous hops.
  std::unordered_map<net::IPAddr, std::vector<net::IPAddr>> out_links_;
  std::unordered_map<net::IPAddr, std::vector<net::IPAddr>> in_links_;
  using Triple = std::array<net::IPAddr, 3>;
  struct TripleHash {
    std::size_t operator()(const Triple& t) const noexcept;
  };
  /// Triple windows already labelled, by their exact addresses, so a
  /// repeated window does not bias the election counts.
  std::unordered_set<Triple, TripleHash> seen_triples_;
  std::vector<net::IPAddr> run_;  ///< observe_trace's scratch run
  Stats stats_;
  bool finalized_ = false;
};

}  // namespace s2s::core
