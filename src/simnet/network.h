// Simulated Internet-core network: the facade the probing layer talks to.
//
// Owns the generated topology plus everything that makes it move:
//   * candidate AS paths per measurement pair (routing/candidates.h);
//   * the outage schedule, with repair times calibrated against each
//     adjacency's measured RTT regression (routing/dynamics.h);
//   * the diurnal congestion model (simnet/congestion.h);
//   * the router-level path expander (simnet/router_path.h).
//
// Usage: construct, call prepare() (or prepare_full_mesh()) with every
// ordered server pair a campaign will probe, then resolve()/one_way_ms()
// per measurement. Resolution is exact: when multiple simultaneous
// failures block every precomputed candidate, the valley-free routes are
// recomputed on the fly, cached until the failure mask changes.
//
// After prepare(), the network is read-only: every per-call state of a
// resolution (failure masks at t, fallback routes, fallback expansions)
// lives in a Network::Resolver, one per thread, over the one shared
// candidate-slot path memo (DESIGN.md section 18). Network::resolve is the
// single-thread convenience wrapper over an internal Resolver.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "bgp/relationships.h"
#include "bgp/rib.h"
#include "net/timebase.h"
#include "routing/candidates.h"
#include "routing/dynamics.h"
#include "routing/valley_free.h"
#include "simnet/congestion.h"
#include "simnet/events.h"
#include "simnet/router_path.h"
#include "topology/generator.h"

namespace s2s::simnet {

struct NetworkConfig {
  topology::GeneratorConfig topology;
  routing::DynamicsConfig dynamics;
  CongestionConfig congestion;
  /// Severity assigned to an adjacency whose failure disconnects a pair.
  double disconnect_severity_ms = 200.0;
};

class Network {
 public:
  explicit Network(const NetworkConfig& config = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const topology::Topology& topo() const noexcept { return topo_; }
  const CongestionModel& congestion() const noexcept { return congestion_; }

  /// Installs (or clears, with nullptr) an event-driven congestion overlay;
  /// not owned. While installed, one_way_ms adds event queue delays and the
  /// path_event_blocked checks report maintenance/dark-link probe loss.
  void set_events(const EventSchedule* events) noexcept { events_ = events; }
  const EventSchedule* events() const noexcept { return events_; }

  /// True when an installed event schedule drops probes crossing `path` at
  /// t (always false with no schedule installed).
  bool path_event_blocked(const RouterPath& path, net::Family family,
                          net::SimTime t) const {
    return events_ != nullptr && events_->path_blocked(path, family, t);
  }
  /// First blocked hop index of `path` at t, if any.
  std::optional<std::size_t> first_event_blocked_hop(const RouterPath& path,
                                                     net::Family family,
                                                     net::SimTime t) const {
    return events_ == nullptr ? std::nullopt
                              : events_->first_blocked_hop(path, family, t);
  }
  const bgp::Rib& rib() const noexcept { return rib_; }
  const routing::ValleyFreeRouter& router() const noexcept { return router_; }
  /// Valid after the first prepare() call.
  const routing::OutageSchedule& outages() const { return *outages_; }
  bool prepared() const noexcept { return outages_ != nullptr; }

  /// Registers the ordered server pairs a campaign will probe; builds
  /// candidate paths for the AS pairs not prepared yet. The first call
  /// also calibrates outage severities and materializes the outage
  /// schedule; later calls extend the candidate tables for new pairs
  /// only, leaving every prepared pair's candidates as they are.
  void prepare(
      std::span<const std::pair<topology::ServerId, topology::ServerId>> pairs);
  void prepare_full_mesh(std::span<const topology::ServerId> servers);

  /// A resolved route. Candidate routes point into the network's shared
  /// memo and live as long as it; fallback routes (`from_fallback`) live
  /// in the resolver that returned them, until it next sees a different
  /// failure mask (so at least until it resolves at another t).
  struct Resolution {
    std::span<const topology::AsId> as_path;
    const RouterPath* path = nullptr;
    bool from_fallback = false;
  };

  /// Per-thread resolution state over a prepared network: the failure
  /// masks at the last t, the exact-fallback route tables and expansions
  /// (kept while the masks stay the same, across any number of t), and a
  /// private index into the shared candidate-slot memo, so a memo hit
  /// takes no lock. Any number of resolvers may run at once on one
  /// network; one resolver is not itself thread-safe.
  class Resolver {
   public:
    explicit Resolver(const Network& net);

    /// Active route at time t, or nullopt when the destination is
    /// unreachable (every policy-compliant path crosses a failed
    /// adjacency, or the destination is not in the requested plane).
    std::optional<Resolution> resolve(topology::ServerId src,
                                      topology::ServerId dst,
                                      net::Family family, net::SimTime t);

   private:
    struct Fallback {
      std::vector<topology::AsId> as_path;
      RouterPath path;
    };
    /// One protocol plane's failure mask and what was derived from it.
    struct Plane {
      routing::AdjacencyMask failed;
      /// Exact routes toward a destination AS under `failed`.
      std::unordered_map<topology::AsId, routing::RouteTable> routes;
      /// (src, dst) server pair -> fallback route (nullopt: unreachable).
      std::unordered_map<std::uint64_t, std::optional<Fallback>> fallbacks;
    };
    void refresh(net::SimTime t);
    void refresh_plane(net::Family family, net::SimTime t, Plane& plane);
    std::optional<Resolution> fallback(topology::ServerId src,
                                       topology::ServerId dst,
                                       net::Family family, Plane& plane);

    const Network* net_;
    net::SimTime time_{-1};
    Plane v4_;
    Plane v6_;
    routing::AdjacencyMask next_;  ///< refresh() buffer
    /// (src, dst, candidate slot, family) -> shared memo entry (or null
    /// when the candidate has no expansion in its plane).
    std::unordered_map<std::uint64_t, const RouterPath*> slot_paths_;
    obs::Counter routes_computed_;  ///< s2s.simnet.routes_computed
  };

  /// Network::Resolver::resolve on the network's own resolver; for one
  /// thread at a time.
  std::optional<Resolution> resolve(topology::ServerId src,
                                    topology::ServerId dst, net::Family family,
                                    net::SimTime t) {
    return resolver_.resolve(src, dst, family, t);
  }

  /// Queueing and event delay of one hop at some t: the two terms the
  /// latency functions below add for it, in this order.
  struct HopDelay {
    double queue_ms = 0.0;
    double event_ms = 0.0;
  };
  /// One hop's delays at t (zero for the gateway hop, and event_ms zero
  /// with no event schedule installed).
  HopDelay hop_delay(const RouterHop& hop, net::Family family,
                     net::SimTime t) const;
  /// Every hop's delays of `path` at t, in hop order.
  void hop_delays(const RouterPath& path, net::Family family, net::SimTime t,
                  std::vector<HopDelay>& out) const;
  /// One-way latency from precomputed hop delays.
  static double one_way_ms(const RouterPath& path,
                           std::span<const HopDelay> delays);
  /// Same, truncated at hop index (inclusive); used for per-hop RTTs.
  static double partial_one_way_ms(const RouterPath& path,
                                   std::size_t hop_index,
                                   std::span<const HopDelay> delays);

  /// Deterministic one-way latency: propagation plus diurnal queueing
  /// (and event delay), without a delay buffer.
  double one_way_ms(const RouterPath& path, net::Family family,
                    net::SimTime t) const;

  /// Mean RTT regression (ms) caused by losing the adjacency, as estimated
  /// during prepare(); 0 for adjacencies no prepared pair crosses.
  double severity_ms(topology::AdjacencyId id) const;

  /// The candidate paths of every prepared AS pair in one family.
  const routing::CandidateTable& candidates(net::Family family) const {
    return family == net::Family::kIPv4 ? candidates4_ : candidates6_;
  }

 private:
  void calibrate_and_schedule();

  NetworkConfig config_;
  topology::Topology topo_;
  routing::ValleyFreeRouter router_;
  CongestionModel congestion_;
  bgp::Rib rib_;
  /// The shared candidate-slot memo; thread-safe (router_path.h).
  mutable RouterPathExpander expander_;

  routing::CandidateTable candidates4_{net::Family::kIPv4};
  routing::CandidateTable candidates6_{net::Family::kIPv6};
  std::unique_ptr<routing::OutageSchedule> outages_;
  std::vector<double> severity_;
  const EventSchedule* events_ = nullptr;
  Resolver resolver_{*this};  ///< behind Network::resolve
};

/// A measurement mesh: the dual-stack servers and the unordered pairs
/// sampled from them.
struct PairSample {
  std::vector<topology::ServerId> dual_stack;
  std::vector<std::pair<topology::ServerId, topology::ServerId>> pairs;
};

/// Keeps each unordered dual-stack pair with probability
/// target / (mesh size), on a stream derived from `seed`; never returns
/// an empty sample from a non-empty mesh.
PairSample sample_dual_stack_pairs(const topology::Topology& topo,
                                   std::size_t target, std::uint64_t seed);

}  // namespace s2s::simnet
