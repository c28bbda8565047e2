// Simulated traceroute over simnet::Network.
//
// Reproduces the measurement-level behaviour the paper's pipeline has to
// cope with (Section 2.1):
//   * hop addresses are the ingress interfaces of the routers on the
//     forward path (gateway first, destination address last);
//   * silent routers and per-probe loss yield unresponsive hops ("*");
//   * probes that die mid-path (filtering, rate limiting, reachability
//     problems) yield incomplete traceroutes (~25% in the paper);
//   * classic traceroute varies the flow identifier per probe, so per-flow
//     load balancers can interleave parallel paths and manufacture
//     apparent AS loops (2.16% of IPv4, 5.5% of IPv6 traceroutes in the
//     paper); Paris traceroute holds the flow fixed and avoids this.
//
// The per-hop RTT model is symmetric along the forward path (2x the
// partial one-way delay plus both-direction queueing); the end-to-end hop
// uses the true forward + reverse one-way delays, so end-to-end series
// reflect reverse-path routing changes too. See DESIGN.md for the
// asymmetry discussion.
//
// A probe splits into two halves (DESIGN.md section 18). prepare() is the
// non-random half: forward and reverse routes, event blocking, one-way
// latencies and per-hop partial latencies. It only reads the network, so
// any thread may run it with its own Network::Resolver. draw() is the
// random half: every RNG draw, in the engine's one stream, and building
// the record. run() is draw(prepare(...)).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "probe/noise.h"
#include "probe/records.h"
#include "simnet/network.h"
#include "stats/rng.h"

namespace s2s::probe {

struct TracerouteConfig {
  NoiseConfig noise;
  /// Probability the probe run dies before the destination (filtering /
  /// rate limiting / transient reachability), beyond routing outages.
  double stop_early_prob = 0.20;
  /// Classic-traceroute artifact rates (per traceroute, when a per-flow
  /// load balancer is plausible on the path).
  double classic_loop_prob_v4 = 0.028;
  double classic_loop_prob_v6 = 0.070;
  /// Substitute one internal hop with a sibling interface (IP-level churn
  /// without AS-level change).
  double classic_false_hop_prob = 0.03;
  int max_ttl = 64;
};

/// The non-random half of one traceroute.
struct TracerouteFacts {
  enum class Outcome : std::uint8_t {
    kNoForward,  ///< no forward route: the gateway answers, then nothing
    kNoReply,    ///< replies cannot return: every hop reads unresponsive
    kReached,    ///< the forward path answers up to `hop_limit`
  };
  topology::ServerId src = topology::kInvalidId;
  topology::ServerId dst = topology::kInvalidId;
  net::Family family = net::Family::kIPv4;
  net::SimTime t;
  TracerouteMethod method = TracerouteMethod::kClassic;
  Outcome outcome = Outcome::kNoForward;
  /// Forward expansion (kReached); owned by the network's memo or by the
  /// resolver prepare() ran on.
  const simnet::RouterPath* fpath = nullptr;
  /// Hops before the first event-blocked one (all of them when none is).
  std::uint32_t hop_limit = 0;
  bool event_blocked = false;
  /// Offset of hops [0, hop_limit)'s partial one-way latencies in the
  /// caller's latency buffer.
  std::uint32_t partial_begin = 0;
  double fwd_one_way_ms = 0.0;
  double rev_one_way_ms = 0.0;
};

class TracerouteEngine {
 public:
  TracerouteEngine(simnet::Network& net, const TracerouteConfig& config,
                   stats::Rng rng);

  /// Runs one traceroute. Returns nullopt only when the requested family
  /// is not configured on either endpoint (no probe is even sent).
  std::optional<TracerouteRecord> run(topology::ServerId src,
                                      topology::ServerId dst,
                                      net::Family family, net::SimTime t,
                                      TracerouteMethod method);

  /// The non-random half: fills `facts`, appending the partial one-way
  /// latencies to `partials`. False (and nothing appended) when the family
  /// is not configured on either endpoint. Draws nothing; safe on any
  /// thread, each with its own resolver and buffers.
  bool prepare(simnet::Network::Resolver& resolver, topology::ServerId src,
               topology::ServerId dst, net::Family family, net::SimTime t,
               TracerouteMethod method, TracerouteFacts& facts,
               std::vector<double>& partials) const;

  /// The random half: draws `facts`' record from the engine's stream into
  /// `record` (overwritten; its hop capacity is reused). `partials` is
  /// the buffer prepare() appended to.
  void draw(const TracerouteFacts& facts, std::span<const double> partials,
            TracerouteRecord& record);

  /// Engine RNG state, for campaign checkpointing: restoring it replays
  /// the probe stream from exactly the captured point.
  std::array<std::uint64_t, 4> rng_state() const noexcept {
    return rng_.state();
  }
  void set_rng_state(const std::array<std::uint64_t, 4>& s) noexcept {
    rng_.set_state(s);
  }

 private:
  void apply_classic_artifacts(TracerouteRecord& record,
                               const simnet::RouterPath& fpath);

  simnet::Network& net_;
  TracerouteConfig config_;
  NoiseModel noise_;
  stats::Rng rng_;
  /// Internal links adjacent to each router (sibling-interface artifacts).
  std::vector<std::vector<topology::LinkId>> internal_by_router_;
  // run()'s state: its own resolver and buffers.
  simnet::Network::Resolver resolver_;
  std::vector<double> partials_;
};

}  // namespace s2s::probe
