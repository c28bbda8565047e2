// Simulated ICMP echo measurements over simnet::Network.
//
// Like the traceroute engine (traceroute.h), a ping splits into a
// non-random half, prepare(), that any thread may run with its own
// Network::Resolver, and a random half, draw(), on the engine's one RNG
// stream; run() is draw(prepare(...)).
#pragma once

#include <optional>

#include "probe/noise.h"
#include "probe/records.h"
#include "simnet/network.h"
#include "stats/rng.h"

namespace s2s::probe {

struct PingConfig {
  NoiseConfig noise;
  double loss_prob = 0.01;  ///< per-ping loss beyond routing outages
};

/// The non-random half of one ping.
struct PingFacts {
  topology::ServerId src = topology::kInvalidId;
  topology::ServerId dst = topology::kInvalidId;
  net::Family family = net::Family::kIPv4;
  net::SimTime t;
  /// Both directions routable and neither blocked by an event.
  bool reachable = false;
  double fwd_one_way_ms = 0.0;
  double rev_one_way_ms = 0.0;
};

class PingEngine {
 public:
  PingEngine(simnet::Network& net, const PingConfig& config, stats::Rng rng)
      : net_(net),
        config_(config),
        noise_(config.noise),
        rng_(rng),
        resolver_(net) {}

  /// Runs one ping. Returns nullopt when the family is not configured on
  /// either endpoint; otherwise a record (success=false on loss or when
  /// either direction is unroutable at t).
  std::optional<PingRecord> run(topology::ServerId src, topology::ServerId dst,
                                net::Family family, net::SimTime t);

  /// The non-random half: false when the family is not configured on
  /// either endpoint. Draws nothing; safe on any thread, each with its
  /// own resolver.
  bool prepare(simnet::Network::Resolver& resolver, topology::ServerId src,
               topology::ServerId dst, net::Family family, net::SimTime t,
               PingFacts& facts) const;

  /// The random half: the loss roll first, then the RTT noise.
  PingRecord draw(const PingFacts& facts);

  /// Engine RNG state, for campaign checkpointing.
  std::array<std::uint64_t, 4> rng_state() const noexcept {
    return rng_.state();
  }
  void set_rng_state(const std::array<std::uint64_t, 4>& s) noexcept {
    rng_.set_state(s);
  }

 private:
  simnet::Network& net_;
  PingConfig config_;
  NoiseModel noise_;
  stats::Rng rng_;
  simnet::Network::Resolver resolver_;  ///< run()'s
};

}  // namespace s2s::probe
