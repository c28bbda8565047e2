#include "probe/ping.h"

namespace s2s::probe {

std::optional<PingRecord> PingEngine::run(topology::ServerId src,
                                          topology::ServerId dst,
                                          net::Family family, net::SimTime t) {
  PingFacts facts;
  if (!prepare(resolver_, src, dst, family, t, facts)) return std::nullopt;
  return draw(facts);
}

bool PingEngine::prepare(simnet::Network::Resolver& resolver,
                         topology::ServerId src, topology::ServerId dst,
                         net::Family family, net::SimTime t,
                         PingFacts& facts) const {
  const auto& topo = net_.topo();
  if (family == net::Family::kIPv6 && (!topo.servers.at(src).dual_stack() ||
                                       !topo.servers.at(dst).dual_stack())) {
    return false;
  }
  facts = PingFacts{src, dst, family, t};
  const auto fwd = resolver.resolve(src, dst, family, t);
  // Event overlay (maintenance windows, failed links): a blocked hop drops
  // the probe in transit. The check draws no randomness, so installing an
  // event schedule never perturbs the engine's RNG stream.
  if (!fwd || net_.path_event_blocked(*fwd->path, family, t)) return true;
  const auto rev = resolver.resolve(dst, src, family, t);
  if (!rev || net_.path_event_blocked(*rev->path, family, t)) return true;
  facts.fwd_one_way_ms = net_.one_way_ms(*fwd->path, family, t);
  facts.rev_one_way_ms = net_.one_way_ms(*rev->path, family, t);
  facts.reachable = true;
  return true;
}

PingRecord PingEngine::draw(const PingFacts& facts) {
  PingRecord record;
  record.src = facts.src;
  record.dst = facts.dst;
  record.family = facts.family;
  record.time = facts.t;
  if (rng_.chance(config_.loss_prob)) return record;  // lost probe
  if (!facts.reachable) return record;
  record.rtt_ms = facts.fwd_one_way_ms + facts.rev_one_way_ms +
                  noise_.end_to_end_ms(rng_);
  record.success = true;
  return record;
}

}  // namespace s2s::probe
