#include "probe/traceroute.h"

#include <algorithm>

namespace s2s::probe {

using simnet::RouterPath;
using topology::LinkId;
using topology::RouterId;
using topology::ServerId;

namespace {

net::IPAddr pick_addr(const topology::LinkEnd& end, net::Family family) {
  if (family == net::Family::kIPv4) return end.addr4;
  return *end.addr6;  // caller guarantees the link carries IPv6
}

}  // namespace

TracerouteEngine::TracerouteEngine(simnet::Network& net,
                                   const TracerouteConfig& config,
                                   stats::Rng rng)
    : net_(net),
      config_(config),
      noise_(config.noise),
      rng_(rng),
      resolver_(net) {
  const auto& topo = net_.topo();
  internal_by_router_.resize(topo.routers.size());
  for (LinkId id = 0; id < topo.links.size(); ++id) {
    const auto& link = topo.links[id];
    if (link.scope != topology::LinkScope::kInternal) continue;
    internal_by_router_[link.end_a.router].push_back(id);
    internal_by_router_[link.end_b.router].push_back(id);
  }
}

std::optional<TracerouteRecord> TracerouteEngine::run(ServerId src,
                                                      ServerId dst,
                                                      net::Family family,
                                                      net::SimTime t,
                                                      TracerouteMethod method) {
  TracerouteFacts facts;
  partials_.clear();
  if (!prepare(resolver_, src, dst, family, t, method, facts, partials_)) {
    return std::nullopt;  // no probe can be sent on this plane
  }
  TracerouteRecord record;
  draw(facts, partials_, record);
  return record;
}

bool TracerouteEngine::prepare(simnet::Network::Resolver& resolver,
                               ServerId src, ServerId dst, net::Family family,
                               net::SimTime t, TracerouteMethod method,
                               TracerouteFacts& facts,
                               std::vector<double>& partials) const {
  const auto& topo = net_.topo();
  if (family == net::Family::kIPv6 && (!topo.servers.at(src).dual_stack() ||
                                       !topo.servers.at(dst).dual_stack())) {
    return false;
  }
  facts = TracerouteFacts{};
  facts.src = src;
  facts.dst = dst;
  facts.family = family;
  facts.t = t;
  facts.method = method;

  const auto fwd = resolver.resolve(src, dst, family, t);
  if (!fwd) return true;  // kNoForward
  const RouterPath& fpath = *fwd->path;
  const auto rev = resolver.resolve(dst, src, family, t);
  if (!rev || net_.path_event_blocked(*rev->path, family, t)) {
    facts.outcome = TracerouteFacts::Outcome::kNoReply;
    return true;
  }
  // Event overlay: a hop whose link an active event blocks (maintenance
  // window, failed link of a cascade) kills forward probes there — hops
  // before it answer, the run truncates at the gap limit.
  const auto blocked_hop = net_.first_event_blocked_hop(fpath, family, t);
  facts.outcome = TracerouteFacts::Outcome::kReached;
  facts.fpath = &fpath;
  facts.event_blocked = blocked_hop.has_value();
  facts.hop_limit = static_cast<std::uint32_t>(
      blocked_hop ? *blocked_hop : fpath.hops.size());
  // Each hop's queueing and event delay, once; the one-way latency and
  // every partial latency add them in the engine's fixed order.
  thread_local std::vector<simnet::Network::HopDelay> delays;
  net_.hop_delays(fpath, family, t, delays);
  facts.fwd_one_way_ms = simnet::Network::one_way_ms(fpath, delays);
  facts.partial_begin = static_cast<std::uint32_t>(partials.size());
  for (std::size_t i = 0; i < facts.hop_limit; ++i) {
    partials.push_back(simnet::Network::partial_one_way_ms(fpath, i, delays));
  }
  facts.rev_one_way_ms = net_.one_way_ms(*rev->path, family, t);
  return true;
}

void TracerouteEngine::draw(const TracerouteFacts& facts,
                            std::span<const double> partials,
                            TracerouteRecord& record) {
  const auto& topo = net_.topo();
  const auto& source = topo.servers[facts.src];
  const auto& target = topo.servers[facts.dst];
  const bool v6 = facts.family == net::Family::kIPv6;
  record.src = facts.src;
  record.dst = facts.dst;
  record.family = facts.family;
  record.time = facts.t;
  record.method = facts.method;
  record.src_addr = v6 ? net::IPAddr(*source.addr6) : net::IPAddr(source.addr4);
  record.dst_addr = v6 ? net::IPAddr(*target.addr6) : net::IPAddr(target.addr4);
  record.complete = false;
  record.hops.clear();
  // Room for every answering hop plus the longest tail: a ghost hop and
  // the five-star gap, or up to nine stars for an unroutable run.
  record.hops.reserve(std::max<std::size_t>(facts.hop_limit + 6, 10));

  using Outcome = TracerouteFacts::Outcome;
  if (facts.outcome == Outcome::kNoForward) {
    // No forward route: the gateway answers, then the probes die.
    record.hops.push_back(
        {v6 ? net::IPAddr(*source.gateway_addr6)
            : net::IPAddr(source.gateway_addr4),
         2.0 * simnet::RouterPathExpander::kAccessDelayMs +
             noise_.hop_ms(rng_)});
    const int stars = 3 + static_cast<int>(rng_.below(5));
    for (int i = 0; i < stars; ++i) record.hops.push_back({std::nullopt, 0.0});
    return;
  }
  if (facts.outcome == Outcome::kNoReply) {
    // Replies cannot return: the whole run reads as unresponsive.
    const int stars = 4 + static_cast<int>(rng_.below(6));
    for (int i = 0; i < stars; ++i) record.hops.push_back({std::nullopt, 0.0});
    return;
  }

  // Intermediate hops: the routers of the forward expansion.
  const RouterPath& fpath = *facts.fpath;
  for (std::size_t i = 0; i < facts.hop_limit; ++i) {
    const auto& hop = fpath.hops[i];
    Hop out;
    const auto& router = topo.routers[hop.router];
    const bool responsive = rng_.uniform() < router.icmp_response_rate &&
                            !rng_.chance(config_.noise.probe_loss_prob);
    if (responsive) {
      if (i == 0) {
        out.addr = v6 ? net::IPAddr(*source.gateway_addr6)
                      : net::IPAddr(source.gateway_addr4);
      } else {
        const auto& link = topo.links[hop.link];
        out.addr = pick_addr(topo.near_end(link, hop.router), facts.family);
      }
      out.rtt_ms = 2.0 * partials[facts.partial_begin + i] +
                   noise_.hop_ms(rng_);
    }
    record.hops.push_back(std::move(out));
  }

  if (facts.event_blocked) {
    const int stars = 5;  // gap limit before the prober gives up
    for (int i = 0; i < stars; ++i) record.hops.push_back({std::nullopt, 0.0});
    return;
  }

  if (facts.method == TracerouteMethod::kClassic) {
    apply_classic_artifacts(record, fpath);
  }

  // Filtering / rate limiting / transient loss kills some runs mid-path.
  if (rng_.chance(config_.stop_early_prob)) {
    const std::size_t keep = 1 + rng_.below(record.hops.size());
    record.hops.resize(keep);
    const int stars = 5;  // gap limit before the prober gives up
    for (int i = 0; i < stars; ++i) record.hops.push_back({std::nullopt, 0.0});
    return;
  }

  // Destination hop: true forward + reverse one-way delays.
  Hop last;
  last.addr = record.dst_addr;
  last.rtt_ms = facts.fwd_one_way_ms + facts.rev_one_way_ms +
                noise_.end_to_end_ms(rng_);
  record.hops.push_back(std::move(last));
  record.complete = true;
}

void TracerouteEngine::apply_classic_artifacts(TracerouteRecord& record,
                                               const RouterPath& fpath) {
  const auto& topo = net_.topo();
  const double loop_prob = record.family == net::Family::kIPv4
                               ? config_.classic_loop_prob_v4
                               : config_.classic_loop_prob_v6;

  // IP-level churn first (it does not change hop alignment): one internal
  // hop answers from a sibling interface of the same router.
  if (rng_.chance(config_.classic_false_hop_prob)) {
    for (std::size_t i = 2; i < record.hops.size() &&
                            i < fpath.hops.size();
         ++i) {
      auto& hop = record.hops[i];
      if (!hop.addr) continue;
      const auto& step = fpath.hops[i];
      if (step.link == topology::kInvalidId ||
          topo.links[step.link].scope != topology::LinkScope::kInternal) {
        continue;
      }
      for (LinkId sibling : internal_by_router_[step.router]) {
        if (sibling == step.link) continue;
        const auto& other = topo.links[sibling];
        if (record.family == net::Family::kIPv6 && !other.ipv6) continue;
        hop.addr = pick_addr(topo.near_end(other, step.router), record.family);
        i = record.hops.size();  // done
        break;
      }
    }
  }

  // Apparent AS loop: a per-flow load balancer interleaves two parallel
  // paths, so an address from the previous AS shows up again after the AS
  // boundary (A B A ...).
  if (rng_.chance(loop_prob)) {
    for (std::size_t i = 2; i < record.hops.size() && i < fpath.hops.size();
         ++i) {
      if (!record.hops[i].addr || !record.hops[i - 1].addr) continue;
      const auto owner_prev = topo.routers[fpath.hops[i - 1].router].owner;
      const auto owner_cur = topo.routers[fpath.hops[i].router].owner;
      if (owner_prev == owner_cur) continue;
      Hop ghost;
      ghost.addr = *record.hops[i - 1].addr;
      ghost.rtt_ms = record.hops[i].rtt_ms + rng_.uniform(0.1, 2.0);
      record.hops.insert(
          record.hops.begin() + static_cast<std::ptrdiff_t>(i + 1),
          std::move(ghost));
      break;
    }
  }
}

}  // namespace s2s::probe
