// Validation the paper could not do: Section 5.3's router-ownership
// heuristics scored against the simulator's ground truth (which AS really
// operates each router), including a sweep over AS-relationship inference
// noise ("...stress the need for an approach that has been thoroughly
// validated", paper Section 5.3).
#include "bench/common.h"

#include <map>

#include "core/ownership.h"

using namespace s2s;

namespace {

/// Ground truth: interface address -> owning AS, from the topology.
std::map<net::IPAddr, net::Asn> ground_truth(const topology::Topology& topo) {
  std::map<net::IPAddr, net::Asn> truth;
  auto record = [&](const topology::LinkEnd& end, bool v6) {
    const net::Asn owner = topo.ases[topo.routers[end.router].owner].asn;
    truth.emplace(net::IPAddr(end.addr4), owner);
    if (v6 && end.addr6) truth.emplace(net::IPAddr(*end.addr6), owner);
  };
  for (const auto& link : topo.links) {
    record(link.end_a, link.ipv6);
    record(link.end_b, link.ipv6);
  }
  return truth;
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::Options::parse(argc, argv);
  const bench::ObsSession obs_session("bench_ownership", opt);
  bench::print_header(
      "Ownership-inference validation against ground truth", opt);

  auto deployment = bench::make_deployment(opt);
  const auto truth = ground_truth(deployment.topo());

  // One week of full-mesh traceroutes as the path corpus.
  probe::TracerouteCampaignConfig cfg;
  cfg.days = opt.fast ? 2.0 : 7.0;
  cfg.paris_switch_day = 0.0;
  cfg.seed = opt.seed + 3;
  probe::TracerouteCampaign campaign(*deployment.net, cfg, deployment.pairs);

  std::vector<std::vector<net::IPAddr>> runs;
  std::vector<net::IPAddr> run;
  bench::note(campaign.run([&](const probe::TracerouteRecord& r) {
    core::for_each_responsive_run(r, run, [&](std::span<const net::IPAddr> p) {
      runs.emplace_back(p.begin(), p.end());
    });
  }));
  std::printf("path corpus: %zu responsive runs\n", runs.size());

  std::printf("\n%-22s %10s %10s %10s %10s\n", "relationship noise",
              "labeled", "resolved", "correct", "accuracy");
  for (const double noise : {0.0, 0.05, 0.10, 0.20}) {
    auto rels = bgp::RelationshipTable::from_topology(deployment.topo());
    if (noise > 0.0) {
      stats::Rng rng(opt.seed + 91);
      rels.perturb(rng, noise, noise / 2.0);
    }
    core::OwnershipInference inference(deployment.net->rib(), rels);
    for (const auto& path : runs) inference.observe_path(path);
    inference.finalize();
    bench::note(inference);

    std::size_t resolved = 0, correct = 0;
    for (const auto& [addr, owner] : truth) {
      const auto inferred = inference.owner(addr);
      if (!inferred) continue;
      ++resolved;
      correct += *inferred == owner;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "flip=%.0f%% drop=%.0f%%",
                  100.0 * noise, 50.0 * noise);
    std::printf("%-22s %10zu %10zu %10zu %9.1f%%\n", label,
                inference.stats().addresses, resolved, correct,
                resolved ? 100.0 * static_cast<double>(correct) /
                               static_cast<double>(resolved)
                         : 0.0);
  }

  std::printf("\nper-heuristic label volume (no noise):\n");
  {
    const auto rels = bgp::RelationshipTable::from_topology(deployment.topo());
    core::OwnershipInference inference(deployment.net->rib(), rels);
    for (const auto& path : runs) inference.observe_path(path);
    inference.finalize();
    bench::note(inference);
    const auto& s = inference.stats();
    std::printf("  first=%zu noip2as=%zu customer=%zu provider=%zu back=%zu"
                " forward=%zu | single=%zu plurality=%zu unresolved=%zu\n",
                s.labels_first, s.labels_noip2as, s.labels_customer,
                s.labels_provider, s.labels_back, s.labels_forward,
                s.resolved_single, s.resolved_first, s.unresolved);
  }
  std::printf("\npaper: ownership accuracy was unvalidated ('our method\n"
              "  annotates the likely owner of most, but not all\n"
              "  interfaces'); here ground truth shows how accuracy degrades\n"
              "  as the relationship inference gets noisier.\n");
  return 0;
}
