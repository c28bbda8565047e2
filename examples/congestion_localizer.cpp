// Congestion localizer: the Section 5 pipeline as an operator tool —
// core::run_congestion_chain surveys a mesh with pings, flags pairs with
// consistent (diurnal) congestion, re-probes them with traceroutes and
// localizes the congested segments, with the paper's method constants;
// this example prints the congested IP-IP links with their inferred
// owners and classification.
//
//   ./build/examples/congestion_localizer [--threads N]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/congestion_chain.h"
#include "core/congestion_study.h"
#include "core/ownership.h"
#include "exec/pool.h"

using namespace s2s;

int main(int argc, char** argv) {
  int threads = 0;  // 0 = auto (S2S_THREADS env, else hardware)
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], "--threads")) threads = std::atoi(argv[++i]);
  }
  exec::ThreadPool pool(threads > 0 ? static_cast<unsigned>(threads) : 0u);
  simnet::NetworkConfig config;
  config.topology.seed = 11;
  config.topology.server_count = 70;
  // Make congestion a little denser than the defaults so the demo always
  // has something to show.
  config.congestion.internal_fraction = 0.01;
  config.congestion.private_interconnect_fraction = 0.02;
  simnet::Network net(config);
  const auto& topo = net.topo();

  std::vector<std::pair<topology::ServerId, topology::ServerId>> pairs;
  for (topology::ServerId a = 0; a < topo.servers.size(); ++a) {
    for (topology::ServerId b = a + 1; b < topo.servers.size(); ++b) {
      pairs.emplace_back(a, b);
    }
  }

  // Steps 1-3 are the Section 5 chain: one week of 15-minute pings, the
  // congestion survey, three weeks of 30-minute traceroutes on the flagged
  // pairs (their hops also feed the ownership inference), localization.
  const auto rels = bgp::RelationshipTable::from_topology(topo);
  core::OwnershipInference ownership(net.rib(), rels);
  core::CongestionChainConfig chain_cfg;
  chain_cfg.ping = {0.0, 7.0, 11};
  chain_cfg.followup = {7.0, 21.0, 7};
  std::printf("pinging %zu pairs every 15 minutes for a week, then "
              "re-probing the flagged ones for three weeks...\n",
              pairs.size());
  const auto chain = core::run_congestion_chain(
      net, pairs, chain_cfg, &pool, nullptr,
      [&](const probe::TracerouteRecord& r) {
        // Maximal responsive runs only: skipping an unresponsive hop would
        // fabricate router adjacencies and poison the heuristics.
        ownership.observe_trace(r);
      });
  const auto& survey = chain.survey;
  std::printf("step 1: IPv4: %zu/%zu pairs show consistent congestion\n",
              survey.v4.consistent, survey.v4.pairs_assessed);
  std::printf("  IPv6: %zu/%zu\n", survey.v6.consistent,
              survey.v6.pairs_assessed);
  if (!chain.segments) {
    std::printf("nothing flagged; try another seed\n");
    return 0;
  }
  std::printf("step 2: re-probed %zu flagged pairs\n",
              chain.followup_pairs.size());
  ownership.finalize();

  // Step 3: classify the localized links.
  const auto& localization = chain.localization;
  const auto ixps = core::IxpDirectory::from_topology(topo);
  const core::LinkClassifier classifier(ownership, rels, ixps);
  const auto study =
      core::build_congestion_study(localization.segments, classifier, topo);

  std::printf("step 3: %zu pairs localized onto %zu unique links\n",
              localization.pairs_localized, study.links.size());
  for (const auto& link : study.links) {
    const char* kind = link.cls.kind == core::LinkKind::kInternal
                           ? "internal"
                       : link.cls.kind == core::LinkKind::kInterconnection
                           ? "interconnection"
                           : "unknown";
    std::printf("  %s -> %s  [%s%s]  owners %s/%s  overhead %.0f ms,"
                " %zu pairs cross it\n",
                link.near ? link.near->to_string().c_str() : "?",
                link.far ? link.far->to_string().c_str() : "?", kind,
                link.cls.public_ixp ? ", public IXP" : "",
                link.cls.owner_near ? link.cls.owner_near->to_string().c_str()
                                    : "?",
                link.cls.owner_far ? link.cls.owner_far->to_string().c_str()
                                   : "?",
                link.overhead_ms, link.crossing_pairs);
  }
  return 0;
}
