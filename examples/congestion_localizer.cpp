// Congestion localizer: the Section 5 pipeline as an operator tool —
// survey a mesh with pings, flag pairs with consistent (diurnal)
// congestion, re-probe them with traceroutes, and print the congested
// IP-IP links with their inferred owners and classification.
//
//   ./build/examples/congestion_localizer [--threads N]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/congestion_detect.h"
#include "core/congestion_study.h"
#include "core/localize.h"
#include "core/ownership.h"
#include "core/segment_series.h"
#include "exec/pool.h"
#include "probe/campaign.h"

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

  // Step 1: one week of 15-minute pings.
  probe::PingCampaignConfig ping_cfg;
  ping_cfg.start_day = 0.0;
  probe::PingCampaign pings(net, ping_cfg, pairs);
  core::PingSeriesStore ping_store(0.0, net::kFifteenMinutes, pings.epochs());
  std::printf("step 1: pinging %zu pairs every 15 minutes for a week...\n",
              pairs.size());
  pings.run([&](const probe::PingRecord& r) { ping_store.add(r); });
  const auto survey = core::survey_congestion(ping_store, {}, &pool);
  std::printf("  IPv4: %zu/%zu pairs show consistent congestion\n",
              survey.v4.consistent, survey.v4.pairs_assessed);
  std::printf("  IPv6: %zu/%zu\n", survey.v6.consistent,
              survey.v6.pairs_assessed);

  if (survey.flagged.empty()) {
    std::printf("nothing flagged; try another seed\n");
    return 0;
  }

  // Step 2: three weeks of 30-minute traceroutes on the flagged pairs.
  std::vector<std::pair<topology::ServerId, topology::ServerId>> flagged;
  for (const auto& f : survey.flagged) flagged.emplace_back(f.src, f.dst);
  probe::TracerouteCampaignConfig follow_cfg;
  follow_cfg.start_day = 7.0;
  follow_cfg.days = 21.0;
  follow_cfg.interval_s = net::kThirtyMinutes;
  follow_cfg.paris_switch_day = 0.0;
  probe::TracerouteCampaign followup(net, follow_cfg, flagged);
  core::SegmentSeriesStore segments(7.0, net::kThirtyMinutes,
                                    followup.epochs());
  const auto rels = bgp::RelationshipTable::from_topology(topo);
  core::OwnershipInference ownership(net.rib(), rels);
  std::printf("step 2: re-probing %zu flagged pairs for three weeks...\n",
              flagged.size());
  followup.run([&](const probe::TracerouteRecord& r) {
    segments.add(r);
    // Maximal responsive runs only: skipping an unresponsive hop would
    // fabricate router adjacencies and poison the heuristics.
    ownership.observe_trace(r);
  });
  ownership.finalize();

  // Step 3: localize and classify.
  const auto localization =
      core::localize_congestion(segments, net.rib(), {}, &pool);
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
