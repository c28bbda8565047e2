// End-to-end integration: a scaled-down version of the paper's pipelines
// running against the simulator, asserting the qualitative findings.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "bgp/relationships.h"
#include "core/congestion_detect.h"
#include "core/congestion_study.h"
#include "core/dualstack.h"
#include "core/link_classify.h"
#include "core/localize.h"
#include "core/ownership.h"
#include "core/routing_study.h"
#include "core/segment_series.h"
#include "core/validate.h"
#include "io/binrec.h"
#include "io/records_io.h"
#include "obs/log.h"
#include "probe/campaign.h"
#include "stats/ecdf.h"

namespace s2s {
namespace {

using topology::ServerId;

class IntegrationFixture : public ::testing::Test {
 protected:
  static simnet::NetworkConfig config() {
    simnet::NetworkConfig cfg;
    cfg.topology.seed = 2024;
    cfg.topology.tier1_count = 6;
    cfg.topology.transit_count = 30;
    cfg.topology.stub_count = 100;
    cfg.topology.server_count = 30;
    return cfg;
  }
};

TEST_F(IntegrationFixture, LongTermPipelineProducesPaperShapedData) {
  simnet::Network net(config());
  const auto& topo = net.topo();
  std::vector<std::pair<ServerId, ServerId>> pairs;
  for (ServerId a = 0; a < topo.servers.size(); ++a) {
    for (ServerId b = a + 1; b < topo.servers.size(); ++b) {
      if (topo.servers[a].dual_stack() && topo.servers[b].dual_stack()) {
        pairs.emplace_back(a, b);
      }
    }
  }
  ASSERT_GT(pairs.size(), 100u);

  probe::TracerouteCampaignConfig campaign_cfg;
  campaign_cfg.days = 40.0;
  probe::TracerouteCampaign campaign(net, campaign_cfg, pairs);
  core::TimelineStore store(topo, net.rib(), {0.0, net::kThreeHours});
  campaign.run([&](const probe::TracerouteRecord& r) { store.add(r); });

  const auto& t1 = store.table1();
  // Completion and data-quality bands around the paper's Table 1.
  const double complete_frac =
      static_cast<double>(t1.v4.complete) / t1.v4.collected;
  EXPECT_GT(complete_frac, 0.6);
  EXPECT_LT(complete_frac, 0.95);
  const double analyzed =
      static_cast<double>(t1.v4.complete_as + t1.v4.missing_as +
                          t1.v4.missing_ip);
  EXPECT_GT(t1.v4.complete_as / analyzed, 0.45);
  EXPECT_GT(t1.v4.missing_ip / analyzed, 0.10);
  // Classic IPv6 shows more AS-path loops than (eventually Paris) IPv4.
  const double loop4 = static_cast<double>(t1.v4.as_loops) / t1.v4.complete;
  const double loop6 = static_cast<double>(t1.v6.as_loops) / t1.v6.complete;
  EXPECT_LT(loop4, 0.06);
  EXPECT_GT(loop6, loop4);

  core::RoutingStudyConfig study_cfg;
  study_cfg.min_observations = 100;
  const auto study = core::run_routing_study(store, study_cfg);
  ASSERT_GT(study.v4.timelines, 100u);
  // Most timelines fluctuate among a handful of AS paths.
  const stats::Ecdf unique_paths(study.v4.unique_paths);
  EXPECT_LE(unique_paths.quantile(0.8), 8.0);
  // Most popular path dominates for the majority of timelines.
  const stats::Ecdf prevalence(study.v4.popular_prevalence);
  EXPECT_GT(prevalence.quantile(0.5), 0.5);

  // Dual-stack: RTTs over the two protocols are broadly similar.
  const auto dual = core::run_dualstack_study(store);
  ASSERT_GT(dual.samples_matched, 1000u);
  const double similar =
      dual.diff_all.at(10.0) - dual.diff_all.at(-10.0);
  EXPECT_GT(similar, 0.25);
}

TEST_F(IntegrationFixture, DeterministicAcrossRuns) {
  auto run_once = [&]() {
    simnet::Network net(config());
    std::vector<std::pair<ServerId, ServerId>> pairs{{0, 5}, {3, 9}, {2, 7}};
    probe::TracerouteCampaignConfig cfg;
    cfg.days = 5.0;
    probe::TracerouteCampaign campaign(net, cfg, pairs);
    core::TimelineStore store(net.topo(), net.rib(), {0.0, net::kThreeHours});
    campaign.run([&](const probe::TracerouteRecord& r) { store.add(r); });
    return store.table1().v4.complete_as * 1000000 +
           store.table1().v4.missing_ip * 1000 + store.table1().v6.complete;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(IntegrationFixture, CongestionSurveyFlagsMinority) {
  simnet::Network net(config());
  const auto& topo = net.topo();
  std::vector<std::pair<ServerId, ServerId>> pairs;
  for (ServerId a = 0; a < topo.servers.size(); ++a) {
    for (ServerId b = a + 1; b < topo.servers.size(); ++b) {
      pairs.emplace_back(a, b);
    }
  }
  probe::PingCampaignConfig cfg;
  cfg.start_day = 0.0;
  cfg.days = 7.0;
  probe::PingCampaign campaign(net, cfg, pairs);
  core::PingSeriesStore store(0.0, net::kFifteenMinutes, campaign.epochs());
  campaign.run([&](const probe::PingRecord& r) { store.add(r); });

  const auto survey = core::survey_congestion(store);
  ASSERT_GT(survey.v4.pairs_assessed, 200u);
  // Consistent congestion is not the norm in the core (paper 5.1).
  EXPECT_LT(static_cast<double>(survey.v4.consistent) /
                survey.v4.pairs_assessed,
            0.15);
}

// Every batch fact has one owner, and a RunReport is built from what the
// owners export: a small campaign -> `.s2sb` -> ingest -> studies run,
// one row per owner. Each owner must export exactly its typed counts,
// and together they must cover the metric names the batch RunReports
// carry — the names dashboards and CI read.
TEST(BatchExport, EveryOwnerExportsItsTypedCountsUnderTheMetricNames) {
  simnet::NetworkConfig net_cfg;
  net_cfg.topology.seed = 7;
  net_cfg.topology.tier1_count = 6;
  net_cfg.topology.transit_count = 30;
  net_cfg.topology.stub_count = 120;
  net_cfg.topology.server_count = 30;
  simnet::Network net(net_cfg);
  const auto& topo = net.topo();
  std::vector<std::pair<ServerId, ServerId>> pairs;
  for (ServerId a = 0; a < topo.servers.size() && pairs.size() < 12; ++a) {
    for (ServerId b = a + 1; b < topo.servers.size() && pairs.size() < 12;
         ++b) {
      if (topo.servers[a].dual_stack() && topo.servers[b].dual_stack()) {
        pairs.emplace_back(a, b);
      }
    }
  }
  ASSERT_EQ(pairs.size(), 12u);

  // Campaigns -> one `.s2sb` archive and a text copy of the traceroutes.
  probe::TracerouteCampaignConfig trace_cfg;
  trace_cfg.days = 14.0;
  trace_cfg.paris_switch_day = 0.0;
  probe::TracerouteCampaign traces(net, trace_cfg, pairs);
  probe::PingCampaignConfig ping_cfg;
  ping_cfg.start_day = 0.0;
  ping_cfg.days = 7.0;
  probe::PingCampaign pings(net, ping_cfg, pairs);
  std::ostringstream bin(std::ios::binary);
  std::ostringstream text;
  io::BinRecordWriter writer(bin);
  io::RecordWriter text_writer(text);
  const probe::CampaignRunResult trace_run =
      traces.run([&](const probe::TracerouteRecord& r) {
        writer.write(r);
        text_writer.write(r);
      });
  const probe::CampaignRunResult ping_run =
      pings.run([&](const probe::PingRecord& r) { writer.write(r); });
  writer.finish();

  // Damage one block's payload: the ingest skips it on its CRC.
  std::string image = bin.str();
  const auto blocks = io::scan_blocks(image.data(), image.size());
  ASSERT_TRUE(blocks.has_value());
  ASSERT_GT(blocks->size(), 2u);
  image[(*blocks)[1].payload_offset] ^= 0x5a;
  const std::string path = ::testing::TempDir() + "s2s_batch_export_" +
                           std::to_string(::getpid()) + ".s2sb";
  std::ofstream(path, std::ios::binary) << image;

  core::TimelineStore timelines(topo, net.rib(), {0.0, net::kThreeHours});
  core::PingSeriesStore ping_store(0.0, net::kFifteenMinutes, pings.epochs());
  core::SegmentSeriesStore segments(0.0, net::kThreeHours, traces.epochs());
  const auto rels = bgp::RelationshipTable::from_topology(topo);
  core::OwnershipInference ownership(net.rib(), rels);
  const io::IngestResult ingest = io::ingest_record_file(
      path,
      [&](const probe::TracerouteRecord& r) {
        timelines.add(r);
        segments.add(r);
        ownership.observe_trace(r);
      },
      [&](const probe::PingRecord& r) { ping_store.add(r); });
  std::remove(path.c_str());
  ASSERT_TRUE(ingest.ok) << ingest.error;
  ASSERT_EQ(ingest.crc_failures, 1u);

  // The text copy, read back with one mangled line.
  obs::set_log_level(obs::LogLevel::kOff);
  std::istringstream text_in(text.str() + "T\tbroken\n");
  io::RecordReader reader(text_in);
  reader.read_all([](const probe::TracerouteRecord&) {},
                  [](const probe::PingRecord&) {});
  obs::set_log_level(obs::LogLevel::kInfo);

  core::RoutingStudyConfig routing_cfg;
  routing_cfg.min_observations = 20;
  const auto routing = core::run_routing_study(timelines, routing_cfg);
  const auto dual = core::run_dualstack_study(timelines);
  core::CongestionDetectConfig detect_cfg;
  detect_cfg.min_samples = pings.epochs() / 2;
  const auto survey = core::survey_congestion(ping_store, detect_cfg);
  core::LocalizeConfig loc_cfg;
  loc_cfg.min_traces = traces.epochs() / 4;
  loc_cfg.require_symmetric_as_paths = false;
  const auto localized =
      core::localize_congestion(segments, net.rib(), loc_cfg);
  ownership.finalize();
  const auto ixps = core::IxpDirectory::from_topology(topo);
  const core::LinkClassifier classifier(ownership, rels, ixps);
  const auto study =
      core::build_congestion_study(localized.segments, classifier, topo);
  core::ValidationStudy validation;
  validation.scenarios.resize(2);
  validation.scenarios[0].events = 3;
  validation.scenarios[0].assessed_pairs = 10;
  validation.scenarios[0].true_positives = 2;
  validation.scenarios[1].events = 4;
  validation.scenarios[1].false_positives = 1;
  validation.scenarios[1].false_negatives = 5;
  validation.scenarios[1].localizations = 6;

  // Typed twins for the stores' accepted counts.
  std::uint64_t pings_accepted = 0, segment_traces = 0;
  ping_store.for_each([&](ServerId, ServerId, net::Family,
                          const core::PingSeriesStore::Series& s) {
    pings_accepted += s.valid;
  });
  segments.for_each([&](ServerId, ServerId, net::Family,
                        const core::SegmentSeriesStore::PairSeries& s) {
    segment_traces += s.traces;
  });
  const auto store_counts = [](const std::string& subsystem,
                               std::uint64_t records,
                               const core::DataQualityReport& q) {
    const std::string p = "s2s." + subsystem + ".";
    return std::map<std::string, std::uint64_t>{
        {p + "records", records},
        {p + "drop_invalid_rtt", q.invalid_rtt},
        {p + "drop_duplicates", q.duplicates_dropped},
        {p + "drop_out_of_grid", q.out_of_grid},
        {p + "reordered", q.reordered}};
  };
  const auto& table1 = timelines.table1();
  // The run must reach every stage, or the rows below compare zeros.
  EXPECT_GT(pings_accepted, 0u);
  EXPECT_GT(segment_traces, 0u);
  EXPECT_GT(routing.v4.timelines + routing.v6.timelines, 0u);
  EXPECT_GT(dual.pairs_matched, 0u);
  EXPECT_GT(survey.v4.pairs_assessed + survey.v6.pairs_assessed, 0u);
  EXPECT_GT(survey.quality.interpolated_samples, 0u);

  struct Row {
    const char* owner;
    std::function<void(core::RunFacts&)> note;
    std::map<std::string, std::uint64_t> want;
  };
  const Row rows[] = {
      {"traceroute campaign", [&](auto& f) { f.note(trace_run); },
       {{"s2s.campaign.records", trace_run.records_delivered},
        {"s2s.campaign.epochs", trace_run.epochs_completed}}},
      {"ping campaign", [&](auto& f) { f.note(ping_run); },
       {{"s2s.campaign.records", ping_run.records_delivered},
        {"s2s.campaign.epochs", ping_run.epochs_completed}}},
      {"archive writer", [&](auto& f) { f.note(writer); },
       {{"s2s.io.binrec.blocks_written", writer.blocks_written()}}},
      {"archive ingest", [&](auto& f) { f.note(ingest); },
       {{"s2s.io.binrec.blocks_read", ingest.blocks_read},
        {"s2s.io.binrec.records_read", ingest.records},
        {"s2s.io.binrec.crc_failures", 1},
        {"s2s.io.binrec.bytes_mapped", image.size()}}},
      {"text reader", [&](auto& f) { f.note(reader); },
       {{"s2s.io.records_parsed", trace_run.records_delivered},
        {"s2s.io.malformed_retained", 1},
        {"s2s.io.malformed_dropped", 0}}},
      {"timeline store", [&](auto& f) { f.note(timelines); },
       store_counts("timeline", table1.v4.collected + table1.v6.collected,
                    timelines.quality())},
      {"ping store", [&](auto& f) { f.note(ping_store); },
       store_counts("ping_store", pings_accepted, ping_store.quality())},
      {"segment store", [&](auto& f) { f.note(segments); },
       store_counts("segments", segment_traces, segments.quality())},
      {"routing study", [&](auto& f) { f.note(routing); },
       {{"s2s.routing_study.timelines",
         routing.v4.timelines + routing.v6.timelines}}},
      {"dual-stack study", [&](auto& f) { f.note(dual); },
       {{"s2s.dualstack.pairs_matched", dual.pairs_matched},
        {"s2s.dualstack.samples_matched", dual.samples_matched}}},
      {"congestion survey", [&](auto& f) { f.note(survey); },
       {{"s2s.congestion.pairs_assessed",
         survey.v4.pairs_assessed + survey.v6.pairs_assessed},
        {"s2s.congestion.pairs_flagged", survey.flagged.size()}}},
      {"localization", [&](auto& f) { f.note(localized); },
       {{"s2s.congestion.pairs_localized", localized.pairs_localized}}},
      {"congestion study", [&](auto& f) { f.note(study); },
       {{"s2s.congestion.links_classified", study.links.size()}}},
      {"validation study", [&](auto& f) { f.note(validation); },
       {{"s2s.validate.scenarios", 2},
        {"s2s.validate.events", 7},
        {"s2s.validate.pairs_assessed", 10},
        {"s2s.validate.true_positives", 2},
        {"s2s.validate.false_positives", 1},
        {"s2s.validate.false_negatives", 5},
        {"s2s.validate.localizations", 6}}},
  };

  std::set<std::string> names;
  for (const Row& row : rows) {
    core::RunFacts facts;
    row.note(facts);
    EXPECT_EQ(facts.counters, row.want) << row.owner;
    for (const auto& [name, v] : facts.counters) names.insert(name);
  }
  // Ownership has no public twin for its link count: it exports once
  // finalized, and only then.
  core::RunFacts owned;
  owned.note(ownership);
  ASSERT_EQ(owned.counters.size(), 1u);
  EXPECT_GT(owned.counters.at("s2s.ownership.links_observed"), 0u);
  names.insert("s2s.ownership.links_observed");
  core::RunFacts unfinalized;
  unfinalized.note(core::OwnershipInference(net.rib(), rels));
  EXPECT_TRUE(unfinalized.counters.empty());

  // Campaigns set the gauges. data_quality merges each fault class from
  // its one owner: the stores' record-level drops, the survey's
  // series-level counts, the ingest's one damaged block.
  core::RunFacts all;
  for (const Row& row : rows) row.note(all);
  EXPECT_EQ(all.gauges.at("s2s.campaign.lanes"),
            static_cast<double>(ping_run.lanes));
  EXPECT_EQ(all.gauges.count("s2s.campaign.records_per_sec"), 1u);
  core::DataQualityReport want_quality(timelines.quality());
  want_quality.merge(ping_store.quality()).merge(segments.quality());
  want_quality.insufficient_epochs += survey.quality.insufficient_epochs;
  want_quality.insufficient_series += survey.quality.insufficient_series;
  want_quality.interpolated_samples += survey.quality.interpolated_samples;
  want_quality.corrupt_blocks += 1;
  EXPECT_EQ(all.quality.as_map(), want_quality.as_map());
  EXPECT_EQ(all.counters.at("s2s.campaign.records"),
            trace_run.records_delivered + ping_run.records_delivered);

  const std::set<std::string> metric_names = {
      "s2s.campaign.epochs",
      "s2s.campaign.records",
      "s2s.congestion.links_classified",
      "s2s.congestion.pairs_assessed",
      "s2s.congestion.pairs_flagged",
      "s2s.congestion.pairs_localized",
      "s2s.dualstack.pairs_matched",
      "s2s.dualstack.samples_matched",
      "s2s.io.binrec.blocks_read",
      "s2s.io.binrec.blocks_written",
      "s2s.io.binrec.bytes_mapped",
      "s2s.io.binrec.crc_failures",
      "s2s.io.binrec.records_read",
      "s2s.io.malformed_dropped",
      "s2s.io.malformed_retained",
      "s2s.io.records_parsed",
      "s2s.ownership.links_observed",
      "s2s.ping_store.drop_duplicates",
      "s2s.ping_store.drop_invalid_rtt",
      "s2s.ping_store.drop_out_of_grid",
      "s2s.ping_store.records",
      "s2s.ping_store.reordered",
      "s2s.routing_study.timelines",
      "s2s.segments.drop_duplicates",
      "s2s.segments.drop_invalid_rtt",
      "s2s.segments.drop_out_of_grid",
      "s2s.segments.records",
      "s2s.segments.reordered",
      "s2s.timeline.drop_duplicates",
      "s2s.timeline.drop_invalid_rtt",
      "s2s.timeline.drop_out_of_grid",
      "s2s.timeline.records",
      "s2s.timeline.reordered",
      "s2s.validate.events",
      "s2s.validate.false_negatives",
      "s2s.validate.false_positives",
      "s2s.validate.localizations",
      "s2s.validate.pairs_assessed",
      "s2s.validate.scenarios",
      "s2s.validate.true_positives",
  };
  EXPECT_EQ(names, metric_names);
}

}  // namespace
}  // namespace s2s
