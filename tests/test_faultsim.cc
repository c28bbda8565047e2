#include "faultsim/fault_injector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/congestion_detect.h"
#include "core/data_quality.h"
#include "core/dualstack.h"
#include "core/localize.h"
#include "core/ping_series.h"
#include "core/routing_study.h"
#include "core/segment_series.h"
#include "core/timeline.h"
#include "faultsim/block_corruptor.h"
#include "faultsim/line_mangler.h"
#include "io/binrec.h"
#include "probe/campaign.h"

namespace s2s::faultsim {
namespace {

using topology::ServerId;

probe::TracerouteRecord trace_rec(ServerId src, ServerId dst, int epoch) {
  probe::TracerouteRecord r;
  r.src = src;
  r.dst = dst;
  r.family = net::Family::kIPv4;
  r.time = net::SimTime(epoch * net::kThreeHours);
  r.method = probe::TracerouteMethod::kParis;
  r.complete = true;
  r.src_addr = *net::IPAddr::parse("10.0.0.1");
  r.dst_addr = *net::IPAddr::parse("10.9.0.1");
  r.hops.push_back({*net::IPAddr::parse("10.0.0.254"), 1.5});
  r.hops.push_back({*net::IPAddr::parse("10.9.0.1"), 3.0 + epoch});
  return r;
}

probe::PingRecord ping_rec(ServerId src, ServerId dst, int epoch) {
  probe::PingRecord r;
  r.src = src;
  r.dst = dst;
  r.family = net::Family::kIPv4;
  r.time = net::SimTime(epoch * net::kFifteenMinutes);
  r.success = true;
  r.rtt_ms = 20.0 + epoch;
  return r;
}

TEST(FaultInjector, PassthroughIsIdentity) {
  FaultConfig cfg;  // all fault probabilities zero
  std::vector<std::uint64_t> out;
  TraceFaultInjector inj(cfg, [&](const probe::TracerouteRecord& r) {
    out.push_back(core::fingerprint(r));
  });
  std::vector<std::uint64_t> in;
  for (int e = 0; e < 10; ++e) {
    const auto rec = trace_rec(1, 2, e);
    in.push_back(core::fingerprint(rec));
    inj.push(rec);
  }
  inj.flush();
  EXPECT_EQ(out, in);
  const auto& st = inj.stats();
  EXPECT_EQ(st.input, 10u);
  EXPECT_EQ(st.emitted, 10u);
  EXPECT_EQ(st.duplicated + st.held_back + st.reordered + st.invalid_rtt +
                st.skewed + st.churn_dropped + st.burst_dropped,
            0u);
}

TEST(FaultInjector, DeterministicAcrossRuns) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.duplicate_prob = 0.2;
  cfg.reorder_prob = 0.2;
  cfg.reorder_delay_min = 2;
  cfg.reorder_delay_max = 9;
  cfg.invalid_rtt_prob = 0.1;
  cfg.burst_loss_prob = 0.02;
  cfg.burst_length = 3;
  cfg.churn_prob = 0.1;
  cfg.clock_skew_max_s = 300.0;
  cfg.clock_drift_max_s_per_day = 10.0;

  const auto run = [&cfg]() {
    std::vector<std::uint64_t> out;
    TraceFaultInjector inj(cfg, [&](const probe::TracerouteRecord& r) {
      out.push_back(core::fingerprint(r));
    });
    for (int e = 0; e < 40; ++e) {
      for (ServerId s = 0; s < 4; ++s) inj.push(trace_rec(s, s + 10, e));
    }
    inj.flush();
    return std::make_pair(out, inj.stats());
  };
  const auto [out_a, st_a] = run();
  const auto [out_b, st_b] = run();
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(st_a.emitted, st_b.emitted);
  EXPECT_EQ(st_a.duplicated, st_b.duplicated);
  EXPECT_EQ(st_a.reordered, st_b.reordered);
  EXPECT_EQ(st_a.invalid_rtt, st_b.invalid_rtt);
  EXPECT_EQ(st_a.churn_dropped, st_b.churn_dropped);
  EXPECT_EQ(st_a.burst_dropped, st_b.burst_dropped);
}

TEST(FaultInjector, DuplicatesAreEmittedAdjacently) {
  FaultConfig cfg;
  cfg.duplicate_prob = 1.0;
  std::vector<std::uint64_t> out;
  PingFaultInjector inj(cfg, [&](const probe::PingRecord& r) {
    out.push_back(core::fingerprint(r));
  });
  for (int e = 0; e < 20; ++e) inj.push(ping_rec(3, 4, e));
  inj.flush();
  ASSERT_EQ(out.size(), 40u);
  for (std::size_t i = 0; i < out.size(); i += 2) {
    EXPECT_EQ(out[i], out[i + 1]) << "copy not adjacent at " << i;
  }
  EXPECT_EQ(inj.stats().duplicated, 20u);
  EXPECT_EQ(inj.stats().emitted, 40u);
}

TEST(FaultInjector, ReorderBufferHoldsAndFlushDrains) {
  FaultConfig cfg;
  cfg.seed = 13;
  cfg.reorder_prob = 0.4;
  cfg.reorder_delay_min = 50;
  cfg.reorder_delay_max = 80;
  std::size_t emitted_live = 0;
  TraceFaultInjector inj(
      cfg, [&](const probe::TracerouteRecord&) { ++emitted_live; });
  for (int e = 0; e < 200; ++e) inj.push(trace_rec(1, 2, e));
  // Some records must still be in flight before the flush.
  EXPECT_LT(emitted_live, 200u);
  inj.flush();
  const auto& st = inj.stats();
  EXPECT_EQ(st.emitted, 200u);
  EXPECT_GT(st.held_back, 0u);
  // One record per epoch, so every delayed delivery lands behind the
  // watermark and is accounted as reordered.
  EXPECT_GT(st.reordered, 0u);
  EXPECT_LE(st.reordered, st.held_back);
}

TEST(FaultInjector, ChurnIsPermanentPerServer) {
  FaultConfig cfg;
  cfg.seed = 21;
  cfg.churn_prob = 1.0;  // every server dies at some point of the campaign
  cfg.days = 485.0;
  std::vector<std::pair<ServerId, int>> emitted;
  TraceFaultInjector inj(cfg, [&](const probe::TracerouteRecord& r) {
    emitted.emplace_back(r.src, static_cast<int>(r.time.seconds() /
                                                 net::kThreeHours));
  });
  const int epochs = static_cast<int>(485.0 * 86400 / net::kThreeHours);
  for (int e = 0; e < epochs; e += 16) {
    for (ServerId s = 0; s < 3; ++s) inj.push(trace_rec(s, s + 10, e));
  }
  const auto& st = inj.stats();
  EXPECT_GT(st.churn_dropped, 0u);
  EXPECT_EQ(st.emitted + st.churn_dropped, st.input);
  // Once an endpoint dies nothing from it reappears: per server, the
  // emitted epochs form a prefix of the pushed epochs.
  for (ServerId s = 0; s < 3; ++s) {
    int last = -1;
    for (const auto& [src, e] : emitted) {
      if (src != s) continue;
      EXPECT_GT(e, last);
      last = e;
    }
  }
}

TEST(FaultInjector, BurstLossDropsEverythingAtProbabilityOne) {
  FaultConfig cfg;
  cfg.burst_loss_prob = 1.0;
  cfg.burst_length = 4;
  std::size_t emitted = 0;
  PingFaultInjector inj(cfg,
                        [&](const probe::PingRecord&) { ++emitted; });
  for (int e = 0; e < 30; ++e) inj.push(ping_rec(1, 2, e));
  inj.flush();
  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(inj.stats().burst_dropped, 30u);
}

TEST(FaultInjector, PoisonedRttsFailValidation) {
  FaultConfig cfg;
  cfg.invalid_rtt_prob = 1.0;
  std::size_t invalid_seen = 0, total = 0;
  TraceFaultInjector inj(cfg, [&](const probe::TracerouteRecord& r) {
    ++total;
    if (!core::valid_record(r)) ++invalid_seen;
  });
  for (int e = 0; e < 25; ++e) inj.push(trace_rec(1, 2, e));
  inj.flush();
  EXPECT_EQ(total, 25u);
  EXPECT_EQ(invalid_seen, 25u);
  EXPECT_EQ(inj.stats().invalid_rtt, 25u);
}

TEST(FaultInjector, ClockSkewIsConstantPerServer) {
  FaultConfig cfg;
  cfg.seed = 31;
  cfg.clock_skew_max_s = 500.0;
  std::vector<std::int64_t> shifts;
  int epoch = 0;
  PingFaultInjector inj(cfg, [&](const probe::PingRecord& r) {
    shifts.push_back(r.time.seconds() -
                     static_cast<std::int64_t>(epoch) * net::kFifteenMinutes);
  });
  for (epoch = 0; epoch < 10; ++epoch) inj.push(ping_rec(5, 6, epoch));
  inj.flush();
  ASSERT_EQ(shifts.size(), 10u);
  for (const auto s : shifts) {
    EXPECT_EQ(s, shifts.front());  // no drift configured
    EXPECT_LE(std::abs(s), 500);
  }
  EXPECT_EQ(inj.stats().skewed, inj.stats().input);
}

TEST(LineMangler, DeterministicAndNeverEmitsNewline) {
  const std::string line = "T\t1\t2\t4\t123\tparis\t1\t1.2.0.5\t1.9.0.7\t*";
  LineMangler a({42, 1.0});
  LineMangler b({42, 1.0});
  for (int i = 0; i < 200; ++i) {
    const auto ma = a.mangle(line);
    EXPECT_EQ(ma, b.mangle(line));
    EXPECT_EQ(ma.find('\n'), std::string::npos);
    EXPECT_EQ(ma.find('\r'), std::string::npos);
  }
  const auto& st = a.stats();
  EXPECT_EQ(st.lines, 200u);
  EXPECT_EQ(st.corrupted, 200u);
  EXPECT_EQ(st.byte_flips + st.truncations + st.field_deletions + st.blanked,
            st.corrupted);
}

// ---------------------------------------------------------------------------
// Chaos integration: a full campaign streamed through the injector into the
// analysis stores must detect EXACTLY the faults that were injected, and
// every analysis stage must keep producing finite statistics.
// ---------------------------------------------------------------------------

simnet::NetworkConfig chaos_net_cfg() {
  simnet::NetworkConfig cfg;
  cfg.topology.seed = 41;
  cfg.topology.tier1_count = 5;
  cfg.topology.transit_count = 25;
  cfg.topology.stub_count = 80;
  cfg.topology.server_count = 30;
  return cfg;
}

template <typename T>
void expect_all_finite(const std::vector<T>& v, const char* what) {
  for (const auto x : v) {
    EXPECT_TRUE(std::isfinite(static_cast<double>(x))) << what;
  }
}

TEST(ChaosCampaign, TracerouteQualityCountersMatchInjectedFaultsExactly) {
  simnet::Network net(chaos_net_cfg());
  std::vector<std::pair<ServerId, ServerId>> pairs{{0, 20}, {1, 21}, {2, 22}};

  probe::TracerouteCampaignConfig ccfg;
  // Day 1, not day 0: the campaign origin must sit further from t=0 than
  // the worst-case clock error, or a negatively-skewed server produces
  // negative timestamps that the stores reject as invalid while the
  // injector only counted them as skewed.
  ccfg.start_day = 1.0;
  ccfg.days = 4.0;  // 32 three-hour epochs
  ccfg.downtime.monthly_window_prob = 0.0;

  FaultConfig fcfg;
  fcfg.seed = 2024;
  fcfg.duplicate_prob = 0.08;
  fcfg.reorder_prob = 0.05;
  // Exactness preconditions (see DESIGN.md "Fault model & data quality"):
  // the reorder delay must exceed the per-epoch record count (<= 6 pairs
  // x 2 families = 12) so a held record always crosses an epoch boundary,
  // and the clock error must stay under interval/2 so the grid mapping of
  // every record is unchanged by skew.
  fcfg.reorder_delay_min = 16;
  fcfg.reorder_delay_max = 32;
  fcfg.invalid_rtt_prob = 0.06;
  fcfg.burst_loss_prob = 0.01;
  fcfg.burst_length = 5;
  fcfg.churn_prob = 0.4;
  fcfg.clock_skew_max_s = 600.0;       // << 10800 / 2
  fcfg.clock_drift_max_s_per_day = 30.0;
  fcfg.start_day = ccfg.start_day;
  fcfg.days = ccfg.days;
  fcfg.interval_s = ccfg.interval_s;

  probe::TracerouteCampaign campaign(net, ccfg, pairs);
  core::TimelineStore timelines(net.topo(), net.rib(),
                                {ccfg.start_day, net::kThreeHours});
  core::SegmentSeriesStore segments(ccfg.start_day, net::kThreeHours,
                                    campaign.epochs());
  TraceFaultInjector inj(fcfg, [&](const probe::TracerouteRecord& r) {
    timelines.add(r);
    segments.add(r);
  });
  const auto res = campaign.run(inj.as_sink());
  inj.flush();

  const auto& st = inj.stats();
  EXPECT_EQ(st.input, res.records_delivered);
  // Conservation: every input is emitted, duplicated or dropped.
  EXPECT_EQ(st.emitted,
            st.input + st.duplicated - st.churn_dropped - st.burst_dropped);
  // The configuration must actually exercise every fault class.
  EXPECT_GT(st.duplicated, 0u);
  EXPECT_GT(st.reordered, 0u);
  EXPECT_GT(st.invalid_rtt, 0u);
  EXPECT_GT(st.churn_dropped, 0u);
  EXPECT_GT(st.burst_dropped, 0u);
  EXPECT_GT(st.skewed, 0u);

  // Exact agreement between injected and detected faults, per store.
  for (const auto* q : {&timelines.quality(), &segments.quality()}) {
    EXPECT_EQ(q->duplicates_dropped, st.duplicated);
    EXPECT_EQ(q->invalid_rtt, st.invalid_rtt);
    EXPECT_EQ(q->reordered, st.reordered);
    EXPECT_EQ(q->out_of_grid, 0u);
  }
  // Everything emitted is either accepted or accounted for by a counter.
  const auto& t1 = timelines.table1();
  EXPECT_EQ(t1.v4.collected + t1.v6.collected +
                timelines.quality().duplicates_dropped +
                timelines.quality().invalid_rtt +
                timelines.quality().out_of_grid,
            st.emitted);

  // Analyses over the dirty stores: no crashes, no NaN statistics.
  core::RoutingStudyConfig rcfg;
  rcfg.min_observations = 4;
  const auto study = core::run_routing_study(timelines, rcfg);
  for (const auto* fam : {&study.v4, &study.v6}) {
    expect_all_finite(fam->unique_paths, "unique_paths");
    expect_all_finite(fam->changes, "changes");
    expect_all_finite(fam->popular_prevalence, "popular_prevalence");
    expect_all_finite(fam->delta_p10_ms, "delta_p10_ms");
    expect_all_finite(fam->delta_p90_ms, "delta_p90_ms");
  }
  EXPECT_GT(study.v4.timelines, 0u);

  timelines.for_each([&](ServerId, ServerId, net::Family,
                         const core::TraceTimeline& tl) {
    // Quality-gated timelines stay epoch-sorted even under reordering.
    for (std::size_t i = 1; i < tl.obs.size(); ++i) {
      EXPECT_GE(tl.obs[i].epoch, tl.obs[i - 1].epoch);
    }
  });

  const auto ds = core::run_dualstack_study(timelines);
  expect_all_finite(ds.pair_median_diff, "pair_median_diff");
  // Store slots hold only valid RTTs, so matching cannot surface new
  // non-finite diffs: the study's counter is exactly the store's.
  EXPECT_EQ(ds.quality.invalid_rtt, timelines.quality().invalid_rtt);

  core::LocalizeConfig lcfg;
  lcfg.min_traces = 4;
  lcfg.require_symmetric_as_paths = false;
  const auto loc = core::localize_congestion(segments, net.rib(), lcfg);
  EXPECT_LE(loc.pairs_localized, loc.pairs_considered);
  for (const auto& seg : loc.segments) {
    EXPECT_TRUE(std::isfinite(seg.rho));
    EXPECT_TRUE(std::isfinite(seg.overhead_ms));
  }
}

TEST(ChaosCampaign, PingQualityCountersMatchInjectedFaultsExactly) {
  simnet::Network net(chaos_net_cfg());
  std::vector<std::pair<ServerId, ServerId>> pairs{{0, 20}, {1, 21}};

  probe::PingCampaignConfig ccfg;
  ccfg.start_day = 1.0;  // clear of t=0 so negative skew stays in range
  ccfg.days = 1.0;       // 96 fifteen-minute epochs
  ccfg.downtime.monthly_window_prob = 0.0;
  ccfg.ping.loss_prob = 0.0;  // every accepted record fills a slot

  FaultConfig fcfg;
  fcfg.seed = 4077;
  fcfg.duplicate_prob = 0.08;
  fcfg.reorder_prob = 0.05;
  fcfg.reorder_delay_min = 12;  // > 4 pairs x 2 families per epoch
  fcfg.reorder_delay_max = 24;
  fcfg.invalid_rtt_prob = 0.06;
  fcfg.clock_skew_max_s = 100.0;  // << 900 / 2
  fcfg.clock_drift_max_s_per_day = 20.0;
  fcfg.start_day = ccfg.start_day;
  fcfg.days = ccfg.days;
  fcfg.interval_s = ccfg.interval_s;

  probe::PingCampaign campaign(net, ccfg, pairs);
  core::PingSeriesStore store(ccfg.start_day, net::kFifteenMinutes,
                              campaign.epochs());
  // A ping can come back success=false even at zero loss (transient
  // routing outage); the store skips those without a quality counter.
  // Shadow that decision so the conservation check below stays exact.
  core::IngestGate shadow("faultsim_shadow");
  const auto grid_end = static_cast<std::int64_t>(campaign.epochs());
  std::size_t failed_skipped = 0;
  PingFaultInjector inj(fcfg, [&](const probe::PingRecord& r) {
    const std::int64_t epoch =
        net::grid_epoch(r.time, ccfg.start_day, net::kFifteenMinutes);
    if (shadow.admit(core::fingerprint(r), epoch, grid_end,
                     core::valid_record(r)) &&
        !r.success) {
      ++failed_skipped;
    }
    store.add(r);
  });
  const auto res = campaign.run(inj.as_sink());
  inj.flush();

  const auto& st = inj.stats();
  EXPECT_EQ(st.input, res.records_delivered);
  EXPECT_EQ(st.emitted, st.input + st.duplicated);
  EXPECT_GT(st.duplicated, 0u);
  EXPECT_GT(st.reordered, 0u);
  EXPECT_GT(st.invalid_rtt, 0u);

  const auto& q = store.quality();
  EXPECT_EQ(q.duplicates_dropped, st.duplicated);
  EXPECT_EQ(q.invalid_rtt, st.invalid_rtt);
  EXPECT_EQ(q.reordered, st.reordered);
  EXPECT_EQ(q.out_of_grid, 0u);

  // With zero ping loss, every emitted record either fills a slot or is
  // tallied by exactly one quality counter.
  std::size_t slots = 0;
  store.for_each([&](ServerId, ServerId, net::Family,
                     const core::PingSeriesStore::Series& s) {
    slots += s.valid;
  });
  EXPECT_EQ(slots + failed_skipped + q.duplicates_dropped + q.invalid_rtt +
                q.out_of_grid,
            st.emitted);

  core::CongestionDetectConfig ccfg2;
  ccfg2.min_samples = 10;
  const auto survey = core::survey_congestion(store, ccfg2);
  EXPECT_GT(survey.v4.pairs_assessed, 0u);
  for (const auto& fp : survey.flagged) {
    EXPECT_TRUE(std::isfinite(fp.verdict.variation_ms));
    EXPECT_TRUE(std::isfinite(fp.verdict.diurnal_ratio));
  }
  // Survey-level quality report includes the store's counters verbatim:
  // invalid RTTs are dropped at ingest, never resurface post-interpolation.
  EXPECT_EQ(survey.quality.invalid_rtt, q.invalid_rtt);
  EXPECT_EQ(survey.quality.duplicates_dropped, q.duplicates_dropped);
  // The survey's own accounting: every pair either passed the min-sample
  // bar (its gap-filled slots land in interpolated_samples) or was
  // dropped as an insufficient series with its missing epochs counted.
  std::size_t pairs_dropped = 0, missing_assessed = 0, missing_dropped = 0;
  store.for_each([&](ServerId, ServerId, net::Family,
                     const core::PingSeriesStore::Series& s) {
    const std::size_t missing = s.rtt_tenths.size() - s.valid;
    if (s.valid < ccfg2.min_samples) {
      ++pairs_dropped;
      missing_dropped += missing;
    } else {
      missing_assessed += missing;
    }
  });
  EXPECT_EQ(survey.quality.insufficient_series, pairs_dropped);
  EXPECT_EQ(survey.quality.insufficient_epochs, missing_dropped);
  EXPECT_EQ(survey.quality.interpolated_samples, missing_assessed);
  for (const auto& fp : survey.flagged) {
    EXPECT_EQ(fp.verdict.invalid_samples, 0u);  // interpolation is finite
    EXPECT_LE(fp.verdict.missing_samples, fp.verdict.samples);
  }
}

// ---------------------------------------------------------------------------
// Binary-archive chaos: the campaign persisted as `.s2sb`, damaged at the
// block layer by BlockCorruptor, must lose exactly the corrupted blocks —
// the reader agrees with the injector's accounting, and the stores
// fed from the damaged archive still produce finite analyses.
// ---------------------------------------------------------------------------

TEST(ChaosCampaign, BinaryArchiveBlockCorruptionDetectedExactly) {
  simnet::Network net(chaos_net_cfg());
  std::vector<std::pair<ServerId, ServerId>> pairs{{0, 20}, {1, 21}, {2, 22}};

  probe::TracerouteCampaignConfig ccfg;
  ccfg.start_day = 1.0;
  ccfg.days = 3.0;  // 24 three-hour epochs
  ccfg.downtime.monthly_window_prob = 0.0;

  // Persist the clean campaign as a binary archive, one block per epoch
  // (flush on every epoch boundary) so block loss maps to whole epochs.
  std::ostringstream bin_out(std::ios::binary);
  io::BinRecordWriter writer(bin_out);
  std::size_t total = 0;
  probe::TracerouteCampaign campaign(net, ccfg, pairs);
  campaign.run(
      [&](const probe::TracerouteRecord& r) {
        writer.write(r);
        ++total;
      },
      [&](double) { writer.flush_block(); });
  writer.finish();
  const std::string clean = bin_out.str();

  for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
    BlockCorruptor corruptor(
        BlockCorruptorConfig{.seed = seed, .corrupt_prob = 0.3});
    const std::string damaged = corruptor.mangle(clean);
    const auto& st = corruptor.stats();
    ASSERT_GT(st.blocks, 0u);

    core::TimelineStore timelines(net.topo(), net.rib(),
                                  {ccfg.start_day, net::kThreeHours});
    std::size_t records = 0;
    io::BinRecordMmapReader reader(damaged.data(), damaged.size());
    ASSERT_TRUE(reader.ok());
    reader.read_all(
        [&](const probe::TracerouteRecord& r) {
          timelines.add(r);
          ++records;
        },
        [](const probe::PingRecord&) {});
    const io::BinReadCounters& counters = reader.counters();

    // Exact agreement between injected and detected block damage.
    EXPECT_EQ(counters.corrupt_blocks, st.corrupted) << "seed=" << seed;
    EXPECT_EQ(counters.records_read, total - st.records_lost);
    EXPECT_EQ(records, total - st.records_lost);
    EXPECT_EQ(counters.blocks_read, st.blocks - st.corrupted);

    // Whole-epoch loss is invisible to the per-record validators: the
    // surviving records are pristine, so no quality counter may tick.
    const auto& q = timelines.quality();
    EXPECT_EQ(q.duplicates_dropped, 0u);
    EXPECT_EQ(q.invalid_rtt, 0u);
    EXPECT_EQ(q.out_of_grid, 0u);

    // The depleted store still yields a finite routing study.
    core::RoutingStudyConfig rcfg;
    rcfg.min_observations = 4;
    const auto study = core::run_routing_study(timelines, rcfg);
    for (const auto* fam : {&study.v4, &study.v6}) {
      expect_all_finite(fam->unique_paths, "unique_paths");
      expect_all_finite(fam->delta_p90_ms, "delta_p90_ms");
    }
  }
}

}  // namespace
}  // namespace s2s::faultsim
