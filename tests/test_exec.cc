// exec::ThreadPool unit tests plus the golden serial-vs-parallel
// contract: every converted analysis pass must produce byte-identical
// results at 1, 2 and 8 threads (DESIGN.md section 9).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/congestion_chain.h"
#include "core/congestion_detect.h"
#include "core/dualstack.h"
#include "core/localize.h"
#include "core/routing_study.h"
#include "exec/ordered.h"
#include "exec/parallel_for.h"
#include "exec/pool.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "probe/campaign.h"

namespace s2s {
namespace {

using topology::ServerId;

/// Sets S2S_THREADS for one case and puts back whatever the process
/// had (the CI sets it for the whole binary), so later cases in the same
/// process resolve the same width as before.
class ScopedThreadsEnv {
 public:
  ScopedThreadsEnv() {
    if (const char* v = std::getenv("S2S_THREADS")) saved_ = v;
  }
  ~ScopedThreadsEnv() {
    if (saved_) {
      ::setenv("S2S_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("S2S_THREADS");
    }
  }
  void set(const char* value) const { ::setenv("S2S_THREADS", value, 1); }
  void unset() const { ::unsetenv("S2S_THREADS"); }

 private:
  std::optional<std::string> saved_;
};

TEST(ResolveThreadCount, ExplicitRequestWins) {
  const ScopedThreadsEnv env;
  env.set("3");
  EXPECT_EQ(exec::resolve_thread_count(5), 5u);
}

TEST(ResolveThreadCount, EnvOverridesAuto) {
  const ScopedThreadsEnv env;
  env.set("3");
  EXPECT_EQ(exec::resolve_thread_count(0), 3u);
}

TEST(ResolveThreadCount, GarbageEnvFallsBackToHardware) {
  const ScopedThreadsEnv env;
  for (const char* bad : {"abc", "-2", "0", "3x", ""}) {
    env.set(bad);
    EXPECT_EQ(exec::resolve_thread_count(0), exec::hardware_threads()) << bad;
  }
  env.unset();
  EXPECT_EQ(exec::resolve_thread_count(0), exec::hardware_threads());
  EXPECT_GE(exec::hardware_threads(), 1u);
}

TEST(ResolveThreadCount, OverflowAndHugeEnvValuesAreRejected) {
  const ScopedThreadsEnv env;
  // strtol clamps overflow to LONG_MAX (> 0), so without an ERANGE check
  // these would silently coerce to absurd worker counts.
  for (const char* bad :
       {"99999999999999999999", "9223372036854775807", "4097", "1e3", "+",
        "--3"}) {
    env.set(bad);
    EXPECT_EQ(exec::resolve_thread_count(0), exec::hardware_threads()) << bad;
  }
  // The cap itself is still accepted.
  env.set("4096");
  EXPECT_EQ(exec::resolve_thread_count(0), 4096u);
}

TEST(ResolveThreadCount, BadEnvWarnsOncePerValue) {
  const ScopedThreadsEnv env;
  // A value no earlier case (or earlier repeat of this one) has set, so
  // the check holds in one process under --gtest_repeat and shuffling.
  static int run = 0;
  const std::string value = "bogus-once-" + std::to_string(++run);
  std::vector<std::string> messages;
  obs::set_log_sink([&](obs::LogLevel level, std::string_view message) {
    if (level == obs::LogLevel::kWarn) messages.emplace_back(message);
  });
  env.set(value.c_str());
  exec::resolve_thread_count(0);
  exec::resolve_thread_count(0);
  exec::resolve_thread_count(0);
  obs::set_log_sink({});
  const auto mentions = [&](const std::string& needle) {
    std::size_t n = 0;
    for (const auto& m : messages) {
      if (m.find(needle) != std::string::npos) ++n;
    }
    return n;
  };
  EXPECT_EQ(mentions('"' + value + '"'), 1u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  constexpr std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.run(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SerialPoolRunsInlineInIndexOrder) {
  exec::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.run(64, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, PropagatesFirstTaskException) {
  exec::ThreadPool pool(4);
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      pool.run(100,
               [&](std::size_t i) {
                 executed.fetch_add(1, std::memory_order_relaxed);
                 if (i == 17) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // A poisoned batch still runs every index (claimed work is never
  // abandoned), and the pool stays usable afterwards.
  EXPECT_EQ(executed.load(), 100u);
  std::atomic<std::size_t> after{0};
  pool.run(10, [&](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 10u);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  exec::ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    pool.run(97, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50u * 97u);
}

TEST(OrderedPipeline, CommitsEveryItemInIndexOrderAtAnyWidth) {
  constexpr std::size_t kItems = 2000;
  for (const unsigned width : {1u, 2u, 8u}) {
    exec::ThreadPool pool(width);
    std::vector<std::size_t> committed;
    std::vector<std::uint64_t> values;
    struct Slot {
      std::size_t item = 0;
      std::uint64_t value = 0;
    };
    exec::ordered_pipeline<Slot>(
        &pool, kItems,
        [](std::size_t i, Slot& slot) {
          // Uneven work, so lanes finish out of order.
          if (i % 7 == 0) std::this_thread::yield();
          slot.item = i;
          slot.value = i * i + 1;
        },
        [&](std::size_t i, Slot& slot) {
          // A committer that falls behind fills the ring, so preparing
          // lanes wait for slots and reuse each one many times over.
          if (i % 64 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          EXPECT_EQ(slot.item, i);
          committed.push_back(i);
          values.push_back(slot.value);
        });
    ASSERT_EQ(committed.size(), kItems) << "width " << width;
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(committed[i], i) << "width " << width;
      ASSERT_EQ(values[i], i * i + 1);
    }
  }
}

TEST(OrderedPipeline, FirstExceptionStopsThePipelineAndIsRethrown) {
  for (const unsigned width : {1u, 4u}) {
    exec::ThreadPool pool(width);
    std::size_t commits = 0;
    struct Slot {
      std::size_t item = 0;
    };
    EXPECT_THROW(
        exec::ordered_pipeline<Slot>(
            &pool, 500,
            [](std::size_t i, Slot& slot) {
              if (i == 137) throw std::runtime_error("bad block");
              slot.item = i;
            },
            [&](std::size_t, Slot&) { ++commits; }),
        std::runtime_error);
    EXPECT_LE(commits, 137u) << "width " << width;
  }
}

TEST(OrderedPipeline, ABusyLeaseRunsAtWidthOne) {
  const exec::PoolLease first;
  ASSERT_NE(first.pool(), nullptr);
  EXPECT_EQ(first.pool()->thread_count(), exec::resolve_thread_count());
  const exec::PoolLease second;
  EXPECT_EQ(second.pool(), nullptr);
}

TEST(ParallelFor, NullPoolRunsInlineInShardOrder) {
  std::vector<std::size_t> order;
  exec::parallel_for(nullptr, 8, "test.shard",
                     [&](std::size_t s) { order.push_back(s); });
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ShardedReduce, MergesPartialsInShardOrder) {
  exec::ThreadPool pool(4);
  std::vector<std::size_t> merged;
  exec::sharded_reduce<std::vector<std::size_t>>(
      &pool, 16, "test.shard",
      [](std::size_t shard, std::vector<std::size_t>& partial) {
        partial.push_back(shard);
      },
      [&](const std::vector<std::size_t>& partial) {
        merged.insert(merged.end(), partial.begin(), partial.end());
      });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(merged, expected);
}

// ---------------------------------------------------------------------
// Golden serial-vs-parallel equality on a seeded simnet deployment.

// Full-precision (hexfloat) serializers: equal strings mean bit-equal
// doubles, not just close ones.
void put(std::ostream& os, double v) { os << std::hexfloat << v << '\n'; }
void put(std::ostream& os, std::size_t v) { os << v << '\n'; }

void put_quality(std::ostream& os, const core::DataQualityReport& q) {
  os << q.to_string() << '\n';
}

std::string serialize(const core::CongestionSurvey& s) {
  std::ostringstream os;
  for (const auto* fam : {&s.v4, &s.v6}) {
    put(os, fam->pairs_total);
    put(os, fam->pairs_assessed);
    put(os, fam->high_variation);
    put(os, fam->consistent);
  }
  for (const auto& f : s.flagged) {
    os << f.src << ',' << f.dst << ',' << static_cast<int>(f.family) << ':';
    put(os, f.verdict.samples);
    put(os, f.verdict.missing_samples);
    put(os, f.verdict.variation_ms);
    put(os, f.verdict.diurnal_ratio);
  }
  put_quality(os, s.quality);
  return os.str();
}

std::string serialize(const core::LocalizeResult& r) {
  std::ostringstream os;
  put(os, r.pairs_considered);
  put(os, r.pairs_static);
  put(os, r.pairs_symmetric);
  put(os, r.pairs_persistent);
  put(os, r.pairs_localized);
  for (const auto& seg : r.segments) {
    os << seg.src << ',' << seg.dst << ',' << static_cast<int>(seg.family)
       << ',' << seg.segment_index << ':';
    put(os, seg.rho);
    put(os, seg.diurnal_ratio);
    put(os, seg.overhead_ms);
  }
  return os.str();
}

std::string serialize(const core::DualStackStudy& s) {
  std::ostringstream os;
  put(os, s.pairs_matched);
  put(os, static_cast<std::size_t>(s.samples_matched));
  put(os, static_cast<std::size_t>(s.samples_same_path));
  os << s.diff_all.to_tsv() << s.diff_same_path.to_tsv();
  for (double d : s.pair_median_diff) put(os, d);
  put_quality(os, s.quality);
  return os.str();
}

std::string serialize(const core::RoutingStudy& s) {
  std::ostringstream os;
  for (const auto* fam : {&s.v4, &s.v6}) {
    put(os, fam->timelines);
    for (double v : fam->unique_paths) put(os, v);
    for (double v : fam->changes) put(os, v);
    for (double v : fam->popular_prevalence) put(os, v);
    for (const auto& row : fam->suboptimal_prevalence) {
      for (double v : row) put(os, v);
    }
    for (double v : fam->lifetime_hours_p10) put(os, v);
    for (double v : fam->delta_p10_ms) put(os, v);
    for (double v : fam->lifetime_hours_p90) put(os, v);
    for (double v : fam->delta_p90_ms) put(os, v);
    for (double v : fam->delta_stddev_ms) put(os, v);
  }
  for (double v : s.path_pairs_v4) put(os, v);
  for (double v : s.path_pairs_v6) put(os, v);
  return os.str();
}

/// Seeded deployment shared by every golden test (built once: the
/// campaigns dominate the suite's runtime).
class GoldenParallel : public ::testing::Test {
 protected:
  struct Data {
    simnet::Network net;
    core::PingSeriesStore pings;
    core::TimelineStore timelines;
    core::SegmentSeriesStore segments;

    Data()
        : net(net_config()),
          pings(0.0, net::kFifteenMinutes, 672),
          timelines(net.topo(), net.rib(), {0.0, net::kThreeHours}),
          segments(0.0, net::kThirtyMinutes, 240) {
      std::vector<std::pair<ServerId, ServerId>> pairs;
      const auto& topo = net.topo();
      for (ServerId a = 0; a < topo.servers.size(); ++a) {
        for (ServerId b = a + 1; b < topo.servers.size(); ++b) {
          pairs.emplace_back(a, b);
        }
      }

      probe::PingCampaignConfig ping_cfg;
      ping_cfg.start_day = 0.0;
      ping_cfg.days = 7.0;
      probe::PingCampaign ping_campaign(net, ping_cfg, pairs);
      ping_campaign.run([&](const probe::PingRecord& r) { pings.add(r); });

      probe::TracerouteCampaignConfig trace_cfg;
      trace_cfg.days = 20.0;
      probe::TracerouteCampaign trace_campaign(net, trace_cfg, pairs);
      trace_campaign.run(
          [&](const probe::TracerouteRecord& r) { timelines.add(r); });

      probe::TracerouteCampaignConfig seg_cfg;
      seg_cfg.days = 5.0;
      seg_cfg.interval_s = net::kThirtyMinutes;
      seg_cfg.paris_switch_day = 0.0;
      seg_cfg.traceroute.stop_early_prob = 0.1;
      probe::TracerouteCampaign seg_campaign(net, seg_cfg, pairs);
      seg_campaign.run(
          [&](const probe::TracerouteRecord& r) { segments.add(r); });
    }

    static simnet::NetworkConfig net_config() {
      simnet::NetworkConfig cfg;
      cfg.topology.seed = 2024;
      cfg.topology.tier1_count = 4;
      cfg.topology.transit_count = 16;
      cfg.topology.stub_count = 50;
      cfg.topology.server_count = 14;
      return cfg;
    }
  };

  static const Data& data() {
    static const Data d;
    return d;
  }

  /// Runs `pass` serially (null pool) and at 1, 2 and 8 threads; asserts
  /// the serialized result and the counter snapshot never change.
  template <typename Pass>
  static void expect_thread_count_invariant(const char* name, Pass&& pass) {
    data();  // build campaigns BEFORE the baseline snapshot window
    auto& reg = obs::MetricsRegistry::global();
    reg.reset();
    const std::string golden = pass(nullptr);
    ASSERT_FALSE(golden.empty());
    const auto golden_counters = reg.snapshot().counters;
    for (const unsigned threads : {1u, 2u, 8u}) {
      exec::ThreadPool pool(threads);
      reg.reset();
      EXPECT_EQ(pass(&pool), golden) << name << " @ " << threads
                                     << " threads";
      // Counters (pairs assessed/flagged/..., exec tasks) are exact
      // counts, not timings: they must match across thread counts too.
      EXPECT_EQ(reg.snapshot().counters, golden_counters)
          << name << " counters @ " << threads << " threads";
    }
  }
};

TEST_F(GoldenParallel, SurveyCongestionIsThreadCountInvariant) {
  core::CongestionDetectConfig cfg;
  cfg.min_samples = 300;
  // Loose thresholds so the flagged list is non-empty: its order is the
  // part of the merge contract a count-only comparison would not cover.
  cfg.variation_threshold_ms = 1.0;
  cfg.diurnal_ratio_threshold = 0.02;
  std::size_t flagged = 0;
  expect_thread_count_invariant("survey", [&](exec::ThreadPool* pool) {
    const auto survey = core::survey_congestion(data().pings, cfg, pool);
    flagged = survey.flagged.size();
    return serialize(survey);
  });
  EXPECT_GT(flagged, 0u);
}

TEST_F(GoldenParallel, LocalizeCongestionIsThreadCountInvariant) {
  core::LocalizeConfig cfg;
  cfg.min_traces = 30;
  cfg.require_symmetric_as_paths = true;
  // Loose localization gates so the segment list is non-empty and its
  // merge order is actually exercised.
  cfg.diurnal_ratio_threshold = 0.0;
  cfg.rho_threshold = 0.0;
  cfg.min_row_coverage = 0.2;
  std::size_t localized = 0;
  expect_thread_count_invariant("localize", [&](exec::ThreadPool* pool) {
    const auto loc = core::localize_congestion(data().segments,
                                               data().net.rib(), cfg, pool);
    localized = loc.segments.size();
    return serialize(loc);
  });
  EXPECT_GT(localized, 0u);
}

TEST_F(GoldenParallel, DualStackStudyIsThreadCountInvariant) {
  expect_thread_count_invariant("dualstack", [&](exec::ThreadPool* pool) {
    return serialize(core::run_dualstack_study(data().timelines, pool));
  });
}

TEST_F(GoldenParallel, RoutingStudyIsThreadCountInvariant) {
  core::RoutingStudyConfig cfg;
  cfg.min_observations = 50;
  expect_thread_count_invariant("routing", [&](exec::ThreadPool* pool) {
    return serialize(core::run_routing_study(data().timelines, cfg, pool));
  });
}

// ---------------------------------------------------------------------
// The Section 5 chain (core/congestion_chain.h) end to end.

std::string serialize(const core::PingSeriesStore& store) {
  std::ostringstream os;
  store.for_each_shard(0, 1, [&](ServerId src, ServerId dst,
                                 net::Family family,
                                 const core::PingSeriesStore::Series& s) {
    os << src << ',' << dst << ',' << static_cast<int>(family) << ':'
       << s.valid << ':';
    for (const auto v : s.rtt_tenths) os << v << ' ';
    os << '\n';
  });
  put_quality(os, store.quality());
  return os.str();
}

std::string serialize(const core::SegmentSeriesStore& store) {
  std::ostringstream os;
  store.for_each_shard(
      0, 1, [&](ServerId src, ServerId dst, net::Family family,
                const core::SegmentSeriesStore::PairSeries& s) {
        os << src << ',' << dst << ',' << static_cast<int>(family) << ':'
           << s.traces << ':' << s.ip_static << ':';
        for (const auto& hop : s.hop_addrs) {
          os << (hop ? hop->to_string() : "*") << ' ';
        }
        for (const auto& row : s.hop_rtt) {
          for (const auto v : row) os << v << ' ';
          os << '|';
        }
        for (const auto v : s.end_rtt) os << v << ' ';
        os << '\n';
      });
  put_quality(os, store.quality());
  return os.str();
}

/// The validation harness's compact world: `congested` cranks the diurnal
/// model so congested links land on probed paths, else none exists.
simnet::NetworkConfig chain_world(bool congested) {
  simnet::NetworkConfig cfg;
  cfg.topology.seed = 42;
  cfg.topology.tier1_count = 4;
  cfg.topology.transit_count = 18;
  cfg.topology.stub_count = 70;
  cfg.topology.server_count = 20;
  cfg.dynamics.mean_outages_per_adjacency = 0.3;
  cfg.congestion.internal_fraction = congested ? 0.10 : 0.0;
  cfg.congestion.private_interconnect_fraction = congested ? 0.15 : 0.0;
  cfg.congestion.public_ixp_fraction = congested ? 0.02 : 0.0;
  cfg.congestion.permanent_prob = 1.0;
  cfg.congestion.bursty_fraction = 0.0;
  return cfg;
}

core::CongestionChainResult run_chain(simnet::Network& net,
                                      exec::ThreadPool* pool,
                                      core::RunFacts* facts = nullptr) {
  const auto pairs = simnet::sample_dual_stack_pairs(net.topo(), 24, 42).pairs;
  core::CongestionChainConfig cfg;
  cfg.ping = {100.0, 7.0, 31};
  cfg.followup = {100.0, 4.0, 68};
  cfg.downtime.monthly_window_prob = 0.02;
  return core::run_congestion_chain(net, pairs, cfg, pool, facts);
}

TEST(CongestionChain, FollowsUpTheFlaggedPairsAlikeAtAnyWidth) {
  simnet::Network golden_net(chain_world(true));
  const auto golden = run_chain(golden_net, nullptr);
  // The follow-up probes each flagged series' (src, dst) once.
  std::vector<std::pair<ServerId, ServerId>> want;
  for (const auto& f : golden.survey.flagged) want.emplace_back(f.src, f.dst);
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(golden.followup_pairs, want);
  ASSERT_TRUE(golden.segments.has_value());
  EXPECT_GT(golden.localization.pairs_considered, 0u);
  EXPECT_EQ(golden.survey_config.min_samples,
            static_cast<std::size_t>(0.88 * 672));
  EXPECT_EQ(golden.localize_config.min_traces,
            static_cast<std::size_t>(0.3 * 192));

  for (const unsigned threads : {1u, 8u}) {
    simnet::Network net(chain_world(true));
    exec::ThreadPool pool(threads);
    const auto chain = run_chain(net, &pool);
    EXPECT_EQ(serialize(chain.pings), serialize(golden.pings)) << threads;
    EXPECT_EQ(serialize(chain.survey), serialize(golden.survey)) << threads;
    EXPECT_EQ(chain.followup_pairs, golden.followup_pairs) << threads;
    ASSERT_TRUE(chain.segments.has_value());
    EXPECT_EQ(serialize(*chain.segments), serialize(*golden.segments))
        << threads;
    EXPECT_EQ(serialize(chain.localization), serialize(golden.localization))
        << threads;
  }
}

TEST(CongestionChain, CleanWorldRunsNoFollowUp) {
  simnet::Network net(chain_world(false));
  core::RunFacts facts;
  const auto chain = run_chain(net, nullptr, &facts);
  EXPECT_GT(chain.survey.v4.pairs_assessed, 0u);
  EXPECT_TRUE(chain.survey.flagged.empty());
  EXPECT_TRUE(chain.followup_pairs.empty());
  EXPECT_FALSE(chain.segments.has_value());
  EXPECT_TRUE(chain.localization.segments.empty());
  EXPECT_EQ(chain.localization.pairs_considered, 0u);
  // Only the ping campaign ran.
  EXPECT_EQ(facts.counters.at("s2s.campaign.epochs"), chain.pings.epochs());
}

}  // namespace
}  // namespace s2s
