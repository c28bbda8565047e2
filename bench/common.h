// Shared setup for the reproduction harnesses (s2s_figures,
// bench_ownership).
//
// Each harness builds a simulated deployment (make_deployment: the
// network and a dual-stack pair sample from
// simnet::sample_dual_stack_pairs, the validation harness's sampler
// too), runs the campaigns it needs, and reports the paper's headline
// numbers next to the measured ones; the facts of what ran go to the
// RunReport of the ObsSession in scope. Pass --servers/--pairs/--days/
// --seed to change the scale (shapes are scale-invariant, absolute
// counts are not).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/timeline.h"
#include "exec/pool.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "probe/campaign.h"
#include "simnet/network.h"
#include "stats/rng.h"

namespace s2s::bench {

struct Options {
  int servers = 80;
  int pairs = 600;       ///< unordered long-term pairs sampled
  double days = 485.0;   ///< long-term campaign length
  std::uint64_t seed = 42;
  bool fast = false;     ///< tiny run for smoke-testing the harness
  /// Worker threads for the parallel analysis passes: 0 = auto
  /// (S2S_THREADS env, else hardware), 1 = exact serial path. Results are
  /// byte-identical at any setting (DESIGN.md section 9).
  int threads = 0;
  bool report = true;          ///< emit a RunReport JSON on exit
  std::string report_path;     ///< default: BENCH_<tool>.json
  std::string trace_path;      ///< chrome://tracing JSON; empty = none

  static Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
      auto next = [&]() -> const char* {
        return i + 1 < argc ? argv[++i] : "";
      };
      if (!std::strcmp(argv[i], "--servers")) opt.servers = std::atoi(next());
      else if (!std::strcmp(argv[i], "--pairs")) opt.pairs = std::atoi(next());
      else if (!std::strcmp(argv[i], "--days")) opt.days = std::atof(next());
      else if (!std::strcmp(argv[i], "--seed")) {
        opt.seed = std::strtoull(next(), nullptr, 10);
      } else if (!std::strcmp(argv[i], "--threads")) {
        opt.threads = std::atoi(next());
      } else if (!std::strcmp(argv[i], "--fast")) {
        opt.fast = true;
      } else if (!std::strcmp(argv[i], "--report")) {
        opt.report_path = next();
      } else if (!std::strcmp(argv[i], "--no-report")) {
        opt.report = false;
      } else if (!std::strcmp(argv[i], "--trace")) {
        opt.trace_path = next();
      }
    }
    if (opt.fast) {
      opt.servers = 40;
      opt.pairs = 150;
      opt.days = 60.0;
    }
    return opt;
  }
};

/// RAII observability session for a bench binary. On construction it
/// resets the global registry/collector and opens a root span named after
/// the tool; on destruction it closes the span and writes the RunReport
/// JSON (default `BENCH_<tool>.json`, or --report PATH; disable with
/// --no-report) plus an optional chrome://tracing file (--trace PATH).
/// The report's batch facts come from the owners fed to note(): their
/// exported counters and gauges, and the merged quality of the stores
/// (the data_quality section).
class ObsSession {
 public:
  ObsSession(std::string tool, const Options& opt)
      : tool_(std::move(tool)), opt_(opt) {
    obs::MetricsRegistry::global().reset();
    obs::TraceCollector::global().clear();
    root_.emplace(tool_);
    active_ = this;
  }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() {
    root_.reset();  // commit the root span before snapshotting
    active_ = nullptr;
    if (!opt_.report) return;
    obs::RunReport report = obs::build_run_report(tool_);
    facts_.add_to(report);
    const std::string path = opt_.report_path.empty()
                                 ? "BENCH_" + tool_ + ".json"
                                 : opt_.report_path;
    if (obs::write_text_file(path, report.to_json())) {
      obs::logf(obs::LogLevel::kInfo, "run report: %s", path.c_str());
    }
    if (!opt_.trace_path.empty() &&
        obs::write_text_file(opt_.trace_path,
                             obs::TraceCollector::global().to_chrome_json())) {
      obs::logf(obs::LogLevel::kInfo, "trace: %s", opt_.trace_path.c_str());
    }
  }

  /// The facts of the session in scope, if any, which the final report
  /// carries (so shared helpers like run_long_term can note facts
  /// without plumbing a handle through).
  static core::RunFacts* active_facts() {
    return active_ != nullptr ? &active_->facts_ : nullptr;
  }

 private:
  inline static ObsSession* active_ = nullptr;

  std::string tool_;
  Options opt_;
  std::optional<obs::TraceSpan> root_;
  core::RunFacts facts_;
};

/// Notes an owner's facts (core::RunFacts::note) in the session in
/// scope, if any: a campaign result, a store, a stage result.
template <typename Owner>
void note(const Owner& owner) {
  if (core::RunFacts* facts = ObsSession::active_facts()) facts->note(owner);
}

struct Deployment {
  std::unique_ptr<simnet::Network> net;
  std::vector<topology::ServerId> dual_stack;
  std::vector<std::pair<topology::ServerId, topology::ServerId>> pairs;

  const topology::Topology& topo() const { return net->topo(); }
};

/// Thread pool honoring --threads / S2S_THREADS for the analysis passes.
inline exec::ThreadPool make_pool(const Options& opt) {
  return exec::ThreadPool(opt.threads > 0
                              ? static_cast<unsigned>(opt.threads)
                              : 0u);
}

/// Builds the network and samples the measurement pairs (dual-stack mesh).
inline Deployment make_deployment(const Options& opt) {
  Deployment d;
  simnet::NetworkConfig cfg;
  cfg.topology.seed = opt.seed;
  cfg.topology.server_count = opt.servers;
  d.net = std::make_unique<simnet::Network>(cfg);
  auto sample = simnet::sample_dual_stack_pairs(
      d.topo(), static_cast<std::size_t>(opt.pairs), opt.seed);
  d.dual_stack = std::move(sample.dual_stack);
  d.pairs = std::move(sample.pairs);
  return d;
}

/// Runs the paper's long-term traceroute campaign into a TimelineStore.
inline core::TimelineStore run_long_term(Deployment& d, const Options& opt) {
  probe::TracerouteCampaignConfig cfg;
  cfg.days = opt.days;
  cfg.seed = opt.seed + 7;
  probe::TracerouteCampaign campaign(*d.net, cfg, d.pairs);
  core::TimelineStore store(d.topo(), d.net->rib(),
                            {0.0, net::kThreeHours});
  obs::logf(obs::LogLevel::kInfo,
            "long-term campaign: %zu ordered pairs, %.0f days",
            d.pairs.size() * 2, opt.days);
  note(campaign.run([&](const probe::TracerouteRecord& r) { store.add(r); }));
  note(store);
  return store;
}

/// Minimum observations for a timeline to qualify (the paper's ">=400 of
/// 485 days" filter, scaled to the configured campaign length).
inline std::size_t qualifying_observations(const Options& opt) {
  // 8 probes/day * completion ~0.75 * (400/485 of the configured days).
  return static_cast<std::size_t>(opt.days * 8.0 * 0.75 * 400.0 / 485.0 * 0.8);
}

inline void print_header(const char* experiment, const Options& opt) {
  std::printf("== %s ==\n", experiment);
  std::printf("deployment: %d servers, %d sampled pairs, %.0f days, seed %llu\n",
              opt.servers, opt.pairs, opt.days,
              static_cast<unsigned long long>(opt.seed));
}

}  // namespace s2s::bench
