// Measurement campaigns: the schedulers that generated the paper's data.
//
//   * Long-term traceroute campaign (Section 2.1): full mesh between
//     dual-stack servers, both directions, both protocols, every 3 hours
//     for 16 months. Classic traceroute throughout, except IPv4 switches
//     to Paris traceroute partway through (November 2014 = day ~304).
//   * Short-term ping campaign (Section 2.2): pairs pinged every 15
//     minutes for a week.
//   * Follow-up traceroute campaign (Section 5.2): 30-minute traceroutes
//     between diurnal-flagged pairs for ~3 weeks.
//
// Campaigns stream records to a sink; nothing is retained internally, so
// multi-hundred-million-probe runs stay within a fixed memory budget.
// Hardware/maintenance gaps are modeled by a per-server downtime schedule.
//
// Long runs are interruptible: run() returns a CampaignRunResult whose
// checkpoint (epoch index + engine RNG state) resumes the record stream
// at the exact point it stopped, and a throwing sink aborts the current
// epoch cleanly — the result reports how much was flushed and where to
// resume (the start of the aborted epoch, so delivery is at-least-once
// with epoch-boundary checkpoints).
//
// Epochs run through exec::ordered_pipeline (DESIGN.md section 18): the
// pool's lanes prepare whole epochs of probe facts — the non-random half
// of every probe — while the calling thread draws each record from the
// engine's one RNG stream and runs the sink, on_epoch, progress and the
// checkpoint, epoch by epoch in order. Every record, and so every archive
// byte, is the same at any pool width.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/pool.h"
#include "probe/ping.h"
#include "probe/traceroute.h"

namespace s2s::probe {

/// Maintenance and connectivity gaps at the measurement hosts; this is
/// what shrinks collected volume in long campaigns (paper Section 2.1).
struct DowntimeConfig {
  double monthly_window_prob = 0.30;  ///< chance of a window per month
  double window_days_min = 0.2;
  double window_days_max = 3.0;
};

class DowntimeSchedule {
 public:
  using Windows =
      std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>;

  DowntimeSchedule(std::size_t servers, double campaign_days,
                   const DowntimeConfig& config, stats::Rng rng);
  /// Explicit per-server [start_s, end_s) windows; they are normalized
  /// (sorted, overlaps merged, empty windows dropped) on construction.
  explicit DowntimeSchedule(Windows windows);

  /// True iff `server` is inside a maintenance window at t. Windows are
  /// half-open: down at the start instant, back up at the end instant.
  bool down(topology::ServerId server, net::SimTime t) const;

 private:
  Windows windows_;
};

using TraceSink = std::function<void(const TracerouteRecord&)>;
using PingSink = std::function<void(const PingRecord&)>;
/// Called once per finished epoch with the completed fraction [0, 1].
using ProgressFn = std::function<void(double)>;

/// Resume point for an interrupted campaign: the first epoch not yet
/// fully delivered plus the probe engine's RNG state at that epoch
/// boundary. Resuming replays nothing before and everything from
/// `next_epoch`, byte-identical to an uninterrupted run.
struct CampaignCheckpoint {
  std::size_t next_epoch = 0;
  std::array<std::uint64_t, 4> rng_state{};

  /// One-line text form ("S2SCKPT 1 <epoch> <s0> <s1> <s2> <s3>").
  std::string serialize() const;
  static std::optional<CampaignCheckpoint> parse(std::string_view line);
};

/// Outcome of a (possibly aborted) campaign run.
struct CampaignRunResult {
  std::size_t epochs_completed = 0;   ///< epochs fully delivered this run
  std::size_t records_delivered = 0;  ///< records the sink accepted
  bool aborted = false;               ///< the sink threw
  std::string error;                  ///< sink exception message
  /// Resume point: one past the last completed epoch (the aborted epoch
  /// itself when aborted, so its partial records are re-sent on resume).
  CampaignCheckpoint checkpoint;
  std::size_t lanes = 0;   ///< pool lanes the epochs were prepared on
  double elapsed_s = 0.0;  ///< wall time of the run, to its end or abort

  /// Adds the records and epochs to s2s.campaign.{records,epochs}; sets
  /// the gauges s2s.campaign.{lanes,records_per_sec} to this run's.
  void export_metrics(std::map<std::string, std::uint64_t>& counters,
                      std::map<std::string, double>& gauges) const;
};

struct TracerouteCampaignConfig {
  double start_day = 0.0;
  double days = 485.0;
  std::int64_t interval_s = net::kThreeHours;
  /// Campaign day when IPv4 probing switches to Paris traceroute
  /// (negative = never, i.e. classic throughout).
  double paris_switch_day = 304.0;
  bool probe_ipv4 = true;
  bool probe_ipv6 = true;
  TracerouteConfig traceroute;
  DowntimeConfig downtime;
  std::uint64_t seed = 7;
  /// Optional event-driven congestion overlay (simnet/events.h), installed
  /// on the network for the duration of run(). Not owned; must outlive it.
  const simnet::EventSchedule* events = nullptr;
  /// Called after each epoch's records have all reached the sink, with
  /// the epoch index just completed. Live ingest seals an open-shard
  /// block here — the epoch boundary is the durability unit.
  std::function<void(std::size_t)> on_epoch;
};

class TracerouteCampaign {
 public:
  /// Prepares the network for `pairs` in both directions.
  TracerouteCampaign(simnet::Network& net,
                     const TracerouteCampaignConfig& config,
                     std::span<const std::pair<topology::ServerId,
                                               topology::ServerId>> pairs);

  /// Streams every traceroute of the campaign to `sink` in time order.
  /// Pass `resume` to continue an interrupted run from its checkpoint.
  /// A sink that throws std::exception aborts the current epoch: the
  /// result reports how much was flushed and carries the resume point.
  /// Epochs are prepared on the process-wide pool (exec::PoolLease).
  CampaignRunResult run(const TraceSink& sink, const ProgressFn& progress = {},
                        const CampaignCheckpoint* resume = nullptr);
  /// Same, preparing on `pool`'s lanes.
  CampaignRunResult run(const TraceSink& sink, const ProgressFn& progress,
                        const CampaignCheckpoint* resume,
                        exec::ThreadPool& pool);

  std::size_t epochs() const;

 private:
  CampaignRunResult run_on(exec::ThreadPool* pool, const TraceSink& sink,
                           const ProgressFn& progress,
                           const CampaignCheckpoint* resume);

  simnet::Network& net_;
  TracerouteCampaignConfig config_;
  std::vector<std::pair<topology::ServerId, topology::ServerId>> pairs_;
  DowntimeSchedule downtime_;
  TracerouteEngine engine_;
};

struct PingCampaignConfig {
  double start_day = 417.0;  ///< paper: Feb 22, 2015 (day 417 of the study)
  double days = 7.0;
  std::int64_t interval_s = net::kFifteenMinutes;
  bool probe_ipv4 = true;
  bool probe_ipv6 = true;
  PingConfig ping;
  DowntimeConfig downtime;
  std::uint64_t seed = 11;
  /// Optional event-driven congestion overlay (simnet/events.h), installed
  /// on the network for the duration of run(). Not owned; must outlive it.
  const simnet::EventSchedule* events = nullptr;
  /// Called after each epoch's records have all reached the sink, with
  /// the epoch index just completed. Live ingest seals an open-shard
  /// block here — the epoch boundary is the durability unit.
  std::function<void(std::size_t)> on_epoch;
};

class PingCampaign {
 public:
  PingCampaign(simnet::Network& net, const PingCampaignConfig& config,
               std::span<const std::pair<topology::ServerId,
                                         topology::ServerId>> pairs);

  /// Same contract as TracerouteCampaign::run.
  CampaignRunResult run(const PingSink& sink, const ProgressFn& progress = {},
                        const CampaignCheckpoint* resume = nullptr);
  CampaignRunResult run(const PingSink& sink, const ProgressFn& progress,
                        const CampaignCheckpoint* resume,
                        exec::ThreadPool& pool);

  std::size_t epochs() const;

 private:
  CampaignRunResult run_on(exec::ThreadPool* pool, const PingSink& sink,
                           const ProgressFn& progress,
                           const CampaignCheckpoint* resume);

  simnet::Network& net_;
  PingCampaignConfig config_;
  std::vector<std::pair<topology::ServerId, topology::ServerId>> pairs_;
  DowntimeSchedule downtime_;
  PingEngine engine_;
};

}  // namespace s2s::probe
