#include "probe/campaign.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <exception>

#include "exec/ordered.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace s2s::probe {

using topology::ServerId;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<std::pair<ServerId, ServerId>> with_reversed(
    std::span<const std::pair<ServerId, ServerId>> pairs) {
  std::vector<std::pair<ServerId, ServerId>> all(pairs.begin(), pairs.end());
  for (const auto& [a, b] : pairs) all.emplace_back(b, a);
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

/// Installs a campaign's event overlay on the network for the duration of
/// run(), restoring whatever was installed before.
class ScopedEvents {
 public:
  ScopedEvents(simnet::Network& net, const simnet::EventSchedule* events)
      : net_(net), prev_(net.events()) {
    if (events != nullptr) net_.set_events(events);
  }
  ~ScopedEvents() { net_.set_events(prev_); }

  ScopedEvents(const ScopedEvents&) = delete;
  ScopedEvents& operator=(const ScopedEvents&) = delete;

 private:
  simnet::Network& net_;
  const simnet::EventSchedule* prev_;
};

/// One epoch's probe facts, prepared on some lane and drawn from on the
/// calling thread. Slots are reused round-robin; each keeps its resolver
/// (and so its fallback caches) across the epochs it prepares.
template <typename Facts>
struct EpochSlot {
  std::optional<simnet::Network::Resolver> resolver;
  std::vector<Facts> probes;     ///< in the campaign's probing order
  std::vector<double> partials;  ///< traceroute per-hop latencies
  /// Set when preparing failed after `probes`; rethrown on delivery.
  std::exception_ptr error;
};

/// Thrown from the commit half to stop the pipeline once the sink threw.
struct EpochAborted {};

/// What both campaign kinds' run loops share.
struct RunSpec {
  const char* kind;  ///< "traceroute" / "ping", for the abort log line
  const char* span;  ///< the run's trace span
  simnet::Network& net;
  const simnet::EventSchedule* events;
  std::size_t total;  ///< epochs in the campaign
  const std::function<void(std::size_t)>& on_epoch;
  const ProgressFn& progress;
};

/// The run loop of both campaign kinds: `prepare(epoch, slot)` fills a
/// slot's facts on any lane of `pool`; `deliver(slot, count)` draws and
/// sinks the records on the calling thread, calling count() per record
/// the sink accepted. Epochs commit in order, so the engine's RNG stream,
/// the sink's records and the checkpoints are the same at any width.
template <typename Facts, typename Engine, typename Prepare,
          typename Deliver>
CampaignRunResult run_epochs(const RunSpec& spec, Engine& engine,
                             exec::ThreadPool* pool,
                             const CampaignCheckpoint* resume,
                             Prepare&& prepare, Deliver&& deliver) {
  CampaignRunResult result;
  std::size_t first = 0;
  if (resume) {
    first = resume->next_epoch;
    engine.set_rng_state(resume->rng_state);
  }
  const std::size_t n = first < spec.total ? spec.total - first : 0;
  auto& reg = obs::MetricsRegistry::global();
  const obs::Histogram epoch_us = reg.histogram(
      "s2s.campaign.epoch_us", obs::MetricsRegistry::latency_us_bounds());
  const obs::Histogram checkpoint_us = reg.histogram(
      "s2s.campaign.checkpoint_us", obs::MetricsRegistry::latency_us_bounds());
  result.lanes =
      pool == nullptr ? 1 : std::clamp<std::size_t>(n, 1, pool->thread_count());
  const ScopedEvents scoped_events(spec.net, spec.events);
  const obs::TraceSpan run_span(spec.span);
  const auto run_start = std::chrono::steady_clock::now();
  std::size_t epoch = first;
  try {
    exec::ordered_pipeline<EpochSlot<Facts>>(
        pool, n,
        [&](std::size_t i, EpochSlot<Facts>& slot) {
          if (!slot.resolver) slot.resolver.emplace(spec.net);
          slot.probes.clear();
          slot.partials.clear();
          slot.error = nullptr;
          try {
            prepare(first + i, slot);
          } catch (...) {
            slot.error = std::current_exception();
          }
        },
        [&](std::size_t i, EpochSlot<Facts>& slot) {
          epoch = first + i;
          const obs::TraceSpan epoch_span("epoch");
          const obs::ScopedTimer epoch_timer(epoch_us);
          // Checkpoint at the epoch boundary: if the sink fails below, the
          // whole epoch is replayed on resume (at-least-once delivery).
          {
            const obs::ScopedTimer ckpt_timer(checkpoint_us);
            result.checkpoint.next_epoch = epoch;
            result.checkpoint.rng_state = engine.rng_state();
          }
          try {
            deliver(slot, [&] { ++result.records_delivered; });
            if (slot.error) std::rethrow_exception(slot.error);
          } catch (const std::exception& e) {
            result.aborted = true;
            result.error = e.what();
            throw EpochAborted{};
          }
          ++result.epochs_completed;
          if (spec.on_epoch) spec.on_epoch(epoch);
          if (spec.progress) {
            spec.progress(static_cast<double>(epoch + 1) /
                          static_cast<double>(spec.total));
          }
        });
  } catch (const EpochAborted&) {
    result.elapsed_s = seconds_since(run_start);
    obs::logf(obs::LogLevel::kWarn, "%s campaign aborted at epoch %zu/%zu: %s",
              spec.kind, epoch, spec.total, result.error.c_str());
    return result;
  }
  result.checkpoint.next_epoch = spec.total;
  result.checkpoint.rng_state = engine.rng_state();
  result.elapsed_s = seconds_since(run_start);
  return result;
}

/// Sort windows, drop empty ones, merge overlaps/adjacency, so down()
/// can binary-search on the start instant alone (an earlier long window
/// swallowing a later short one would otherwise be missed).
void normalize(std::vector<std::pair<std::int64_t, std::int64_t>>& list) {
  std::sort(list.begin(), list.end());
  std::size_t out = 0;
  for (const auto& w : list) {
    if (w.second <= w.first) continue;  // empty or inverted
    if (out > 0 && w.first <= list[out - 1].second) {
      list[out - 1].second = std::max(list[out - 1].second, w.second);
    } else {
      list[out++] = w;
    }
  }
  list.resize(out);
}

}  // namespace

DowntimeSchedule::DowntimeSchedule(std::size_t servers, double campaign_days,
                                   const DowntimeConfig& config,
                                   stats::Rng rng) {
  windows_.resize(servers);
  const int months = static_cast<int>(campaign_days / 30.0) + 1;
  for (auto& list : windows_) {
    for (int m = 0; m < months; ++m) {
      if (!rng.chance(config.monthly_window_prob)) continue;
      const double start_day =
          30.0 * m + rng.uniform(0.0, 30.0);
      const double length_days =
          rng.uniform(config.window_days_min, config.window_days_max);
      list.emplace_back(
          static_cast<std::int64_t>(start_day * 86400.0),
          static_cast<std::int64_t>((start_day + length_days) * 86400.0));
    }
    normalize(list);
  }
}

DowntimeSchedule::DowntimeSchedule(Windows windows)
    : windows_(std::move(windows)) {
  for (auto& list : windows_) normalize(list);
}

void CampaignRunResult::export_metrics(
    std::map<std::string, std::uint64_t>& counters,
    std::map<std::string, double>& gauges) const {
  counters["s2s.campaign.records"] += records_delivered;
  counters["s2s.campaign.epochs"] += epochs_completed;
  gauges["s2s.campaign.lanes"] = static_cast<double>(lanes);
  gauges["s2s.campaign.records_per_sec"] =
      elapsed_s > 0.0 ? static_cast<double>(records_delivered) / elapsed_s
                      : 0.0;
}

std::string CampaignCheckpoint::serialize() const {
  std::string out = "S2SCKPT 1 " + std::to_string(next_epoch);
  for (const auto word : rng_state) {
    out += ' ';
    out += std::to_string(word);
  }
  return out;
}

std::optional<CampaignCheckpoint> CampaignCheckpoint::parse(
    std::string_view line) {
  constexpr std::string_view kMagic = "S2SCKPT 1 ";
  if (!line.starts_with(kMagic)) return std::nullopt;
  line.remove_prefix(kMagic.size());
  CampaignCheckpoint ckpt;
  std::uint64_t values[5];
  const char* ptr = line.data();
  const char* end = line.data() + line.size();
  for (auto& value : values) {
    if (ptr != line.data()) {
      if (ptr == end || *ptr != ' ') return std::nullopt;
      ++ptr;
    }
    const auto [next, ec] = std::from_chars(ptr, end, value);
    if (ec != std::errc{}) return std::nullopt;
    ptr = next;
  }
  if (ptr != end) return std::nullopt;
  ckpt.next_epoch = static_cast<std::size_t>(values[0]);
  for (int i = 0; i < 4; ++i) {
    ckpt.rng_state[static_cast<std::size_t>(i)] = values[i + 1];
  }
  return ckpt;
}

bool DowntimeSchedule::down(ServerId server, net::SimTime t) const {
  const auto& list = windows_.at(server);
  const auto it = std::upper_bound(
      list.begin(), list.end(), t.seconds(),
      [](std::int64_t v, const auto& w) { return v < w.first; });
  if (it == list.begin()) return false;
  return t.seconds() < std::prev(it)->second;
}

TracerouteCampaign::TracerouteCampaign(
    simnet::Network& net, const TracerouteCampaignConfig& config,
    std::span<const std::pair<ServerId, ServerId>> pairs)
    : net_(net),
      config_(config),
      pairs_(with_reversed(pairs)),
      downtime_(net.topo().servers.size(), config.start_day + config.days,
                config.downtime, stats::Rng(config.seed * 31 + 1)),
      engine_(net, config.traceroute, stats::Rng(config.seed * 31 + 2)) {
  net_.prepare(pairs_);
}

std::size_t TracerouteCampaign::epochs() const {
  return static_cast<std::size_t>(config_.days * 86400.0 /
                                  static_cast<double>(config_.interval_s));
}

CampaignRunResult TracerouteCampaign::run(const TraceSink& sink,
                                          const ProgressFn& progress,
                                          const CampaignCheckpoint* resume) {
  const exec::PoolLease lease;
  return run_on(lease.pool(), sink, progress, resume);
}

CampaignRunResult TracerouteCampaign::run(const TraceSink& sink,
                                          const ProgressFn& progress,
                                          const CampaignCheckpoint* resume,
                                          exec::ThreadPool& pool) {
  return run_on(&pool, sink, progress, resume);
}

CampaignRunResult TracerouteCampaign::run_on(exec::ThreadPool* pool,
                                             const TraceSink& sink,
                                             const ProgressFn& progress,
                                             const CampaignCheckpoint* resume) {
  const auto start_s =
      static_cast<std::int64_t>(config_.start_day * 86400.0);
  const RunSpec spec{"traceroute", "campaign.traceroute", net_,
                     config_.events, epochs(), config_.on_epoch, progress};
  TracerouteRecord record;  // reused: the sink sees a const&
  return run_epochs<TracerouteFacts>(
      spec, engine_, pool, resume,
      [&](std::size_t epoch, EpochSlot<TracerouteFacts>& slot) {
        const net::SimTime t(start_s + static_cast<std::int64_t>(epoch) *
                                           config_.interval_s);
        const bool v4_paris = config_.paris_switch_day >= 0.0 &&
                              t.days() >= config_.paris_switch_day;
        const auto probe = [&](ServerId src, ServerId dst, net::Family family,
                               TracerouteMethod method) {
          auto& facts = slot.probes.emplace_back();
          if (!engine_.prepare(*slot.resolver, src, dst, family, t, method,
                               facts, slot.partials)) {
            slot.probes.pop_back();
          }
        };
        for (const auto& [src, dst] : pairs_) {
          if (downtime_.down(src, t) || downtime_.down(dst, t)) continue;
          if (config_.probe_ipv4) {
            probe(src, dst, net::Family::kIPv4,
                  v4_paris ? TracerouteMethod::kParis
                           : TracerouteMethod::kClassic);
          }
          if (config_.probe_ipv6) {
            probe(src, dst, net::Family::kIPv6, TracerouteMethod::kClassic);
          }
        }
      },
      [&](const EpochSlot<TracerouteFacts>& slot, const auto& count) {
        for (const TracerouteFacts& facts : slot.probes) {
          engine_.draw(facts, slot.partials, record);
          sink(record);
          count();
        }
      });
}

PingCampaign::PingCampaign(
    simnet::Network& net, const PingCampaignConfig& config,
    std::span<const std::pair<ServerId, ServerId>> pairs)
    : net_(net),
      config_(config),
      pairs_(with_reversed(pairs)),
      downtime_(net.topo().servers.size(), config.start_day + config.days,
                config.downtime, stats::Rng(config.seed * 31 + 1)),
      engine_(net, config.ping, stats::Rng(config.seed * 31 + 2)) {
  net_.prepare(pairs_);
}

std::size_t PingCampaign::epochs() const {
  return static_cast<std::size_t>(config_.days * 86400.0 /
                                  static_cast<double>(config_.interval_s));
}

CampaignRunResult PingCampaign::run(const PingSink& sink,
                                    const ProgressFn& progress,
                                    const CampaignCheckpoint* resume) {
  const exec::PoolLease lease;
  return run_on(lease.pool(), sink, progress, resume);
}

CampaignRunResult PingCampaign::run(const PingSink& sink,
                                    const ProgressFn& progress,
                                    const CampaignCheckpoint* resume,
                                    exec::ThreadPool& pool) {
  return run_on(&pool, sink, progress, resume);
}

CampaignRunResult PingCampaign::run_on(exec::ThreadPool* pool,
                                       const PingSink& sink,
                                       const ProgressFn& progress,
                                       const CampaignCheckpoint* resume) {
  const auto start_s =
      static_cast<std::int64_t>(config_.start_day * 86400.0);
  const RunSpec spec{"ping", "campaign.ping", net_, config_.events,
                     epochs(), config_.on_epoch, progress};
  return run_epochs<PingFacts>(
      spec, engine_, pool, resume,
      [&](std::size_t epoch, EpochSlot<PingFacts>& slot) {
        const net::SimTime t(start_s + static_cast<std::int64_t>(epoch) *
                                           config_.interval_s);
        const auto probe = [&](ServerId src, ServerId dst,
                               net::Family family) {
          auto& facts = slot.probes.emplace_back();
          if (!engine_.prepare(*slot.resolver, src, dst, family, t, facts)) {
            slot.probes.pop_back();
          }
        };
        for (const auto& [src, dst] : pairs_) {
          if (downtime_.down(src, t) || downtime_.down(dst, t)) continue;
          if (config_.probe_ipv4) probe(src, dst, net::Family::kIPv4);
          if (config_.probe_ipv6) probe(src, dst, net::Family::kIPv6);
        }
      },
      [&](const EpochSlot<PingFacts>& slot, const auto& count) {
        for (const PingFacts& facts : slot.probes) {
          sink(engine_.draw(facts));
          count();
        }
      });
}

}  // namespace s2s::probe
