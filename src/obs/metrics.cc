#include "obs/metrics.h"

#include <algorithm>
#include <unordered_map>

#include "obs/log.h"

namespace s2s::obs {

namespace {

/// Registry serials are never reused, so a stale thread-local cache can
/// never alias a new registry at a recycled address.
std::atomic<std::uint64_t> g_next_serial{1};

/// Registries alive right now, by serial: an exiting thread retires its
/// shards only into registries that still exist. Lock order: this mutex
/// before any registry's.
std::mutex& live_mutex() {
  static std::mutex* mutex = new std::mutex();  // never dies
  return *mutex;
}

std::unordered_map<std::uint64_t, MetricsRegistry*>& live_registries() {
  static auto* live = new std::unordered_map<std::uint64_t, MetricsRegistry*>();
  return *live;
}

}  // namespace

/// One per thread that ever attached: its shard in every registry it
/// touched. The destructor runs at thread exit.
struct MetricsRegistry::ThreadShards {
  std::unordered_map<std::uint64_t, Shard*> by_serial;

  ~ThreadShards() {
    {
      const std::lock_guard<std::mutex> lock(live_mutex());
      for (const auto& [serial, shard] : by_serial) {
        const auto it = live_registries().find(serial);
        if (it != live_registries().end()) it->second->retire(shard);
      }
    }
    // A metric ticked later in this thread's exit re-attaches afresh.
    tls_cache_ = ThreadCache{0, nullptr};
  }
};

double HistogramSnapshot::quantile(double q) const {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += counts[i];
    if (static_cast<double>(seen) < target) continue;
    // Interpolate inside bucket i: [lo, hi].
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : bounds.back();
    if (hi <= lo) return hi;
    const double frac =
        counts[i] == 0
            ? 0.0
            : (target - before) / static_cast<double>(counts[i]);
    return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

double HistogramSnapshot::approx_mean() const {
  if (total == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : bounds.back();
    sum += static_cast<double>(counts[i]) * 0.5 * (lo + hi);
  }
  return sum / static_cast<double>(total);
}

MetricsRegistry::MetricsRegistry()
    : serial_(g_next_serial.fetch_add(1, std::memory_order_relaxed)),
      retired_(kMaxSlots, 0) {
  const std::lock_guard<std::mutex> lock(live_mutex());
  live_registries().emplace(serial_, this);
}

MetricsRegistry::~MetricsRegistry() {
  const std::lock_guard<std::mutex> lock(live_mutex());
  live_registries().erase(serial_);
}

Counter MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = defs_.find(name);
  if (it != defs_.end()) {
    if (it->second.kind != Kind::kCounter) {
      logf(LogLevel::kWarn, "metric '%s' re-registered with a new kind",
           name.c_str());
      return {};
    }
    return Counter(this, it->second.base);
  }
  if (next_slot_ + 1 > kMaxSlots) {
    logf(LogLevel::kWarn, "metric slots exhausted; '%s' is a no-op",
         name.c_str());
    return {};
  }
  MetricDef def{Kind::kCounter, next_slot_, 1, {}};
  next_slot_ += 1;
  defs_.emplace(name, std::move(def));
  return Counter(this, next_slot_ - 1);
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto def = defs_.find(name);
  if (def != defs_.end() && def->second.kind != Kind::kGauge) {
    logf(LogLevel::kWarn, "metric '%s' re-registered with a new kind",
         name.c_str());
    return {};
  }
  if (def == defs_.end()) defs_.emplace(name, MetricDef{Kind::kGauge, 0, 0, {}});
  return Gauge(&gauges_[name]);  // map node addresses are stable
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<double> bounds) {
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = defs_.find(name);
  if (it != defs_.end()) {
    if (it->second.kind != Kind::kHistogram) {
      logf(LogLevel::kWarn, "metric '%s' re-registered with a new kind",
           name.c_str());
      return {};
    }
    return Histogram(this, it->second.base, &it->second.bounds);
  }
  const auto width = static_cast<std::uint32_t>(bounds.size() + 1);
  if (bounds.empty() || next_slot_ + width > kMaxSlots) {
    logf(LogLevel::kWarn, "histogram '%s' rejected (empty bounds or slots "
         "exhausted); handle is a no-op", name.c_str());
    return {};
  }
  MetricDef def{Kind::kHistogram, next_slot_, width, std::move(bounds)};
  next_slot_ += width;
  const auto [pos, inserted] = defs_.emplace(name, std::move(def));
  (void)inserted;
  return Histogram(this, pos->second.base, &pos->second.bounds);
}

const std::vector<double>& MetricsRegistry::latency_us_bounds() {
  static const std::vector<double> bounds = {
      1,    3,     10,    30,     100,    300,     1000,   3000,
      1e4,  3e4,   1e5,   3e5,    1e6,    3e6,     1e7};
  return bounds;
}

const std::vector<double>& MetricsRegistry::rtt_ms_bounds() {
  static const std::vector<double> bounds = {1,   2,   5,    10,   20,  40,
                                             80,  160, 320,  640,  1280, 2000};
  return bounds;
}

MetricsRegistry::Shard* MetricsRegistry::attach_thread(ThreadCache& cache) {
  // Slow path: one map lookup per (thread, registry) switch. The map is
  // keyed by serial so entries for dead registries can never collide.
  thread_local ThreadShards mine;
  const auto it = mine.by_serial.find(serial_);
  Shard* shard;
  if (it != mine.by_serial.end()) {
    shard = it->second;
  } else {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!spare_) spare_ = std::make_unique<Shard>();
      shard = spare_.get();
      shards_.push_back(std::move(spare_));
    }
    mine.by_serial.emplace(serial_, shard);
  }
  cache.serial = serial_;
  cache.shard = shard;
  return shard;
}

void MetricsRegistry::retire(Shard* shard) {
  std::unique_ptr<Shard> extra;  // freed after the lock is dropped
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < kMaxSlots; ++i) {
    retired_[i] += shard->slots[i].exchange(0, std::memory_order_relaxed);
  }
  const auto it = std::find_if(
      shards_.begin(), shards_.end(),
      [&](const std::unique_ptr<Shard>& s) { return s.get() == shard; });
  if (it == shards_.end()) return;
  (spare_ ? extra : spare_) = std::move(*it);
  shards_.erase(it);
}

std::size_t MetricsRegistry::shard_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shards_.size() + (spare_ ? 1 : 0);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, def] : defs_) {
    switch (def.kind) {
      case Kind::kCounter: {
        std::uint64_t sum = retired_[def.base];
        for (const auto& shard : shards_) {
          sum += shard->slots[def.base].load(std::memory_order_relaxed);
        }
        snap.counters.emplace(name, sum);
        break;
      }
      case Kind::kGauge: {
        const auto cell = gauges_.find(name);
        snap.gauges.emplace(
            name, cell == gauges_.end()
                      ? 0.0
                      : cell->second.load(std::memory_order_relaxed));
        break;
      }
      case Kind::kHistogram: {
        HistogramSnapshot h;
        h.bounds = def.bounds;
        h.counts.assign(retired_.begin() + def.base,
                        retired_.begin() + def.base + def.width);
        for (const auto& shard : shards_) {
          for (std::uint32_t i = 0; i < def.width; ++i) {
            h.counts[i] +=
                shard->slots[def.base + i].load(std::memory_order_relaxed);
          }
        }
        for (const auto c : h.counts) h.total += c;
        snap.histograms.emplace(name, std::move(h));
        break;
      }
    }
  }
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    for (auto& slot : shard->slots) slot.store(0, std::memory_order_relaxed);
  }
  std::fill(retired_.begin(), retired_.end(), 0);
  for (auto& [name, cell] : gauges_) {
    cell.store(0.0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dies
  return *registry;
}

}  // namespace s2s::obs
