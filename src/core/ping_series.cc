#include "core/ping_series.h"

#include <algorithm>
#include <cmath>

namespace s2s::core {

PingSeriesStore::PingSeriesStore(const PingSeriesStore& other,
                                 std::size_t new_epochs)
    : start_day_(other.start_day_),
      interval_s_(other.interval_s_),
      epochs_(other.epochs_),
      grid_(other.grid_),
      obs_(other.obs_),
      quality_(other.quality_),
      dedup_(other.dedup_),
      last_epoch_seen_(other.last_epoch_seen_),
      series_(other.series_) {
  grow(new_epochs);
}

void PingSeriesStore::grow(std::size_t epochs) {
  if (epochs <= epochs_) return;
  epochs_ = epochs;
  for (auto& [k, series] : series_) {
    series.rtt_tenths.resize(epochs_, kMissing);
  }
}

PreparedPing PingSeriesStore::prepare(const probe::PingRecord& record) const {
  PreparedPing p;
  p.fingerprint = fingerprint(record);
  p.key = key(record.src, record.dst, record.family);
  p.epoch = net::grid_epoch(record.time, start_day_, interval_s_);
  p.rtt_ms = record.rtt_ms;
  p.rtt_tenths = static_cast<std::uint16_t>(
      std::min(6553.0, std::max(0.0, record.rtt_ms)) * 10.0);
  p.valid = valid_record(record);
  p.success = record.success;
  return p;
}

bool PingSeriesStore::commit(const PreparedPing& p) {
  if (grid_ == Grid::kGrow && p.epoch >= 0) {
    grow(static_cast<std::size_t>(p.epoch) + 1);
  }
  if (dedup_.seen_or_insert(p.fingerprint)) {
    ++quality_.duplicates_dropped;
    obs_.drop_duplicates.inc();
    return false;
  }
  if (p.epoch < 0 || static_cast<std::size_t>(p.epoch) >= epochs_) {
    ++quality_.out_of_grid;
    obs_.drop_out_of_grid.inc();
    return false;
  }
  if (p.epoch < last_epoch_seen_) {
    ++quality_.reordered;
    obs_.reordered.inc();
  }
  last_epoch_seen_ = std::max(last_epoch_seen_, p.epoch);
  if (!p.valid) {
    ++quality_.invalid_rtt;
    obs_.drop_invalid_rtt.inc();
    return false;
  }
  if (!p.success) return false;

  Series& series = series_[p.key];
  if (series.rtt_tenths.empty()) series.rtt_tenths.assign(epochs_, kMissing);
  auto& slot = series.rtt_tenths[static_cast<std::size_t>(p.epoch)];
  // First write wins: a conflicting re-delivery cannot overwrite the
  // sample the analyses already count on.
  if (slot != kMissing) {
    ++quality_.duplicates_dropped;
    obs_.drop_duplicates.inc();
    return false;
  }
  obs_.records.inc();
  obs_.rtt_ms.record(p.rtt_ms);
  ++series.valid;
  slot = p.rtt_tenths;
  return true;
}

const PingSeriesStore::Series* PingSeriesStore::find(
    topology::ServerId src, topology::ServerId dst, net::Family family) const {
  const auto it = series_.find(key(src, dst, family));
  return it == series_.end() ? nullptr : &it->second;
}

void PingSeriesStore::for_each(
    const std::function<void(topology::ServerId, topology::ServerId,
                             net::Family, const Series&)>& fn) const {
  for (const auto& [k, series] : series_) {
    fn(static_cast<topology::ServerId>(k >> 24),
       static_cast<topology::ServerId>((k >> 4) & 0xFFFFFu),
       (k & 1u) ? net::Family::kIPv6 : net::Family::kIPv4, series);
  }
}

void PingSeriesStore::for_each_shard(
    std::size_t shard, std::size_t n_shards,
    const std::function<void(topology::ServerId, topology::ServerId,
                             net::Family, const Series&)>& fn) const {
  std::vector<std::pair<std::uint64_t, const Series*>> keys;
  for (const auto& [k, series] : series_) {
    if (k % n_shards == shard) keys.emplace_back(k, &series);
  }
  std::sort(keys.begin(), keys.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [k, series] : keys) {
    fn(static_cast<topology::ServerId>(k >> 24),
       static_cast<topology::ServerId>((k >> 4) & 0xFFFFFu),
       (k & 1u) ? net::Family::kIPv6 : net::Family::kIPv4, *series);
  }
}

std::vector<double> PingSeriesStore::to_ms_interpolated(
    std::span<const std::uint16_t> raw) {
  std::vector<double> out(raw.size());
  // Forward fill indexes of previous/next valid samples, then interpolate.
  std::ptrdiff_t prev = -1;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != kMissing) {
      out[i] = raw[i] / 10.0;
      // Fill the gap (prev, i).
      const double left =
          prev >= 0 ? out[static_cast<std::size_t>(prev)] : out[i];
      for (std::ptrdiff_t j = prev + 1; j < static_cast<std::ptrdiff_t>(i);
           ++j) {
        const double frac =
            prev < 0 ? 1.0
                     : static_cast<double>(j - prev) /
                           static_cast<double>(static_cast<std::ptrdiff_t>(i) -
                                               prev);
        out[static_cast<std::size_t>(j)] = left + frac * (out[i] - left);
      }
      prev = static_cast<std::ptrdiff_t>(i);
    }
  }
  if (prev < 0) return {};
  // Trailing gap: copy the last valid sample.
  for (std::size_t i = static_cast<std::size_t>(prev) + 1; i < raw.size();
       ++i) {
    out[i] = out[static_cast<std::size_t>(prev)];
  }
  return out;
}

}  // namespace s2s::core
