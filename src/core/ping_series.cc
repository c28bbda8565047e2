#include "core/ping_series.h"

namespace s2s::core {

PingSeriesStore::PingSeriesStore(const PingSeriesStore& other,
                                 std::size_t new_epochs)
    : start_day_(other.start_day_),
      interval_s_(other.interval_s_),
      epochs_(other.epochs_),
      grid_(other.grid_),
      gate_(other.gate_),
      series_(other.series_) {
  grow(new_epochs);
}

void PingSeriesStore::grow(std::size_t epochs) {
  if (epochs <= epochs_) return;
  epochs_ = epochs;
  series_.for_each_value([&](Series& series) {
    series.rtt_tenths.resize(epochs_, kMissingSlot);
  });
}

PreparedPing PingSeriesStore::prepare(const probe::PingRecord& record) const {
  PreparedPing p;
  p.fingerprint = fingerprint(record);
  p.key = PairTable<Series>::key(record.src, record.dst, record.family);
  p.epoch = net::grid_epoch(record.time, start_day_, interval_s_);
  p.rtt_ms = record.rtt_ms;
  p.rtt_tenths = to_slot(record.rtt_ms);
  p.valid = valid_record(record);
  p.success = record.success;
  return p;
}

bool PingSeriesStore::commit(const PreparedPing& p) {
  if (grid_ == Grid::kGrow && p.epoch >= 0) {
    grow(static_cast<std::size_t>(p.epoch) + 1);
  }
  const auto grid_end = static_cast<std::int64_t>(epochs_);
  if (!gate_.admit(p.fingerprint, p.epoch, grid_end, p.valid) || !p.success) {
    return false;
  }

  Series& series = series_[p.key];
  if (series.rtt_tenths.empty()) {
    series.rtt_tenths.assign(epochs_, kMissingSlot);
  }
  auto& slot = series.rtt_tenths[static_cast<std::size_t>(p.epoch)];
  // First write wins: a conflicting re-delivery cannot overwrite the
  // sample the analyses already count on.
  if (slot != kMissingSlot) {
    gate_.drop_duplicate();
    return false;
  }
  gate_.accept();
  gate_.rtt_ms().record(p.rtt_ms);
  ++series.valid;
  slot = p.rtt_tenths;
  return true;
}

}  // namespace s2s::core
