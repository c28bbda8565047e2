#include "core/segment_series.h"

namespace s2s::core {

void SegmentSeriesStore::add(const probe::TracerouteRecord& record) {
  const std::int64_t epoch =
      net::grid_epoch(record.time, start_day_, interval_s_);
  if (!gate_.admit(fingerprint(record), epoch,
                   static_cast<std::int64_t>(epochs_), valid_record(record))) {
    return;
  }
  if (!record.complete || record.hops.empty()) return;
  gate_.accept();
  gate_.rtt_ms().record(record.end_to_end_rtt_ms());
  const auto e = static_cast<std::size_t>(epoch);

  PairSeries& series = series_[PairTable<PairSeries>::key(
      record.src, record.dst, record.family)];
  // The final hop is the destination; segments cover the router hops.
  const std::size_t hops = record.hops.size() - 1;
  if (series.traces == 0) {
    series.src_addr = record.src_addr;
    series.dst_addr = record.dst_addr;
    series.hop_addrs.resize(hops);
    series.hop_rtt.assign(hops,
                          std::vector<std::uint16_t>(epochs_, kMissingSlot));
    series.end_rtt.assign(epochs_, kMissingSlot);
  } else if (series.hop_addrs.size() != hops) {
    series.ip_static = false;
  }
  ++series.traces;
  if (!series.ip_static) return;

  // First write wins: a later trace in a filled epoch still checks and
  // learns hop addresses, but the row stays the first trace's, never a
  // mix of two measurements.
  const bool fill = series.end_rtt[e] == kMissingSlot;
  for (std::size_t i = 0; i < hops; ++i) {
    const auto& hop = record.hops[i];
    if (!hop.addr) continue;  // unresponsive: wildcard, no disagreement
    if (!series.hop_addrs[i]) {
      series.hop_addrs[i] = hop.addr;
    } else if (*series.hop_addrs[i] != *hop.addr) {
      series.ip_static = false;
      return;
    }
    if (fill) series.hop_rtt[i][e] = to_slot(hop.rtt_ms);
  }
  if (fill) series.end_rtt[e] = to_slot(record.hops.back().rtt_ms);
}

}  // namespace s2s::core
