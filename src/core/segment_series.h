// Per-segment RTT time series from follow-up traceroute campaigns
// (paper Section 5.2).
//
// "We define the path from the vantage point of a traceroute to a given
// hop as a segment" — for every (src, dst, family) we track the hop-IP
// path seen in complete traceroutes and a fixed-grid RTT series per
// segment. Pairs whose IP-level path changes are marked non-static and
// excluded from localization, exactly as the paper requires.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/data_quality.h"
#include "core/pair_table.h"
#include "core/slot_grid.h"
#include "net/ip.h"
#include "net/timebase.h"
#include "probe/records.h"

namespace s2s::core {

class SegmentSeriesStore {
 public:
  SegmentSeriesStore(double start_day, std::int64_t interval_s,
                     std::size_t epochs)
      : start_day_(start_day), interval_s_(interval_s), epochs_(epochs) {}

  /// Streaming sink; only complete traceroutes contribute. Duplicates,
  /// invalid RTTs and off-grid timestamps are dropped and tallied in
  /// quality(); arrival order does not matter (slot-addressed grid). An
  /// epoch's row is first-write-wins: a later trace in the same epoch
  /// still checks and learns hop addresses and counts in `traces`, but
  /// writes no RTT slot.
  void add(const probe::TracerouteRecord& record);

  struct PairSeries {
    /// Endpoint host addresses (known from the first complete traceroute);
    /// they anchor the AS-level symmetry check, since border-router
    /// ingress interfaces often carry the neighbor AS's address space.
    net::IPAddr src_addr;
    net::IPAddr dst_addr;
    /// Canonical hop addresses (unresponsive positions stay empty until a
    /// later traceroute reveals them).
    std::vector<std::optional<net::IPAddr>> hop_addrs;
    bool ip_static = true;  ///< falsified on any hop-address disagreement
    /// RTT series per hop segment [hop][epoch], tenths of ms.
    std::vector<std::vector<std::uint16_t>> hop_rtt;
    /// End-to-end series [epoch], tenths of ms.
    std::vector<std::uint16_t> end_rtt;
    std::size_t traces = 0;
  };

  const PairSeries* find(topology::ServerId src, topology::ServerId dst,
                         net::Family family) const {
    return series_.find(src, dst, family);
  }
  void for_each(const PairTable<PairSeries>::Visitor& fn) const {
    series_.for_each(fn);
  }

  /// Visits the pairs whose key falls in `shard` (key % n_shards), in
  /// ascending key order — hash-layout-independent, so shard outputs merge
  /// deterministically (DESIGN.md section 9). Read-only; distinct shards
  /// are safe to run concurrently.
  void for_each_shard(std::size_t shard, std::size_t n_shards,
                      const PairTable<PairSeries>::Visitor& fn) const {
    series_.for_each_shard(shard, n_shards, fn);
  }

  std::size_t pair_count() const noexcept { return series_.size(); }
  std::size_t epochs() const noexcept { return epochs_; }
  const DataQualityReport& quality() const noexcept {
    return gate_.quality();
  }
  /// Adds the ingest counts under s2s.segments.* (IngestGate::export_metrics).
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const {
    gate_.export_metrics(counters);
  }
  double samples_per_day() const {
    return 86400.0 / static_cast<double>(interval_s_);
  }

 private:
  double start_day_;
  std::int64_t interval_s_;
  std::size_t epochs_;
  IngestGate gate_{"segments"};
  PairTable<PairSeries> series_;
};

}  // namespace s2s::core
