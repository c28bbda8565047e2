// Fixed-grid RTT series from ping campaigns (paper Section 5.1).
//
// One uint16 slot per epoch per (src, dst, family); missing samples are
// kMissingSlot and can be interpolated (interpolate_slots_ms) before
// spectral analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "core/data_quality.h"
#include "core/pair_table.h"
#include "core/slot_grid.h"
#include "net/timebase.h"
#include "probe/records.h"

namespace s2s::core {

/// One ping as PingSeriesStore::prepare leaves it: every fact commit
/// needs, derived from the record alone.
struct PreparedPing {
  std::uint64_t fingerprint = 0;
  std::uint64_t key = 0;
  std::int64_t epoch = 0;  ///< on the sampling grid, unchecked
  double rtt_ms = 0.0;
  std::uint16_t rtt_tenths = 0;  ///< the slot value
  bool valid = false;            ///< valid_record()
  bool success = false;
};

class PingSeriesStore {
 public:
  /// kFixed drops records at or past `epochs` as out of grid; kGrow
  /// extends the grid to cover the epoch of every record offered to
  /// add()/commit() — duplicates, invalid and failed probes included —
  /// so a store fed a whole archive ends with the grid a pre-pass over
  /// the archive's last ping epoch would have sized.
  enum class Grid : std::uint8_t { kFixed, kGrow };

  PingSeriesStore(double start_day, std::int64_t interval_s,
                  std::size_t epochs, Grid grid = Grid::kFixed)
      : start_day_(start_day),
        interval_s_(interval_s),
        epochs_(epochs),
        grid_(grid) {}

  /// Grow-copy: a deep copy re-gridded to `new_epochs` slots (clamped to
  /// at least other's grid); the added slots start missing. Live delta
  /// pickup builds the next snapshot's store from the current one
  /// without replaying the sealed prefix (DESIGN.md section 16).
  PingSeriesStore(const PingSeriesStore& other, std::size_t new_epochs);

  /// Streaming sink for PingCampaign. Slots are first-write-wins:
  /// duplicates and invalid samples are dropped and tallied in quality();
  /// late arrivals land in their correct slot regardless of order.
  /// Exactly commit(prepare(record)).
  void add(const probe::PingRecord& record) { commit(prepare(record)); }

  /// The order-independent half of add(): fingerprint, key, grid epoch,
  /// validity and slot value. Reads only immutable state (thread-safe).
  PreparedPing prepare(const probe::PingRecord& record) const;
  /// The order-dependent half: grid growth, the IngestGate, counters and
  /// the first-write-wins slot write. Commits must follow record order
  /// for results identical to add(). True when the record filled a slot.
  bool commit(const PreparedPing& prepared);

  struct Series {
    std::vector<std::uint16_t> rtt_tenths;  ///< one slot per epoch
    std::size_t valid = 0;                  ///< populated slots
  };

  const Series* find(topology::ServerId src, topology::ServerId dst,
                     net::Family family) const {
    return series_.find(src, dst, family);
  }

  void for_each(const PairTable<Series>::Visitor& fn) const {
    series_.for_each(fn);
  }

  /// Visits the pairs whose key falls in `shard` (key % n_shards), in
  /// ascending key order. Shards partition the store: over all shards of
  /// one n_shards every pair is visited exactly once, and the visit order
  /// within a shard is independent of hash-map layout — the store half of
  /// the deterministic-merge contract (DESIGN.md section 9). Read-only, so
  /// distinct shards may run on distinct threads concurrently.
  void for_each_shard(std::size_t shard, std::size_t n_shards,
                      const PairTable<Series>::Visitor& fn) const {
    series_.for_each_shard(shard, n_shards, fn);
  }

  std::size_t pair_count() const noexcept { return series_.size(); }
  std::size_t epochs() const noexcept { return epochs_; }
  const DataQualityReport& quality() const noexcept {
    return gate_.quality();
  }
  /// Adds the ingest counts under s2s.ping_store.* (IngestGate::export_metrics).
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const {
    gate_.export_metrics(counters);
  }
  double samples_per_day() const {
    return 86400.0 / static_cast<double>(interval_s_);
  }

 private:
  /// Re-grids every series to `epochs` slots when that is more than now;
  /// the added slots start missing.
  void grow(std::size_t epochs);

  double start_day_;
  std::int64_t interval_s_;
  std::size_t epochs_;
  Grid grid_;
  IngestGate gate_{"ping_store"};
  PairTable<Series> series_;
};

}  // namespace s2s::core
