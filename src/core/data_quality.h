// Data-quality accounting shared by every analysis stage.
//
// The paper's pipeline survived 16 months of real-world dirt: maintenance
// gaps, ~25% incomplete traceroutes, false loops and truncated logs
// (Sections 2 and 4.1). The analysis stores therefore never assume a
// clean, in-order, deduplicated record stream; instead each one validates
// records on arrival and accounts for everything it drops, reorders or
// flags, so an analysis can report "insufficient data" rather than
// silently corrupt its statistics. The counters here are the common
// currency of that accounting: every streaming store admits records
// through one IngestGate, which owns its DataQualityReport, and
// stage-level surveys merge the reports. A run's RunReport is built from
// these typed counts (RunFacts).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "probe/records.h"

namespace s2s::obs {
struct RunReport;
}

namespace s2s::core {

/// Per-fault-class counters; one per store/stage, merged for reporting.
struct DataQualityReport {
  std::size_t invalid_rtt = 0;     ///< NaN/negative/absurd RTT, dropped
  std::size_t duplicates_dropped = 0;  ///< exact re-delivery, dropped
  std::size_t reordered = 0;       ///< accepted behind a later epoch
  std::size_t out_of_grid = 0;     ///< timestamp off the campaign grid
  std::size_t insufficient_epochs = 0;  ///< missing epochs in dropped series
  std::size_t insufficient_series = 0;  ///< pairs below the min-sample bar
  std::size_t interpolated_samples = 0;  ///< gap-filled slots in assessed series
  /// Binary-ingest (.s2sb) blocks skipped for CRC/structure damage. Block
  /// granularity, not records: the text-format analog is malformed lines.
  std::size_t corrupt_blocks = 0;

  DataQualityReport& merge(const DataQualityReport& o) noexcept {
    invalid_rtt += o.invalid_rtt;
    duplicates_dropped += o.duplicates_dropped;
    reordered += o.reordered;
    out_of_grid += o.out_of_grid;
    insufficient_epochs += o.insufficient_epochs;
    insufficient_series += o.insufficient_series;
    interpolated_samples += o.interpolated_samples;
    corrupt_blocks += o.corrupt_blocks;
    return *this;
  }

  std::string to_string() const;

  /// Name -> count form for RunReport::data_quality merging.
  std::map<std::string, std::size_t> as_map() const;
};

/// True iff every RTT in the record is finite, non-negative and below
/// probe::kMaxPlausibleRttMs, and the timestamp is in range.
bool valid_record(const probe::TracerouteRecord& r);
bool valid_record(const probe::PingRecord& r);

/// Content fingerprint for duplicate detection: every field that
/// distinguishes one measurement from another, mixed a 64-bit word at a
/// time (hop addresses in full, tagged by family) with a final avalanche.
std::uint64_t fingerprint(const probe::TracerouteRecord& r);
std::uint64_t fingerprint(const probe::PingRecord& r);

/// Sliding window of recently seen record fingerprints. Re-delivered
/// records in long campaign streams arrive close to the original (dup
/// ACK-style retransmissions, log replays), so a bounded window catches
/// them in O(1) without retaining the whole stream. The window is exact:
/// it holds the last `capacity` distinct fingerprints, in a FIFO ring
/// beside a linear-probing table of at most half load.
class DedupWindow {
 public:
  /// `capacity` must be at least 1.
  explicit DedupWindow(std::size_t capacity = 4096);

  /// True iff `fp` was seen within the window; otherwise records it.
  bool seen_or_insert(std::uint64_t fp);

 private:
  std::size_t home(std::uint64_t fp) const noexcept;
  /// The slot holding `fp`, or the empty slot that ends its probe run.
  std::size_t probe(std::uint64_t fp) const noexcept;
  void erase(std::uint64_t fp) noexcept;

  std::vector<std::uint64_t> ring_;  ///< FIFO order, `head_` is the oldest
  /// Slots hold fingerprints, 0 marking an empty slot; a fingerprint of
  /// 0 is tracked by `has_zero_` instead.
  std::vector<std::uint64_t> table_;
  std::size_t mask_;  ///< table_.size() - 1
  int shift_;         ///< 64 - log2(table_.size())
  bool has_zero_ = false;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// The admission sequence every streaming store runs each arriving
/// record through, in this order: fingerprint dedup, the campaign grid
/// [0, epoch_end), the arrival-order watermark (a record behind it is
/// counted as reordered and still admitted), numeric validity. Each drop
/// is tallied in quality() and each record the store keeps in accept();
/// export_metrics() reports both. The store records the kept RTTs in the
/// registry histogram "s2s.<subsystem>.rtt_ms".
class IngestGate {
 public:
  /// `subsystem` names the metrics; it must outlive the gate (a literal).
  explicit IngestGate(std::string_view subsystem);

  /// True when the record passed every check.
  bool admit(std::uint64_t fingerprint, std::int64_t epoch,
             std::int64_t epoch_end, bool valid) {
    if (dedup_.seen_or_insert(fingerprint)) {
      drop_duplicate();
      return false;
    }
    if (epoch < 0 || epoch >= epoch_end) {
      ++quality_.out_of_grid;
      return false;
    }
    if (epoch < watermark_) ++quality_.reordered;
    watermark_ = std::max(watermark_, epoch);
    if (!valid) {
      ++quality_.invalid_rtt;
      return false;
    }
    return true;
  }

  /// Tallies a duplicate the store found past the gate (a filled slot).
  void drop_duplicate() noexcept { ++quality_.duplicates_dropped; }

  /// Counts a record the store accepted.
  void accept() noexcept { ++accepted_; }
  const obs::Histogram& rtt_ms() const noexcept { return rtt_ms_; }
  const DataQualityReport& quality() const noexcept { return quality_; }

  /// Adds the accepted count and the gate's drops to `counters` as
  /// s2s.<subsystem>.{records,drop_invalid_rtt,drop_duplicates,
  /// drop_out_of_grid,reordered}.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const;

 private:
  std::string_view subsystem_;
  obs::Histogram rtt_ms_;
  std::size_t accepted_ = 0;
  DataQualityReport quality_;
  DedupWindow dedup_;
  std::int64_t watermark_ = -1;  ///< highest on-grid epoch seen so far
};

/// The batch facts of one run, gathered from their owners (a campaign
/// result, a store, a reader or writer, a stage result): what each
/// owner's export_metrics() writes, and the quality each fault class's
/// owner counted — each count once.
struct RunFacts {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  DataQualityReport quality;

  /// Adds one owner's exported facts and the quality counts it owns:
  /// a store's record-level drops (quality()), a stage's series-level
  /// counts (its `quality` member also copies its store's drops, which
  /// the store itself reports), an ingest's corrupt blocks.
  template <typename Owner>
  void note(const Owner& owner) {
    if constexpr (requires { owner.export_metrics(counters, gauges); }) {
      owner.export_metrics(counters, gauges);
    } else {
      owner.export_metrics(counters);
    }
    if constexpr (requires { owner.quality().as_map(); }) {
      quality.merge(owner.quality());
    } else if constexpr (requires { owner.quality.as_map(); }) {
      quality.insufficient_epochs += owner.quality.insufficient_epochs;
      quality.insufficient_series += owner.quality.insufficient_series;
      quality.interpolated_samples += owner.quality.interpolated_samples;
    }
    if constexpr (requires { owner.corrupt_blocks; }) {
      quality.corrupt_blocks += owner.corrupt_blocks;
    }
  }

  /// Adds the counters, sets the gauges and fills data_quality.
  void add_to(obs::RunReport& report) const;
};

}  // namespace s2s::core
