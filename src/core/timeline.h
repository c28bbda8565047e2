// Trace timelines: the compact per-(src, dst, family) time series every
// routing analysis consumes (paper Section 4.1: "the set of all
// traceroutes from one server to another ... a trace timeline").
//
// TimelineStore is a streaming sink for traceroute campaigns: each record
// is AS-path-inferred on arrival and reduced to 6 bytes (epoch, RTT in
// tenths of ms, local path index), so 16-month full-mesh campaigns fit in
// memory. Table 1 accounting (completeness / data quality / AS loops)
// happens in the same pass.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/as_path_infer.h"
#include "core/data_quality.h"
#include "core/pair_table.h"
#include "core/slot_grid.h"
#include "net/timebase.h"
#include "probe/records.h"
#include "topology/topology.h"

namespace s2s::core {

/// Interns AS paths globally; ids are dense and stable.
class PathInterner {
 public:
  std::uint32_t intern(std::span<const net::Asn> path);
  const net::AsPath& path(std::uint32_t id) const { return paths_.at(id); }
  std::size_t size() const noexcept { return paths_.size(); }

 private:
  /// Transparent, so a path held in a prepare buffer is looked up
  /// without building an AsPath.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::span<const net::Asn> p) const {
      std::size_t h = p.size();
      for (const auto& asn : p) {
        h ^= asn.value() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return h;
    }
    std::size_t operator()(const net::AsPath& p) const {
      return (*this)(std::span<const net::Asn>(p));
    }
  };
  struct Equal {
    using is_transparent = void;
    bool operator()(std::span<const net::Asn> a,
                    std::span<const net::Asn> b) const {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }
  };
  std::unordered_map<net::AsPath, std::uint32_t, Hash, Equal> index_;
  std::vector<net::AsPath> paths_;
};

/// One completed traceroute, compacted.
struct Observation {
  std::uint16_t epoch = 0;       ///< index on the campaign's sampling grid
  std::uint16_t rtt_tenths = 0;  ///< end-to-end RTT in 0.1 ms units
  std::uint16_t path = 0;        ///< index into TraceTimeline::local_paths

  double rtt_ms() const { return slot_ms(rtt_tenths); }
};

struct TraceTimeline {
  std::vector<Observation> obs;             ///< time-ordered
  std::vector<std::uint32_t> local_paths;   ///< local index -> global path id

  std::uint32_t global_path(const Observation& o) const {
    return local_paths[o.path];
  }
  std::size_t unique_paths() const { return local_paths.size(); }
};

/// Paper Table 1 bookkeeping, per protocol.
struct Table1Counts {
  struct PerFamily {
    std::size_t collected = 0;    ///< records delivered by the campaign
    std::size_t complete = 0;     ///< destination reached
    std::size_t as_loops = 0;     ///< complete but AS-loop artifact (excluded)
    // Quality classes among complete, loop-free traceroutes:
    std::size_t complete_as = 0;
    std::size_t missing_as = 0;
    std::size_t missing_ip = 0;
  };
  PerFamily v4, v6;

  PerFamily& of(net::Family f) {
    return f == net::Family::kIPv4 ? v4 : v6;
  }
  const PerFamily& of(net::Family f) const {
    return f == net::Family::kIPv4 ? v4 : v6;
  }
};

struct TimelineStoreConfig {
  double start_day = 0.0;                      ///< campaign origin
  std::int64_t interval_s = net::kThreeHours;  ///< sampling grid
};

/// One traceroute as TimelineStore::prepare leaves it: every fact commit
/// needs, derived from the record alone. The inferred AS path lives in
/// the caller's path buffer at [path_offset, path_offset + path_len), so
/// the struct stays fixed-size and a lane that reuses its buffer
/// allocates nothing per record.
struct PreparedTrace {
  std::uint64_t fingerprint = 0;
  std::uint64_t key = 0;
  std::int64_t grid = 0;       ///< epoch on the sampling grid, unchecked
  double rtt_ms = 0.0;         ///< end-to-end RTT
  std::uint32_t path_offset = 0;
  std::uint32_t path_len = 0;  ///< 0: not inferred (commit drops it first)
  net::Family family = net::Family::kIPv4;
  bool valid = false;          ///< valid_record()
  bool complete = false;
  PathTraits path;             ///< inference result when path_len > 0
};

class TimelineStore {
 public:
  TimelineStore(const topology::Topology& topo, const bgp::Rib& rib,
                const TimelineStoreConfig& config)
      : topo_(topo), inferrer_(rib), config_(config) {}

  /// Streaming sink: validate, infer, account, and (for complete,
  /// loop-free traceroutes) insert into the pair's timeline in epoch
  /// order. Duplicates, invalid RTTs and off-grid timestamps are dropped
  /// and tallied in quality(); late arrivals are accepted, re-sorted and
  /// tallied, so change detection never sees artificial path flaps.
  /// Exactly commit(prepare(record)).
  void add(const probe::TracerouteRecord& record);

  /// The order-independent half of add(): fingerprint, grid epoch,
  /// validity and (for records commit could keep) AS-path inference,
  /// appending the path to `paths`. Reads only immutable state, so any
  /// number of threads may prepare concurrently.
  PreparedTrace prepare(const probe::TracerouteRecord& record,
                        std::vector<net::Asn>& paths) const;
  /// The order-dependent half: the IngestGate, the Table 1 counters,
  /// path interning and the timeline insert.
  /// Commits must follow record order for results identical to add().
  void commit(const PreparedTrace& prepared,
              const std::vector<net::Asn>& paths);

  const TraceTimeline* find(topology::ServerId src, topology::ServerId dst,
                            net::Family family) const {
    return timelines_.find(src, dst, family);
  }

  /// Iterates timelines as fn(src, dst, family, timeline).
  void for_each(const PairTable<TraceTimeline>::Visitor& fn) const {
    timelines_.for_each(fn);
  }

  /// Visits the timelines whose key falls in `shard` (key % n_shards), in
  /// ascending key order — hash-layout-independent, so shard outputs merge
  /// deterministically (DESIGN.md section 9). Read-only; distinct shards
  /// are safe to run concurrently.
  void for_each_shard(std::size_t shard, std::size_t n_shards,
                      const PairTable<TraceTimeline>::Visitor& fn) const {
    timelines_.for_each_shard(shard, n_shards, fn);
  }

  const PathInterner& interner() const noexcept { return interner_; }
  const Table1Counts& table1() const noexcept { return table1_; }
  const DataQualityReport& quality() const noexcept {
    return gate_.quality();
  }
  /// Adds the ingest counts under s2s.timeline.* (IngestGate::export_metrics).
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const {
    gate_.export_metrics(counters);
  }
  std::size_t timeline_count() const noexcept { return timelines_.size(); }
  std::uint16_t max_epoch() const noexcept { return max_epoch_; }
  double interval_hours() const {
    return static_cast<double>(config_.interval_s) / 3600.0;
  }

 private:
  const topology::Topology& topo_;
  AsPathInferrer inferrer_;
  TimelineStoreConfig config_;
  IngestGate gate_{"timeline"};
  PathInterner interner_;
  Table1Counts table1_;
  PairTable<TraceTimeline> timelines_;
  std::uint16_t max_epoch_ = 0;
  std::vector<net::Asn> add_paths_;  ///< add()'s reused path buffer
};

}  // namespace s2s::core
