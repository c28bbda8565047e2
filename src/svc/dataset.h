// The data a running s2sd serves: one `.s2sb` archive ingested into the
// analysis stores, plus the simulated deployment that provides the
// topology and RIB for AS-path inference.
//
// A Dataset is built once (the topology build is the expensive part) and
// (re)loaded from its archive at startup and on SIGHUP: load() ingests
// into fresh stores and swaps them in only on success, so a failed reload
// keeps serving the previous data. The archive digest (size + CRC32C of
// the raw bytes) is part of every cache key, so a reload that actually
// changed the file implicitly invalidates all cached responses
// (DESIGN.md section 11).
//
// execute() answers one decoded request from the loaded stores. All
// handlers are deterministic: the figure studies run through the
// fixed-shard parallel passes (DESIGN.md section 9) and every other
// handler reads store state in key order, so a response is a pure
// function of (archive bytes, request payload) at any thread count —
// the property the result cache and the byte-identity tests rely on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/congestion_detect.h"
#include "core/ping_series.h"
#include "core/routing_study.h"
#include "core/timeline.h"
#include "exec/pool.h"
#include "io/binrec.h"
#include "live/incremental.h"
#include "live/watermark.h"
#include "simnet/network.h"
#include "svc/protocol.h"

namespace s2s::svc {

struct DatasetConfig {
  std::string archive_path;

  // Provenance of the archive: the generator parameters of the simulated
  // deployment that produced it. Must match, or AS-path inference and
  // pair ids are meaningless.
  std::uint64_t topo_seed = 7;
  std::size_t tier1_count = 4;
  std::size_t transit_count = 18;
  std::size_t stub_count = 70;
  std::size_t server_count = 16;
  /// Crank the congested-link fractions the way the golden-figure test
  /// world does, so small fixtures have congestion to find.
  bool crank_congestion = true;

  // Sampling grids of the archived campaigns.
  double trace_start_day = 0.0;
  std::int64_t trace_interval_s = net::kThreeHours;
  double ping_start_day = 0.0;
  std::int64_t ping_interval_s = net::kFifteenMinutes;

  /// Routing-study qualification; default lowered from the paper's
  /// long-campaign filter so week-scale fixtures have qualifying
  /// timelines.
  core::RoutingStudyConfig routing = [] {
    core::RoutingStudyConfig r;
    r.min_observations = 40;
    return r;
  }();
  core::CongestionDetectConfig detect;
  /// Congestion verdicts require this fraction of their window (the
  /// grid's trailing week, or all of a shorter grid) to be valid: the
  /// paper's ">= 600 of 672", scaled.
  double detect_min_fraction = 0.6;
};

class Dataset {
 public:
  /// Builds the deployment from the config (expensive: topology + RIB).
  explicit Dataset(const DatasetConfig& config);
  /// Borrows an externally owned deployment (tests share one network
  /// across several Dataset instances). `shared_net` must outlive this.
  Dataset(const DatasetConfig& config, const simnet::Network* shared_net);

  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  /// Ingests the archive into fresh stores in one pass over one mapping
  /// and swaps them in; on failure the previous stores keep serving.
  /// Blocks are decoded and prepared on the process-wide pipeline pool
  /// (exec::PoolLease; width 1 while another load holds it) and
  /// committed in archive order (DESIGN.md section 17).
  bool load(std::string& error);
  /// load() on `pool`'s lanes: the same stores, digest and responses at
  /// any pool width.
  bool load(std::string& error, exec::ThreadPool& pool);

  bool loaded() const noexcept { return timelines_ != nullptr; }
  /// Cache-key half: splitmix64 over ((sealed size << 32) ^ CRC32C of
  /// the sealed bytes) mixed with the epoch watermark, so two growth
  /// states of the same live shard can never collide in the ResultCache
  /// (a batch archive mixes watermark -1).
  std::uint64_t digest() const noexcept { return digest_; }

  /// True when load() found a valid watermark sidecar: the archive is an
  /// open shard and reads are bounded at the sealed watermark.
  bool live() const noexcept { return live_; }
  const live::Watermark& watermark() const noexcept { return watermark_; }
  /// The shard's fold counters at its watermark; null unless live().
  const live::IncrementalState* live_state() const noexcept {
    return live_state_.get();
  }

  /// Delta pickup: polls the watermark sidecar and, when it advanced,
  /// returns a new Dataset that copies this one's stores and fold
  /// counters and folds in ONLY the newly sealed tail blocks — O(new
  /// records), no SIGHUP, no full reload. Returns null with `error`
  /// empty when the watermark is unchanged (or the dataset is not live),
  /// null with a reason on failure. `this` must stay alive while the
  /// clone serves (they share the deployment network).
  std::shared_ptr<Dataset> clone_advanced(std::string& error) const;
  const DatasetConfig& config() const noexcept { return config_; }
  const io::IngestResult& ingest() const noexcept { return ingest_; }
  /// Adds this snapshot's load facts: its stores' ingest counts
  /// (s2s.timeline.*, s2s.ping_store.*) and its IngestResult (s2s.io.*).
  /// Nothing when not loaded.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const;
  std::size_t ping_epochs() const noexcept {
    return pings_ ? pings_->epochs() : 0;
  }
  const core::TimelineStore& timelines() const { return *timelines_; }
  const core::PingSeriesStore& pings() const { return *pings_; }
  const simnet::Network& net() const { return *net_; }

  struct Response {
    MsgType type = MsgType::kError;
    std::string payload;
  };

  /// Zero-copy archive slice (kArchiveSlice): the response payload as an
  /// owned 16-byte `.s2sb` file header plus raw block spans pointing
  /// into the retained mmap. The spans stay valid for this Dataset's
  /// lifetime — the server pins its dataset snapshot on the connection's
  /// output queue until the bytes are flushed.
  struct ArchiveSlice {
    bool ok = false;
    std::string error;       ///< reason when !ok
    std::string file_header; ///< owned FileHeader bytes
    std::vector<std::string_view> blocks;  ///< raw block bytes, in order
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;  ///< file_header + blocks total
  };

  /// Blocks whose [first_time_s, last_time_s] intersects [t0_s, t1_s],
  /// sliced out of the mmap'd archive by the footer index without
  /// decoding or copying. Fails (ok = false) when the archive was not
  /// ingested through the mmap arm with a valid footer — text archives
  /// and damaged footers fall back to an error response, never a copy.
  ArchiveSlice archive_slice(std::int64_t t0_s, std::int64_t t1_s) const;

  /// True when load() retained the mmap'd image (binary archive, valid
  /// footer) — the precondition for archive_slice().
  bool mmap_resident() const noexcept { return mmap_ != nullptr; }

  /// Answers one request (kPairRtt .. kFigureDigest, kPingEcho). The
  /// figure studies run on `pool` when given. kMetricsDump and
  /// kArchiveSlice are the server's job and return an internal error
  /// here.
  Response execute(MsgType type, std::string_view payload,
                   exec::ThreadPool* pool) const;

  struct PairKey {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint8_t family = 4;
  };
  /// Sorted (src, dst, family) keys present in each store — the
  /// discovery surface tools and the bench build workloads from.
  std::vector<PairKey> trace_pairs() const;
  std::vector<PairKey> ping_pairs() const;

 private:
  Response pair_rtt(const PairQuery& q) const;
  Response path_prevalence(const PairQuery& q) const;
  Response congestion_verdict(const PairQuery& q) const;
  Response dualstack_delta(const DualStackQuery& q) const;
  Response figure_digest(const FigureQuery& q, exec::ThreadPool* pool) const;

  bool load_on(exec::ThreadPool* pool, std::string& error);
  /// fold_sealed() from an empty snapshot.
  bool load_live(const live::Watermark& wm, exec::ThreadPool* pool,
                 std::string& error);
  /// The open-shard fold (DESIGN.md section 16), behind both load_live()
  /// and clone_advanced(): maps the shard once, copies `base`'s stores
  /// and fold counters, folds in the blocks sealed between `base`'s
  /// watermark and `wm` on `pool`, continues `base`'s digest CRC over
  /// those bytes, and installs the result here. Fails, leaving this
  /// Dataset as it was, on a shard shorter than `wm`, a bad file header
  /// (when `base` holds no sealed bytes yet), or a torn or corrupt block.
  bool fold_sealed(const Dataset& base, const live::Watermark& wm,
                   exec::ThreadPool* pool, std::string& error);

  DatasetConfig config_;
  std::unique_ptr<simnet::Network> owned_net_;
  const simnet::Network* net_ = nullptr;
  std::unique_ptr<core::TimelineStore> timelines_;
  std::unique_ptr<core::PingSeriesStore> pings_;
  /// Retained mmap of the archive for zero-copy slicing; null when the
  /// archive is text, footerless, or a live shard.
  std::shared_ptr<const io::BinRecordMmapReader> mmap_;
  std::uint64_t digest_ = 0;
  /// Raw halves of the digest, kept so clone_advanced() can continue the
  /// CRC over just the appended bytes instead of rereading the file.
  std::uint64_t digest_size_ = 0;
  std::uint32_t digest_crc_ = 0;
  io::IngestResult ingest_;
  bool live_ = false;
  live::Watermark watermark_;
  std::shared_ptr<const live::IncrementalState> live_state_;
};

/// The simulated deployment a DatasetConfig describes (topology seed and
/// sizes, congestion crank). Dataset, the fixture writer, and the live
/// feeder all build their network through this, so every consumer of one
/// config sees the same world.
simnet::NetworkConfig dataset_net_config(const DatasetConfig& cfg);

/// Deterministic measurement pairs for fixtures: the dual-stack mesh of
/// the topology in server-id order, capped at `cap` pairs.
std::vector<std::pair<topology::ServerId, topology::ServerId>>
fixture_pairs(const topology::Topology& topo, std::size_t cap);

struct FixtureParams {
  double trace_days = 14.0;
  double ping_days = 7.0;
  std::size_t max_trace_pairs = 12;
  std::size_t max_ping_pairs = 48;
  std::uint64_t trace_seed = 11;
  std::uint64_t ping_seed = 31;
};

/// Writes a self-contained `.s2sb` fixture archive (a traceroute and a
/// ping campaign over the same deployment and time base) that a Dataset
/// built from the same DatasetConfig serves. The trace pairs are a
/// prefix of the ping pairs, so every traced pair also has a ping
/// series. Deterministic for a given (config, params). The file is
/// committed atomically (tmp + fsync + rename), so a crash mid-write
/// never leaves a half-written archive under the final name.
bool write_fixture_archive(const std::string& path, const DatasetConfig& cfg,
                           const FixtureParams& params, std::string& error);

/// One-line archive-health diagnostic for strict startup: empty when the
/// ingest saw a fully intact archive, otherwise the reason serving it
/// would silently drop data (torn tail, corrupt blocks, damaged footer,
/// zero records). s2sd refuses to start on a non-empty diagnostic;
/// `s2s_recconv repair` fixes what this reports. With `live` true (the
/// archive is an open shard and the ingest was bounded at its sealed
/// watermark) an empty shard is healthy — records arrive later — and
/// the footer is legitimately absent.
std::string archive_damage(const io::IngestResult& ingest, bool live);
inline std::string archive_damage(const io::IngestResult& ingest) {
  return archive_damage(ingest, false);
}

}  // namespace s2s::svc
