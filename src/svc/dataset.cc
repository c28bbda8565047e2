#include "svc/dataset.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <tuple>

#include "core/dualstack.h"
#include "io/crc32c.h"
#include "io/mmap_file.h"
#include "io/varint.h"
#include "net/asn.h"
#include "obs/json.h"
#include "probe/campaign.h"
#include "stats/summary.h"
#include "svc/ingest.h"

namespace s2s::svc {

simnet::NetworkConfig dataset_net_config(const DatasetConfig& cfg) {
  simnet::NetworkConfig c;
  c.topology.seed = cfg.topo_seed;
  c.topology.tier1_count = cfg.tier1_count;
  c.topology.transit_count = cfg.transit_count;
  c.topology.stub_count = cfg.stub_count;
  c.topology.server_count = cfg.server_count;
  if (cfg.crank_congestion) {
    // Same crank as the golden-figure test world: small topologies need
    // elevated congested-link fractions for the survey to find anything.
    c.congestion.internal_fraction = 0.06;
    c.congestion.private_interconnect_fraction = 0.10;
    c.congestion.public_ixp_fraction = 0.04;
    c.congestion.permanent_prob = 0.8;
  }
  return c;
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The cache-key digest. The raw `(size << 32) ^ crc` form collided
/// across growth states of one live shard (appending can change size and
/// crc in compensating low bits while the high word barely moves), so
/// the halves are avalanched and the epoch watermark is mixed in — two
/// snapshots of the same file at different watermarks always key
/// differently. Batch archives pass epoch -1.
std::uint64_t mix_digest(std::uint64_t size, std::uint32_t crc,
                         std::int64_t watermark_epoch) {
  std::uint64_t h = splitmix64((size << 32) ^ crc);
  return splitmix64(
      h ^ (0x9E3779B97F4A7C15ull *
           static_cast<std::uint64_t>(watermark_epoch + 2)));
}

/// FNV-1a 64 over hexfloat-formatted series — the same digest scheme the
/// golden-figure regression uses, so a figure response pins the study
/// output to the ULP.
class Digest {
 public:
  void line(const std::string& s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
    hash_ ^= '\n';
    hash_ *= 0x100000001b3ull;
  }

  void value(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    line(buf);
  }

  void values(const char* label, const std::vector<double>& vs) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s n=%zu", label, vs.size());
    line(buf);
    for (const double v : vs) value(v);
  }

  void count(const char* label, std::uint64_t n) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s=%" PRIu64, label, n);
    line(buf);
  }

  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

net::Family to_family(std::uint8_t f) {
  return f == 6 ? net::Family::kIPv6 : net::Family::kIPv4;
}

Dataset::Response error_response(std::string_view code,
                                 std::string_view message) {
  return {MsgType::kError, error_payload(code, message)};
}

/// The IngestResult of a pipelined binary ingest of a mapped archive.
io::IngestResult binary_ingest(const IngestOutcome& outcome,
                               io::FooterStatus footer,
                               std::size_t bytes_mapped) {
  io::IngestResult ingest;
  ingest.binary = true;
  ingest.records = outcome.counters.records_read;
  ingest.blocks_read = outcome.counters.blocks_read;
  ingest.corrupt_blocks = outcome.counters.corrupt_blocks;
  ingest.crc_failures = outcome.counters.crc_failures;
  ingest.records_rejected = outcome.counters.records_rejected;
  ingest.truncated = outcome.counters.truncated;
  ingest.footer = footer;
  ingest.bytes_mapped = bytes_mapped;
  return ingest;
}

void quantiles_json(obs::json::Writer& w, const stats::Summary& s) {
  w.key("quantiles").begin_object();
  w.key("p5").value(s.p5);
  w.key("p10").value(s.p10);
  w.key("p25").value(s.p25);
  w.key("p50").value(s.p50);
  w.key("p75").value(s.p75);
  w.key("p90").value(s.p90);
  w.key("p95").value(s.p95);
  w.key("mean").value(s.mean);
  w.key("stddev").value(s.stddev);
  w.end_object();
}

}  // namespace

Dataset::Dataset(const DatasetConfig& config) : config_(config) {
  owned_net_ = std::make_unique<simnet::Network>(dataset_net_config(config_));
  net_ = owned_net_.get();
}

Dataset::Dataset(const DatasetConfig& config, const simnet::Network* shared_net)
    : config_(config), net_(shared_net) {}

bool Dataset::load(std::string& error) {
  const exec::PoolLease lease;
  return load_on(lease.pool(), error);
}

bool Dataset::load(std::string& error, exec::ThreadPool& pool) {
  return load_on(&pool, error);
}

bool Dataset::load_on(exec::ThreadPool* pool, std::string& error) {
  // An archive with a watermark sidecar is an open shard: reads are
  // bounded at the sealed watermark, whose epoch ends the ping grid
  // (DESIGN.md section 16). A damaged sidecar is a hard error — serving
  // an unknown prefix of a live shard could expose a torn tail.
  live::Watermark wm;
  switch (live::read_watermark_file(config_.archive_path, wm)) {
    case live::WatermarkStatus::kInvalid:
      error = "watermark sidecar is damaged: " +
              live::watermark_path(config_.archive_path);
      return false;
    case live::WatermarkStatus::kValid:
      return load_live(wm, pool, error);
    case live::WatermarkStatus::kAbsent:
      break;
  }

  // One open, one mapping, one pass: the digest, the stores and (for an
  // indexed archive) archive_slice() all come from the same bytes, so a
  // rename between steps can never pair one file's digest with
  // another's stores.
  io::MmapFile file;
  if (!file.open(config_.archive_path)) {
    error = "cannot open archive: " + config_.archive_path;
    return false;
  }
  // Fresh stores, swapped in only on success so a bad SIGHUP reload
  // keeps the previous dataset serving. The ping grid grows to the
  // archive's last ping epoch as records arrive.
  auto timelines = std::make_unique<core::TimelineStore>(
      net_->topo(), net_->rib(),
      core::TimelineStoreConfig{config_.trace_start_day,
                                config_.trace_interval_s});
  auto pings = std::make_unique<core::PingSeriesStore>(
      config_.ping_start_day, config_.ping_interval_s, 0,
      core::PingSeriesStore::Grid::kGrow);
  io::IngestResult ingest;
  std::uint32_t crc = 0;
  const std::uint64_t size = file.size();
  std::shared_ptr<const io::BinRecordMmapReader> reader;
  if (!io::is_binary_record_image(file.data(), file.size())) {
    crc = io::crc32c(file.data(), file.size());
    ingest = io::ingest_record_image(
        file.data(), file.size(),
        [&](const probe::TracerouteRecord& r) { timelines->add(r); },
        [&](const probe::PingRecord& r) { pings->add(r); });
  } else {
    reader = std::make_shared<const io::BinRecordMmapReader>(std::move(file));
    if (!reader->ok()) {
      error = "archive unreadable: " + reader->error();
      return false;
    }
    const io::BlockPlan plan = reader->plan(&reader->file());
    const IngestOutcome outcome = ingest_blocks(
        {reader->data(), 0, reader->size(), 0, &reader->file()}, plan,
        {timelines.get(), pings.get(), nullptr}, pool);
    crc = outcome.crc;
    ingest = binary_ingest(outcome, plan.footer, reader->size());
  }
  timelines_ = std::move(timelines);
  pings_ = std::move(pings);
  digest_size_ = size;
  digest_crc_ = crc;
  digest_ = mix_digest(size, crc, -1);
  ingest_ = ingest;
  live_ = false;
  watermark_ = {};
  live_state_.reset();
  // Keep the mapping when the archive has a validated footer:
  // archive_slice() serves raw block bytes straight out of it. The
  // ingest released its pages as it went, so holding it costs no RSS
  // until a slice faults the bytes it sends back in.
  mmap_.reset();
  if (reader && reader->has_index()) mmap_ = std::move(reader);
  return true;
}

bool Dataset::load_live(const live::Watermark& wm, exec::ThreadPool* pool,
                        std::string& error) {
  // A load is the pickup from an empty snapshot: no records, no sealed
  // bytes, so the fold covers the shard from its file header on.
  Dataset empty(config_, net_);
  empty.timelines_ = std::make_unique<core::TimelineStore>(
      net_->topo(), net_->rib(),
      core::TimelineStoreConfig{config_.trace_start_day,
                                config_.trace_interval_s});
  empty.pings_ = std::make_unique<core::PingSeriesStore>(
      config_.ping_start_day, config_.ping_interval_s, 0,
      core::PingSeriesStore::Grid::kGrow);
  empty.live_state_ = std::make_shared<live::IncrementalState>();
  empty.ingest_.binary = true;
  return fold_sealed(empty, wm, pool, error);
}

bool Dataset::fold_sealed(const Dataset& base, const live::Watermark& wm,
                          exec::ThreadPool* pool, std::string& error) {
  io::MmapFile file;
  if (!file.open(config_.archive_path)) {
    error = "cannot map open shard: " + file.error();
    return false;
  }
  if (file.size() < wm.sealed_bytes) {
    error = "open shard is shorter than its watermark (torn durable prefix)";
    return false;
  }
  const auto begin = static_cast<std::size_t>(base.watermark_.sealed_bytes);
  const auto end = static_cast<std::size_t>(wm.sealed_bytes);
  if (begin == 0) {
    const io::BinRecordMmapReader header(file.data(), end);
    if (!header.ok()) {
      error = "open shard unreadable: " + header.error();
      return false;
    }
  }

  // Copy the snapshot's stores and fold ONLY the blocks sealed since,
  // decoded once — O(new records), never a replay of what the snapshot
  // holds. The copies keep their dedup windows, so a block re-delivered
  // across pickups cannot double-count. The ping grid extends to the new
  // watermark epoch, so record-free sealed epochs still count as missing
  // samples, and grows past it with the records. Damage inside the
  // watermark is a hard error: the watermark protocol guarantees every
  // sealed block was fsynced and CRC-valid, so a torn or corrupt block
  // here means real data loss, not a live tail.
  auto timelines = std::make_unique<core::TimelineStore>(*base.timelines_);
  auto pings = std::make_unique<core::PingSeriesStore>(
      *base.pings_,
      static_cast<std::size_t>(std::max<std::int64_t>(
          static_cast<std::int64_t>(base.ping_epochs()), wm.epoch + 1)));
  auto state = std::make_shared<live::IncrementalState>(*base.live_state_);
  const io::BlockPlan plan = io::plan_block_range(
      file.data(), file.size(), std::max(begin, io::kBinFileHeaderBytes), end,
      &file);
  const IngestOutcome outcome =
      ingest_blocks({file.data(), begin, end, base.digest_crc_, &file}, plan,
                    {timelines.get(), pings.get(), state.get()}, pool);
  if (outcome.counters.truncated) {
    error = "open shard is torn inside its sealed watermark";
    return false;
  }
  if (outcome.counters.corrupt_blocks > 0) {
    error = std::to_string(outcome.counters.corrupt_blocks) +
            " corrupt block(s) inside the sealed watermark";
    return false;
  }
  state->advance_watermark(wm.epoch, pings->pair_count());

  timelines_ = std::move(timelines);
  pings_ = std::move(pings);
  live_state_ = std::move(state);
  live_ = true;
  watermark_ = wm;
  // Ingest counters accumulate across pickups so export_metrics keeps
  // reporting whole-shard totals.
  ingest_ = base.ingest_;
  ingest_.records += outcome.counters.records_read;
  ingest_.blocks_read += outcome.counters.blocks_read;
  ingest_.records_rejected += outcome.counters.records_rejected;
  // Digest: the CRC continued over just the newly sealed bytes — the
  // value a load of this growth state computes.
  digest_size_ = wm.sealed_bytes;
  digest_crc_ = outcome.crc;
  digest_ = mix_digest(digest_size_, digest_crc_, wm.epoch);
  // No retained mmap while live: the file is still growing underneath,
  // so archive_slice() is a batch-only feature (remove the sidecar after
  // finish() to finalize the shard into a normal archive).
  mmap_.reset();
  return true;
}

std::shared_ptr<Dataset> Dataset::clone_advanced(std::string& error) const {
  error.clear();
  if (!live_ || !loaded()) return nullptr;
  live::Watermark wm;
  switch (live::read_watermark_file(config_.archive_path, wm)) {
    case live::WatermarkStatus::kAbsent:
      return nullptr;  // shard was finalized; keep serving this snapshot
    case live::WatermarkStatus::kInvalid:
      error = "watermark sidecar is damaged: " +
              live::watermark_path(config_.archive_path);
      return nullptr;
    case live::WatermarkStatus::kValid:
      break;
  }
  if (wm.sealed_bytes == watermark_.sealed_bytes &&
      wm.epoch == watermark_.epoch) {
    return nullptr;  // unchanged
  }
  if (wm.sealed_bytes < watermark_.sealed_bytes ||
      wm.epoch < watermark_.epoch) {
    error = "watermark regressed (shard rewritten under the server?)";
    return nullptr;
  }
  auto next = std::make_shared<Dataset>(config_, net_);
  const exec::PoolLease lease;
  if (!next->fold_sealed(*this, wm, lease.pool(), error)) return nullptr;
  return next;
}

Dataset::ArchiveSlice Dataset::archive_slice(std::int64_t t0_s,
                                             std::int64_t t1_s) const {
  ArchiveSlice out;
  if (!mmap_) {
    out.error = "archive slice requires an mmap'd binary archive with an "
                "intact footer index";
    return out;
  }
  const unsigned char* data = mmap_->data();
  const std::size_t size = mmap_->size();
  out.file_header.assign(reinterpret_cast<const char*>(data),
                         io::kBinFileHeaderBytes);
  for (const io::BlockIndexEntry& entry : mmap_->index()) {
    if (entry.last_time_s < t0_s || entry.first_time_s > t1_s) continue;
    const std::size_t off = static_cast<std::size_t>(entry.offset);
    if (off + io::kBinBlockHeaderBytes > size) continue;  // defensive
    const std::uint32_t payload_bytes = io::get_u32le(data + off + 8);
    const std::size_t block_bytes = io::kBinBlockHeaderBytes + payload_bytes;
    if (off + block_bytes > size) continue;
    out.blocks.emplace_back(reinterpret_cast<const char*>(data + off),
                            block_bytes);
    out.records += entry.record_count;
  }
  out.bytes = out.file_header.size();
  for (const std::string_view b : out.blocks) out.bytes += b.size();
  out.ok = true;
  return out;
}

Dataset::Response Dataset::execute(MsgType type, std::string_view payload,
                                   exec::ThreadPool* pool) const {
  if (type == MsgType::kPingEcho) {
    obs::json::Writer w;
    w.begin_object();
    w.key("type").value("ping_echo");
    w.key("pong").value(true);
    w.key("echo_bytes").value(static_cast<std::uint64_t>(payload.size()));
    w.end_object();
    return {MsgType::kOk, w.str()};
  }
  if (!loaded()) return error_response("internal", "no dataset loaded");
  switch (type) {
    case MsgType::kPairRtt:
    case MsgType::kPathPrevalence:
    case MsgType::kCongestionVerdict: {
      PairQuery q;
      if (!decode_pair_query(payload, q)) {
        return error_response("bad_request",
                              "pair query: want 10 bytes "
                              "(u32 src, u32 dst, u8 family, u8 arg)");
      }
      if (type == MsgType::kPairRtt) return pair_rtt(q);
      if (type == MsgType::kPathPrevalence) return path_prevalence(q);
      return congestion_verdict(q);
    }
    case MsgType::kDualStackDelta: {
      DualStackQuery q;
      if (!decode_dualstack_query(payload, q)) {
        return error_response("bad_request",
                              "dualstack query: want 8 bytes "
                              "(u32 src, u32 dst)");
      }
      return dualstack_delta(q);
    }
    case MsgType::kFigureDigest: {
      FigureQuery q;
      if (!decode_figure_query(payload, q)) {
        return error_response("bad_request",
                              "figure query: want 1 byte (figure id)");
      }
      return figure_digest(q, pool);
    }
    default:
      return error_response("internal", "request type not handled here");
  }
}

Dataset::Response Dataset::pair_rtt(const PairQuery& q) const {
  const net::Family family = to_family(q.family);
  obs::json::Writer w;
  w.begin_object();
  w.key("type").value("pair_rtt");
  w.key("src").value(static_cast<std::uint64_t>(q.src));
  w.key("dst").value(static_cast<std::uint64_t>(q.dst));
  w.key("family").value(static_cast<std::uint64_t>(q.family));

  std::vector<double> samples;
  std::vector<std::pair<std::int64_t, double>> series;
  if (const auto* ping = pings_->find(q.src, q.dst, family)) {
    w.key("source").value("ping");
    samples.reserve(ping->valid);
    for (std::size_t e = 0; e < ping->rtt_tenths.size(); ++e) {
      if (ping->rtt_tenths[e] == core::kMissingSlot) continue;
      const double ms = core::slot_ms(ping->rtt_tenths[e]);
      samples.push_back(ms);
      series.emplace_back(static_cast<std::int64_t>(e), ms);
    }
  } else if (const auto* tl = timelines_->find(q.src, q.dst, family)) {
    w.key("source").value("trace");
    samples.reserve(tl->obs.size());
    for (const auto& o : tl->obs) {
      samples.push_back(o.rtt_ms());
      series.emplace_back(static_cast<std::int64_t>(o.epoch), o.rtt_ms());
    }
  } else {
    return error_response("not_found", "no series for this pair/family");
  }

  w.key("samples").value(static_cast<std::uint64_t>(samples.size()));
  if (!samples.empty()) quantiles_json(w, stats::summarize(samples));
  if (q.arg != 0) {
    w.key("series").begin_array();
    for (const auto& [epoch, ms] : series) {
      w.begin_array();
      w.value(static_cast<std::int64_t>(epoch));
      w.value(ms);
      w.end_array();
    }
    w.end_array();
  }
  w.end_object();
  return {MsgType::kOk, w.str()};
}

Dataset::Response Dataset::path_prevalence(const PairQuery& q) const {
  const auto* tl = timelines_->find(q.src, q.dst, to_family(q.family));
  if (tl == nullptr || tl->obs.empty()) {
    return error_response("not_found", "no trace timeline for this pair");
  }
  // Observation count per global path id; ties broken by ascending id so
  // the ranking is deterministic.
  std::map<std::uint32_t, std::uint64_t> counts;
  for (const auto& o : tl->obs) ++counts[tl->global_path(o)];
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
  ranked.reserve(counts.size());
  for (const auto& [path, n] : counts) ranked.emplace_back(n, path);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  const std::size_t cap =
      std::min<std::size_t>(q.arg == 0 ? 16 : q.arg, 64);

  obs::json::Writer w;
  w.begin_object();
  w.key("type").value("path_prevalence");
  w.key("src").value(static_cast<std::uint64_t>(q.src));
  w.key("dst").value(static_cast<std::uint64_t>(q.dst));
  w.key("family").value(static_cast<std::uint64_t>(q.family));
  w.key("observations").value(static_cast<std::uint64_t>(tl->obs.size()));
  w.key("unique_paths").value(static_cast<std::uint64_t>(ranked.size()));
  w.key("paths").begin_array();
  const double total = static_cast<double>(tl->obs.size());
  for (std::size_t i = 0; i < ranked.size() && i < cap; ++i) {
    w.begin_object();
    w.key("as_path").value(
        net::to_string(timelines_->interner().path(ranked[i].second)));
    w.key("count").value(ranked[i].first);
    w.key("prevalence").value(static_cast<double>(ranked[i].first) / total);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return {MsgType::kOk, w.str()};
}

Dataset::Response Dataset::congestion_verdict(const PairQuery& q) const {
  // One arm for batch archives and live shards: the verdict over the
  // trailing week of the ping grid (DESIGN.md section 16). A live
  // shard's grid ends at its sealed watermark, so every growth state is
  // a distinct deterministic response under its own digest.
  const auto* series = pings_->find(q.src, q.dst, to_family(q.family));
  if (series == nullptr) {
    return error_response("not_found", "no ping series for this pair");
  }
  const auto verdict =
      core::window_verdict(*series, pings_->samples_per_day(), config_.detect,
                           config_.detect_min_fraction);

  obs::json::Writer w;
  w.begin_object();
  w.key("type").value("congestion_verdict");
  w.key("src").value(static_cast<std::uint64_t>(q.src));
  w.key("dst").value(static_cast<std::uint64_t>(q.dst));
  w.key("family").value(static_cast<std::uint64_t>(q.family));
  w.key("samples").value(
      static_cast<std::uint64_t>(verdict.samples - verdict.missing_samples));
  w.key("missing_samples")
      .value(static_cast<std::uint64_t>(verdict.missing_samples));
  w.key("insufficient").value(verdict.insufficient);
  w.key("variation_ms").value(verdict.variation_ms);
  w.key("diurnal_ratio").value(verdict.diurnal_ratio);
  w.key("high_variation").value(verdict.high_variation);
  w.key("strong_diurnal").value(verdict.strong_diurnal);
  w.key("consistent_congestion").value(verdict.consistent_congestion());
  w.end_object();
  return {MsgType::kOk, w.str()};
}

Dataset::Response Dataset::dualstack_delta(const DualStackQuery& q) const {
  const auto* v4 = timelines_->find(q.src, q.dst, net::Family::kIPv4);
  const auto* v6 = timelines_->find(q.src, q.dst, net::Family::kIPv6);
  if (v4 == nullptr || v6 == nullptr) {
    return error_response("not_found",
                          "pair lacks a timeline in one or both families");
  }
  // Epoch-matched RTTv4 - RTTv6 samples, the per-pair form of the
  // Section 6 study.
  core::DualStackMatch m;
  core::match_dualstack(*v4, *v6, m);

  obs::json::Writer w;
  w.begin_object();
  w.key("type").value("dualstack_delta");
  w.key("src").value(static_cast<std::uint64_t>(q.src));
  w.key("dst").value(static_cast<std::uint64_t>(q.dst));
  w.key("samples_matched").value(static_cast<std::uint64_t>(m.diffs.size()));
  w.key("samples_same_path")
      .value(static_cast<std::uint64_t>(m.same_path_diffs.size()));
  if (!m.diffs.empty()) {
    const auto s = stats::sorted(m.diffs);
    w.key("median_diff_ms").value(stats::quantile_sorted(s, 0.5));
    w.key("p10_diff_ms").value(stats::quantile_sorted(s, 0.1));
    w.key("p90_diff_ms").value(stats::quantile_sorted(s, 0.9));
  }
  if (!m.same_path_diffs.empty()) {
    w.key("median_diff_same_path_ms").value(stats::median(m.same_path_diffs));
  }
  w.end_object();
  return {MsgType::kOk, w.str()};
}

Dataset::Response Dataset::figure_digest(const FigureQuery& q,
                                         exec::ThreadPool* pool) const {
  Digest digest;
  obs::json::Writer w;
  w.begin_object();
  w.key("type").value("figure_digest");
  w.key("figure").value(static_cast<std::uint64_t>(q.figure));
  switch (q.figure) {
    case 1: {  // Table 1 collection accounting.
      const auto& t = timelines_->table1();
      for (const auto* fam : {&t.v4, &t.v6}) {
        digest.count("collected", fam->collected);
        digest.count("complete", fam->complete);
        digest.count("as_loops", fam->as_loops);
        digest.count("complete_as", fam->complete_as);
        digest.count("missing_as", fam->missing_as);
        digest.count("missing_ip", fam->missing_ip);
      }
      w.key("collected_v4").value(static_cast<std::uint64_t>(t.v4.collected));
      w.key("collected_v6").value(static_cast<std::uint64_t>(t.v6.collected));
      w.key("complete_v4").value(static_cast<std::uint64_t>(t.v4.complete));
      w.key("complete_v6").value(static_cast<std::uint64_t>(t.v6.complete));
      break;
    }
    case 2: {  // Fig 2/3: path counts and prevalence series.
      const auto study = core::run_routing_study(*timelines_, config_.routing,
                                                 pool);
      for (const auto* fam : {&study.v4, &study.v6}) {
        digest.values("unique_paths", fam->unique_paths);
        digest.values("changes", fam->changes);
        digest.values("popular_prevalence", fam->popular_prevalence);
      }
      digest.values("path_pairs_v4", study.path_pairs_v4);
      digest.values("path_pairs_v6", study.path_pairs_v6);
      w.key("timelines_v4").value(static_cast<std::uint64_t>(study.v4.timelines));
      w.key("timelines_v6").value(static_cast<std::uint64_t>(study.v6.timelines));
      break;
    }
    case 5: {  // Fig 4/5/6: sub-optimal path buckets.
      const auto study = core::run_routing_study(*timelines_, config_.routing,
                                                 pool);
      for (const auto* fam : {&study.v4, &study.v6}) {
        digest.values("lifetime_hours_p10", fam->lifetime_hours_p10);
        digest.values("delta_p10_ms", fam->delta_p10_ms);
        digest.values("lifetime_hours_p90", fam->lifetime_hours_p90);
        digest.values("delta_p90_ms", fam->delta_p90_ms);
        digest.values("delta_stddev_ms", fam->delta_stddev_ms);
        for (const auto& row : fam->suboptimal_prevalence) {
          digest.values("suboptimal", row);
        }
      }
      w.key("timelines_v4").value(static_cast<std::uint64_t>(study.v4.timelines));
      w.key("timelines_v6").value(static_cast<std::uint64_t>(study.v6.timelines));
      break;
    }
    case 10: {  // Fig 10: dual-stack RTT difference ECDFs.
      const auto study = core::run_dualstack_study(*timelines_, pool);
      digest.count("samples_matched", study.samples_matched);
      digest.count("samples_same_path", study.samples_same_path);
      digest.count("pairs_matched", study.pairs_matched);
      for (const double qq :
           {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
        digest.value(study.diff_all.empty() ? 0.0
                                            : study.diff_all.quantile(qq));
        digest.value(study.diff_same_path.empty()
                         ? 0.0
                         : study.diff_same_path.quantile(qq));
      }
      digest.values("pair_median_diff", study.pair_median_diff);
      w.key("pairs_matched")
          .value(static_cast<std::uint64_t>(study.pairs_matched));
      w.key("samples_matched").value(study.samples_matched);
      break;
    }
    default:
      return error_response("bad_request",
                            "unknown figure (want 1, 2, 5 or 10)");
  }
  w.key("digest").value(digest.hex());
  w.end_object();
  return {MsgType::kOk, w.str()};
}

std::vector<Dataset::PairKey> Dataset::trace_pairs() const {
  std::vector<PairKey> out;
  if (timelines_ == nullptr) return out;
  timelines_->for_each([&](topology::ServerId src, topology::ServerId dst,
                           net::Family family, const core::TraceTimeline&) {
    out.push_back({src, dst,
                   static_cast<std::uint8_t>(
                       family == net::Family::kIPv6 ? 6 : 4)});
  });
  std::sort(out.begin(), out.end(), [](const PairKey& a, const PairKey& b) {
    return std::tie(a.src, a.dst, a.family) < std::tie(b.src, b.dst, b.family);
  });
  return out;
}

std::vector<Dataset::PairKey> Dataset::ping_pairs() const {
  std::vector<PairKey> out;
  if (pings_ == nullptr) return out;
  pings_->for_each([&](topology::ServerId src, topology::ServerId dst,
                       net::Family family, const core::PingSeriesStore::Series&) {
    out.push_back({src, dst,
                   static_cast<std::uint8_t>(
                       family == net::Family::kIPv6 ? 6 : 4)});
  });
  std::sort(out.begin(), out.end(), [](const PairKey& a, const PairKey& b) {
    return std::tie(a.src, a.dst, a.family) < std::tie(b.src, b.dst, b.family);
  });
  return out;
}

void Dataset::export_metrics(
    std::map<std::string, std::uint64_t>& counters) const {
  if (!loaded()) return;
  timelines_->export_metrics(counters);
  pings_->export_metrics(counters);
  ingest_.export_metrics(counters);
}

std::vector<std::pair<topology::ServerId, topology::ServerId>>
fixture_pairs(const topology::Topology& topo, std::size_t cap) {
  std::vector<topology::ServerId> dual;
  for (topology::ServerId s = 0; s < topo.servers.size(); ++s) {
    if (topo.servers[s].dual_stack()) dual.push_back(s);
  }
  std::vector<std::pair<topology::ServerId, topology::ServerId>> pairs;
  for (std::size_t i = 0; i < dual.size() && pairs.size() < cap; ++i) {
    for (std::size_t j = i + 1; j < dual.size() && pairs.size() < cap; ++j) {
      pairs.emplace_back(dual[i], dual[j]);
    }
  }
  return pairs;
}

bool write_fixture_archive(const std::string& path, const DatasetConfig& cfg,
                           const FixtureParams& params, std::string& error) {
  simnet::Network net(dataset_net_config(cfg));
  const auto ping_pairs = fixture_pairs(net.topo(), params.max_ping_pairs);
  if (ping_pairs.empty()) {
    error = "topology has no dual-stack server pairs";
    return false;
  }
  const std::vector<std::pair<topology::ServerId, topology::ServerId>>
      trace_pairs(ping_pairs.begin(),
                  ping_pairs.begin() +
                      std::min(params.max_trace_pairs, ping_pairs.size()));

  // Atomic commit: the campaigns stream into `path + ".tmp"`, and only a
  // fully sealed archive is renamed into place — a crash mid-campaign
  // never leaves a torn file under the final name (DESIGN.md section 12).
  io::AtomicArchiveWriter out(path);
  if (!out.ok()) {
    error = out.error();
    return false;
  }
  io::BinRecordWriter writer(out.stream());

  probe::TracerouteCampaignConfig trace_cfg;
  trace_cfg.start_day = cfg.trace_start_day;
  trace_cfg.days = params.trace_days;
  trace_cfg.interval_s = cfg.trace_interval_s;
  trace_cfg.paris_switch_day = cfg.trace_start_day + params.trace_days / 2.0;
  trace_cfg.seed = params.trace_seed;
  probe::TracerouteCampaign traces(net, trace_cfg, trace_pairs);
  traces.run([&](const probe::TracerouteRecord& r) { writer.write(r); });

  probe::PingCampaignConfig ping_cfg;
  ping_cfg.start_day = cfg.ping_start_day;
  ping_cfg.days = params.ping_days;
  ping_cfg.interval_s = cfg.ping_interval_s;
  ping_cfg.seed = params.ping_seed;
  probe::PingCampaign pings(net, ping_cfg, ping_pairs);
  pings.run([&](const probe::PingRecord& r) { writer.write(r); });

  writer.finish();
  return out.commit(error);
}

std::string archive_damage(const io::IngestResult& ingest, bool live) {
  if (!ingest.ok) {
    return ingest.error.empty() ? "archive unreadable" : ingest.error;
  }
  // An empty open shard is healthy — records arrive later.
  if (ingest.records == 0 && !live) return "archive contains no records";
  if (!ingest.binary) return "";  // text archives tolerate malformed lines
  if (ingest.truncated) return "archive is torn (EOF mid-block)";
  if (ingest.corrupt_blocks > 0) {
    return std::to_string(ingest.corrupt_blocks) +
           " corrupt block(s) skipped during ingest";
  }
  if (ingest.footer == io::FooterStatus::kInvalid) {
    return "footer index is damaged";
  }
  return "";
}

}  // namespace s2s::svc
