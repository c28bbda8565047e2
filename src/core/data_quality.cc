#include "core/data_quality.h"

#include <bit>
#include <cmath>

#include "obs/run_report.h"

namespace s2s::core {

namespace {

/// Word-at-a-time mixer. Each step is a bijection of the state for a
/// fixed word and of the word for a fixed state, so two equal-length word
/// sequences that differ in one word never collide.
class Mixer {
 public:
  explicit Mixer(std::uint64_t tag) { mix(tag); }

  void mix(std::uint64_t v) noexcept {
    h_ = (h_ ^ v) * 0x9e3779b97f4a7c15ULL;
    h_ ^= h_ >> 32;
  }
  void mix(double v) noexcept { mix(std::bit_cast<std::uint64_t>(v)); }

  /// MurmurHash3's 64-bit finalizer.
  std::uint64_t finish() const noexcept {
    std::uint64_t h = h_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t pair_word(topology::ServerId src, topology::ServerId dst) {
  return (std::uint64_t{src} << 32) | dst;
}

bool valid_rtt(double ms) {
  return std::isfinite(ms) && ms >= 0.0 && ms <= probe::kMaxPlausibleRttMs;
}

bool valid_time(net::SimTime t) {
  return t.seconds() >= 0 && t.seconds() <= probe::kMaxTimestampS;
}

}  // namespace

IngestGate::IngestGate(std::string_view subsystem)
    : subsystem_(subsystem),
      rtt_ms_(obs::MetricsRegistry::global().histogram(
          "s2s." + std::string(subsystem) + ".rtt_ms",
          obs::MetricsRegistry::rtt_ms_bounds())) {}

void IngestGate::export_metrics(
    std::map<std::string, std::uint64_t>& counters) const {
  const std::string prefix = "s2s." + std::string(subsystem_) + ".";
  counters[prefix + "records"] += accepted_;
  counters[prefix + "drop_invalid_rtt"] += quality_.invalid_rtt;
  counters[prefix + "drop_duplicates"] += quality_.duplicates_dropped;
  counters[prefix + "drop_out_of_grid"] += quality_.out_of_grid;
  counters[prefix + "reordered"] += quality_.reordered;
}

void RunFacts::add_to(obs::RunReport& report) const {
  for (const auto& [name, v] : counters) report.counters[name] += v;
  for (const auto& [name, v] : gauges) report.gauges[name] = v;
  for (const auto& [name, v] : quality.as_map()) report.data_quality[name] = v;
}

std::map<std::string, std::size_t> DataQualityReport::as_map() const {
  return {{"invalid_rtt", invalid_rtt},
          {"duplicates_dropped", duplicates_dropped},
          {"reordered", reordered},
          {"out_of_grid", out_of_grid},
          {"insufficient_epochs", insufficient_epochs},
          {"insufficient_series", insufficient_series},
          {"interpolated_samples", interpolated_samples},
          {"corrupt_blocks", corrupt_blocks}};
}

std::string DataQualityReport::to_string() const {
  std::string out = "invalid_rtt=" + std::to_string(invalid_rtt);
  out += " duplicates_dropped=" + std::to_string(duplicates_dropped);
  out += " reordered=" + std::to_string(reordered);
  out += " out_of_grid=" + std::to_string(out_of_grid);
  out += " insufficient_epochs=" + std::to_string(insufficient_epochs);
  out += " insufficient_series=" + std::to_string(insufficient_series);
  out += " interpolated_samples=" + std::to_string(interpolated_samples);
  out += " corrupt_blocks=" + std::to_string(corrupt_blocks);
  return out;
}

bool valid_record(const probe::TracerouteRecord& r) {
  if (!valid_time(r.time)) return false;
  for (const auto& hop : r.hops) {
    if (!valid_rtt(hop.rtt_ms)) return false;
  }
  return true;
}

bool valid_record(const probe::PingRecord& r) {
  return valid_time(r.time) && valid_rtt(r.rtt_ms);
}

std::uint64_t fingerprint(const probe::TracerouteRecord& r) {
  Mixer m('T' | static_cast<std::uint64_t>(r.family) << 8 |
          static_cast<std::uint64_t>(r.method) << 16 |
          std::uint64_t{r.complete} << 24 |
          static_cast<std::uint64_t>(r.hops.size()) << 32);
  m.mix(pair_word(r.src, r.dst));
  m.mix(static_cast<std::uint64_t>(r.time.seconds()));
  // Per hop: a tag word (family, or unresponsive), the full address, the
  // RTT. The tag keeps the encoding injective across hop kinds.
  for (const auto& hop : r.hops) {
    if (!hop.addr) {
      m.mix(std::uint64_t{0x2a} << 32);
    } else if (hop.addr->is_v4()) {
      m.mix(std::uint64_t{4} << 32 | hop.addr->v4().value());
    } else {
      m.mix(std::uint64_t{6} << 32);
      m.mix(hop.addr->v6().hi());
      m.mix(hop.addr->v6().lo());
    }
    m.mix(hop.rtt_ms);
  }
  return m.finish();
}

std::uint64_t fingerprint(const probe::PingRecord& r) {
  Mixer m('P' | static_cast<std::uint64_t>(r.family) << 8 |
          std::uint64_t{r.success} << 16);
  m.mix(pair_word(r.src, r.dst));
  m.mix(static_cast<std::uint64_t>(r.time.seconds()));
  m.mix(r.rtt_ms);
  return m.finish();
}

DedupWindow::DedupWindow(std::size_t capacity)
    : ring_(capacity, 0),
      table_(std::bit_ceil(2 * capacity), 0),
      mask_(table_.size() - 1),
      shift_(64 - std::countr_zero(table_.size())) {}

std::size_t DedupWindow::home(std::uint64_t fp) const noexcept {
  // Fibonacci hashing: the top bits of the product depend on every bit
  // of `fp`, so clustered low bits still spread over the table.
  return static_cast<std::size_t>((fp * 0x9e3779b97f4a7c15ULL) >> shift_);
}

std::size_t DedupWindow::probe(std::uint64_t fp) const noexcept {
  std::size_t i = home(fp);
  while (table_[i] != 0 && table_[i] != fp) i = (i + 1) & mask_;
  return i;
}

void DedupWindow::erase(std::uint64_t fp) noexcept {
  if (fp == 0) {
    has_zero_ = false;
    return;
  }
  // Backward-shift deletion: pull later members of the probe run into
  // the hole when their home slot allows it, so no tombstones remain.
  std::size_t hole = probe(fp);
  for (std::size_t j = (hole + 1) & mask_; table_[j] != 0;
       j = (j + 1) & mask_) {
    const std::size_t from_home = (j - home(table_[j])) & mask_;
    if (from_home >= ((j - hole) & mask_)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = 0;
}

bool DedupWindow::seen_or_insert(std::uint64_t fp) {
  if (fp == 0 ? has_zero_ : table_[probe(fp)] != 0) return true;
  if (size_ == ring_.size()) {
    erase(ring_[head_]);
  } else {
    ++size_;
  }
  ring_[head_] = fp;
  if (fp == 0) {
    has_zero_ = true;
  } else {
    table_[probe(fp)] = fp;
  }
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  return false;
}

}  // namespace s2s::core
