// Machine-readable run reports: one versioned JSON document per run.
//
// A RunReport merges the three observability surfaces into one artifact
// written at the end of a campaign/survey/bench run:
//   * MetricsRegistry snapshot (counters, histograms) plus the counters
//     and gauges the run's owners export,
//   * per-stage span timings aggregated by path from a TraceCollector,
//   * the pipeline's DataQualityReport counters (passed in as a plain
//     name->count map so this layer stays below core).
//
// Schema versioning policy (DESIGN.md section 8): `schema_version` bumps
// on any incompatible change (key removal/retyping); adding keys is
// compatible and does not bump. Consumers (CI validator, perf-trajectory
// tooling) must reject versions they do not know.
//
// v2 (DESIGN.md section 13): histograms gain an "overflow" key (samples
// past the last finite bound, i.e. where quantile() clamps), and two
// optional top-level maps join: "windowed" (last-N-seconds latency
// views) and "slo" (threshold good/total counters). v1 documents parse
// as v2 minus the new keys; the version bumped because consumers keying
// SLO dashboards off these maps must not silently read a v1 file.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/windowed.h"

namespace s2s::obs {

inline constexpr int kRunReportSchemaVersion = 2;

struct RunReport {
  int schema_version = kRunReportSchemaVersion;
  std::string tool;     ///< binary or stage that produced the run
  double wall_ms = 0.0; ///< end-to-end wall time, when known

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;  ///< set by owners, not the registry
  std::map<std::string, HistogramSnapshot> histograms;

  struct SpanStat {
    std::uint32_t depth = 0;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Aggregated span timings keyed by span path ("a/b/c").
  std::map<std::string, SpanStat> spans;

  /// DataQualityReport counters (e.g. "invalid_rtt"), possibly merged
  /// across stores; empty when the run has no quality accounting.
  std::map<std::string, std::uint64_t> data_quality;

  /// Last-N-seconds latency views keyed by metric name (serving daemons
  /// fill these from their WindowedHistograms at shutdown). Optional —
  /// batch tools leave them empty.
  std::map<std::string, WindowedSnapshot> windowed;
  /// SLO good/total counters keyed by metric name. Optional.
  std::map<std::string, SloStat> slo;

  std::size_t metric_count() const {
    return counters.size() + gauges.size() + histograms.size();
  }
  /// Spans that live under a parent (path contains '/').
  std::size_t nested_span_count() const;

  std::string to_json() const;
  static std::optional<RunReport> parse(std::string_view json_text);
};

/// Captures the current state of a registry + collector into a report.
/// wall_ms is taken from the span of the earliest start to the latest
/// end; callers may overwrite it. data_quality starts empty.
RunReport build_run_report(
    std::string tool,
    const MetricsRegistry& registry = MetricsRegistry::global(),
    const TraceCollector& collector = TraceCollector::global());

/// Writes `text` to `path` atomically enough for CI (tmp file + rename
/// is overkill here; a failed write returns false and logs).
bool write_text_file(const std::string& path, const std::string& text);

}  // namespace s2s::obs
