// Detector validation harness: precision/recall against event ground
// truth (ROADMAP "Scenario diversity").
//
// The FFT diurnal detector (congestion_detect.h) and the localization
// pass (localize.h) were built for the paper's consistent-congestion
// signal. This stage measures what they actually do when campaigns carry
// congestion they should flag but were not designed for — flash crowds,
// failure cascades, bufferbloat — and benign dynamics they should ignore
// (maintenance loss windows), following Genin & Splett's congestion
// typology and Fontugne et al.'s ground-truth scoring (PAPERS.md).
//
// A scenario = one simulated deployment + one EventSchedule (+ optionally
// the diurnal CongestionModel cranked up) and the Section 5 chain the
// figures run (core::run_congestion_chain: a one-week ping campaign, the
// survey, and for flagged pairs a follow-up traceroute campaign plus
// localization), here with the schedule installed. Verdicts are matched against the GroundTruthLedger with
// configurable time/link tolerance; scores roll up into a versioned JSON
// ValidationStudy whose aggregates CI gates on (diurnal recall,
// maintenance false-positive rate). Everything is seed-deterministic and
// thread-width-independent, so the study is byte-identical at any
// S2S_THREADS — the same contract the analysis passes already honor
// (DESIGN.md section 9). Observability: the study exports its scores as
// `s2s.validate.*` counters; its scenarios' other facts come out apart.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/data_quality.h"
#include "exec/pool.h"
#include "simnet/events.h"

namespace s2s::core {

/// Tolerance semantics for matching detector output to ledger entries.
struct MatcherConfig {
  /// An entry only enters the positive class when it overlaps the
  /// campaign window at least this long (shorter clips are not fairly
  /// detectable at 15-minute sampling).
  double min_overlap_s = 2.0 * 3600.0;
  /// Localization slack: 0 = the exact ground-truth link, 1 = that link
  /// or any link sharing a router with it (one hop of slack).
  int link_tolerance_hops = 1;
  /// Detectability floor for diurnal-model ground truth: profiles below
  /// this one-way amplitude are excluded from the positive class, and
  /// pairs that see only sub-floor congestion are scored as neither true
  /// nor false positives (ambiguous, not a detector error either way).
  double min_diurnal_amplitude_ms = 15.0;
  /// Diurnal profiles must be active at least this fraction of the window.
  double min_diurnal_active_fraction = 0.7;
};

/// One event kind's detection tally within a scenario or study.
struct KindScore {
  std::size_t entries = 0;    ///< scoreable ledger entries of this kind
  std::size_t detected = 0;   ///< entries with >= 1 affected pair flagged
  std::size_t localized = 0;  ///< entries hit by a correct localization
  std::size_t truth_pairs = 0;    ///< assessable affected pairs
  std::size_t flagged_pairs = 0;  ///< of those, flagged by the survey

  double entry_recall() const {
    return entries == 0 ? 1.0
                        : static_cast<double>(detected) /
                              static_cast<double>(entries);
  }
  double pair_recall() const {
    return truth_pairs == 0 ? 1.0
                            : static_cast<double>(flagged_pairs) /
                                  static_cast<double>(truth_pairs);
  }
};

/// Scores of one scenario run. Pair-level sets are over ordered
/// (src, dst, family) series, the unit the survey judges.
struct ScenarioScore {
  std::string name;
  std::string primary_kind;  ///< event_kind_name of the scenario's subject
  bool with_diurnal = false;
  double magnitude_scale = 1.0;

  std::size_t events = 0;          ///< ledger entries emitted
  std::size_t assessed_pairs = 0;  ///< series with enough samples
  std::size_t truth_pairs = 0;     ///< assessable pairs in the positive class
  std::size_t ambiguous_pairs = 0; ///< sub-floor exposure, excluded
  std::size_t flagged_pairs = 0;   ///< survey verdicts
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;
  double precision = 1.0;  ///< TP / (TP + FP); 1 when nothing flagged
  double recall = 1.0;     ///< TP / (TP + FN); 1 when no truth
  /// FP / (assessed - truth - ambiguous): how often clean series get
  /// flagged — the number the maintenance trap scenario gates on.
  double fp_rate = 0.0;

  std::size_t localizations = 0;          ///< segments the pass reported
  std::size_t localizations_correct = 0;  ///< within link tolerance
  double localization_accuracy = 1.0;     ///< 1 when nothing localized

  /// Per-kind tallies over this scenario's inflating entries.
  std::map<std::string, KindScore> kinds;

  /// Adds this scenario to s2s.validate.{scenarios,events,pairs_assessed,
  /// true_positives,false_positives,false_negatives,localizations}.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const;
};

inline constexpr int kValidationSchemaVersion = 1;

/// The versioned study artifact `tools/s2s_validate` emits. Contains no
/// wall-clock fields, so equal runs serialize byte-identically.
struct ValidationStudy {
  int schema_version = kValidationSchemaVersion;
  std::uint64_t seed = 0;
  bool full_matrix = false;
  std::vector<ScenarioScore> scenarios;

  /// Aggregates across scenarios (sum of per-kind tallies).
  std::map<std::string, KindScore> kinds;
  /// Pair-level recall over diurnal-model ground truth — the CI floor.
  double diurnal_recall = 1.0;
  /// Worst fp_rate over maintenance-trap scenarios — the CI ceiling.
  double maintenance_fp_rate = 0.0;

  std::string to_json() const;
  static std::optional<ValidationStudy> parse(std::string_view json_text);

  /// Adds every scenario's ScenarioScore::export_metrics.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const {
    for (const ScenarioScore& s : scenarios) s.export_metrics(counters);
  }
};

/// CI floors; check_gates reports every violation, not just the first.
struct GateConfig {
  double min_diurnal_recall = 0.9;
  double max_maintenance_fp_rate = 0.1;
};

struct GateResult {
  bool pass = true;
  std::vector<std::string> violations;
};

GateResult check_gates(const ValidationStudy& study,
                       const GateConfig& config = {});

/// One cell of the scenario matrix: which events to overlay, at what
/// magnitude, with or without the diurnal model underneath.
struct ScenarioSpec {
  std::string name;
  simnet::EventKind primary = simnet::EventKind::kDiurnalModel;
  bool with_diurnal = false;
  /// Counts and magnitude_scale; start_day/days are filled by the
  /// harness from its campaign window.
  simnet::EventScheduleConfig events;
};

/// The seeded scenario matrix: `full` covers event kind x {low, high}
/// magnitude x {with, without} diurnal plus baselines; the fast subset
/// keeps one scenario per kind plus the baseline and the trap (what the
/// default test lane and the CI gate run).
std::vector<ScenarioSpec> make_scenario_matrix(bool full);

struct HarnessOptions {
  std::uint64_t seed = 42;
  int servers = 20;
  int pairs = 24;     ///< unordered pairs sampled from the dual-stack mesh
  double days = 7.0;  ///< ping campaign length (15-minute epochs)
  MatcherConfig matcher;
  exec::ThreadPool* pool = nullptr;  ///< analysis passes; nullptr = inline
};

/// Runs one scenario end to end: deployment, event schedule, ledger,
/// the Section 5 chain, scoring. Notes the chain's campaigns, stores,
/// survey and localization in `facts` when given.
ScenarioScore run_scenario(const ScenarioSpec& spec,
                           const HarnessOptions& opt,
                           RunFacts* facts = nullptr);

/// Runs every scenario and rolls up the aggregates.
ValidationStudy run_matrix(std::span<const ScenarioSpec> specs,
                           const HarnessOptions& opt,
                           RunFacts* facts = nullptr);

}  // namespace s2s::core
