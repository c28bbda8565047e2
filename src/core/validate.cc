#include "core/validate.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "core/congestion_chain.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "simnet/network.h"

namespace s2s::core {

using simnet::EventKind;
using simnet::EventScheduleConfig;
using simnet::GroundTruthEntry;
using simnet::GroundTruthLedger;
using simnet::PairKey;
using topology::LinkId;
using topology::ServerId;

namespace {

/// FNV-1a 64-bit of the scenario name: a stable per-scenario stream tag,
/// so renumbering the matrix never changes an existing scenario's draws.
std::uint64_t fnv64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::int64_t overlap_s(const GroundTruthEntry& e, std::int64_t w0,
                       std::int64_t w1) {
  return std::min(e.t1, w1) - std::max(e.t0, w0);
}

bool links_share_router(const topology::Link& a, const topology::Link& b) {
  return a.end_a.router == b.end_a.router ||
         a.end_a.router == b.end_b.router ||
         a.end_b.router == b.end_a.router ||
         a.end_b.router == b.end_b.router;
}

bool link_matches(const topology::Topology& topo, LinkId got, LinkId want,
                  int tolerance_hops) {
  if (got == want) return true;
  if (tolerance_hops < 1) return false;
  return links_share_router(topo.links[got], topo.links[want]);
}

void write_kinds(obs::json::Writer& w,
                 const std::map<std::string, KindScore>& kinds) {
  w.begin_object();
  for (const auto& [name, ks] : kinds) {
    w.key(name).begin_object();
    w.key("entries").value(static_cast<std::uint64_t>(ks.entries));
    w.key("detected").value(static_cast<std::uint64_t>(ks.detected));
    w.key("localized").value(static_cast<std::uint64_t>(ks.localized));
    w.key("truth_pairs").value(static_cast<std::uint64_t>(ks.truth_pairs));
    w.key("flagged_pairs").value(
        static_cast<std::uint64_t>(ks.flagged_pairs));
    w.key("entry_recall").value(ks.entry_recall());
    w.key("pair_recall").value(ks.pair_recall());
    w.end_object();
  }
  w.end_object();
}

std::optional<std::map<std::string, KindScore>> parse_kinds(
    const obs::json::Value& v) {
  if (!v.is_object()) return std::nullopt;
  std::map<std::string, KindScore> out;
  for (const auto& [name, item] : v.object) {
    if (!item.is_object()) return std::nullopt;
    KindScore ks;
    const auto* entries = item.find("entries");
    const auto* detected = item.find("detected");
    const auto* localized = item.find("localized");
    const auto* truth = item.find("truth_pairs");
    const auto* flagged = item.find("flagged_pairs");
    if (!entries || !detected || !localized || !truth || !flagged) {
      return std::nullopt;
    }
    ks.entries = static_cast<std::size_t>(entries->as_u64());
    ks.detected = static_cast<std::size_t>(detected->as_u64());
    ks.localized = static_cast<std::size_t>(localized->as_u64());
    ks.truth_pairs = static_cast<std::size_t>(truth->as_u64());
    ks.flagged_pairs = static_cast<std::size_t>(flagged->as_u64());
    out.emplace(name, ks);
  }
  return out;
}

}  // namespace

std::string ValidationStudy::to_json() const {
  obs::json::Writer w;
  w.begin_object();
  w.key("schema_version").value(schema_version);
  w.key("seed").value(seed);
  w.key("full_matrix").value(full_matrix);
  w.key("scenarios").begin_array();
  for (const ScenarioScore& s : scenarios) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("primary_kind").value(s.primary_kind);
    w.key("with_diurnal").value(s.with_diurnal);
    w.key("magnitude_scale").value(s.magnitude_scale);
    w.key("events").value(static_cast<std::uint64_t>(s.events));
    w.key("assessed_pairs").value(
        static_cast<std::uint64_t>(s.assessed_pairs));
    w.key("truth_pairs").value(static_cast<std::uint64_t>(s.truth_pairs));
    w.key("ambiguous_pairs").value(
        static_cast<std::uint64_t>(s.ambiguous_pairs));
    w.key("flagged_pairs").value(
        static_cast<std::uint64_t>(s.flagged_pairs));
    w.key("true_positives").value(
        static_cast<std::uint64_t>(s.true_positives));
    w.key("false_positives").value(
        static_cast<std::uint64_t>(s.false_positives));
    w.key("false_negatives").value(
        static_cast<std::uint64_t>(s.false_negatives));
    w.key("precision").value(s.precision);
    w.key("recall").value(s.recall);
    w.key("fp_rate").value(s.fp_rate);
    w.key("localizations").value(
        static_cast<std::uint64_t>(s.localizations));
    w.key("localizations_correct").value(
        static_cast<std::uint64_t>(s.localizations_correct));
    w.key("localization_accuracy").value(s.localization_accuracy);
    w.key("kinds");
    write_kinds(w, s.kinds);
    w.end_object();
  }
  w.end_array();
  w.key("kinds");
  write_kinds(w, kinds);
  w.key("diurnal_recall").value(diurnal_recall);
  w.key("maintenance_fp_rate").value(maintenance_fp_rate);
  w.end_object();
  return w.str();
}

std::optional<ValidationStudy> ValidationStudy::parse(
    std::string_view json_text) {
  const auto doc = obs::json::parse(json_text);
  if (!doc || !doc->is_object()) return std::nullopt;
  const auto* version = doc->find("schema_version");
  if (!version || !version->is_number() ||
      version->as_i64() != kValidationSchemaVersion) {
    return std::nullopt;
  }
  ValidationStudy out;
  const auto* seed = doc->find("seed");
  const auto* full = doc->find("full_matrix");
  const auto* scenarios = doc->find("scenarios");
  const auto* kinds = doc->find("kinds");
  const auto* diurnal = doc->find("diurnal_recall");
  const auto* trap = doc->find("maintenance_fp_rate");
  if (!seed || !seed->is_number() || !full || !full->is_bool() ||
      !scenarios || !scenarios->is_array() || !kinds || !diurnal ||
      !diurnal->is_number() || !trap || !trap->is_number()) {
    return std::nullopt;
  }
  out.seed = seed->as_u64();
  out.full_matrix = full->boolean;
  out.diurnal_recall = diurnal->number;
  out.maintenance_fp_rate = trap->number;
  auto parsed_kinds = parse_kinds(*kinds);
  if (!parsed_kinds) return std::nullopt;
  out.kinds = std::move(*parsed_kinds);
  for (const auto& item : scenarios->array) {
    if (!item.is_object()) return std::nullopt;
    ScenarioScore s;
    const auto* name = item.find("name");
    const auto* primary = item.find("primary_kind");
    if (!name || !name->is_string() || !primary || !primary->is_string()) {
      return std::nullopt;
    }
    s.name = name->string;
    s.primary_kind = primary->string;
    auto u64 = [&](const char* field, std::size_t& into) {
      const auto* v = item.find(field);
      if (!v || !v->is_number()) return false;
      into = static_cast<std::size_t>(v->as_u64());
      return true;
    };
    auto f64 = [&](const char* field, double& into) {
      const auto* v = item.find(field);
      if (!v || !v->is_number()) return false;
      into = v->number;
      return true;
    };
    const auto* with_diurnal = item.find("with_diurnal");
    if (!with_diurnal || !with_diurnal->is_bool()) return std::nullopt;
    s.with_diurnal = with_diurnal->boolean;
    if (!f64("magnitude_scale", s.magnitude_scale) ||
        !u64("events", s.events) ||
        !u64("assessed_pairs", s.assessed_pairs) ||
        !u64("truth_pairs", s.truth_pairs) ||
        !u64("ambiguous_pairs", s.ambiguous_pairs) ||
        !u64("flagged_pairs", s.flagged_pairs) ||
        !u64("true_positives", s.true_positives) ||
        !u64("false_positives", s.false_positives) ||
        !u64("false_negatives", s.false_negatives) ||
        !f64("precision", s.precision) || !f64("recall", s.recall) ||
        !f64("fp_rate", s.fp_rate) ||
        !u64("localizations", s.localizations) ||
        !u64("localizations_correct", s.localizations_correct) ||
        !f64("localization_accuracy", s.localization_accuracy)) {
      return std::nullopt;
    }
    const auto* scenario_kinds = item.find("kinds");
    if (!scenario_kinds) return std::nullopt;
    auto parsed = parse_kinds(*scenario_kinds);
    if (!parsed) return std::nullopt;
    s.kinds = std::move(*parsed);
    out.scenarios.push_back(std::move(s));
  }
  return out;
}

GateResult check_gates(const ValidationStudy& study,
                       const GateConfig& config) {
  GateResult out;
  char buf[160];
  if (study.diurnal_recall < config.min_diurnal_recall) {
    std::snprintf(buf, sizeof buf,
                  "diurnal recall %.3f below floor %.3f",
                  study.diurnal_recall, config.min_diurnal_recall);
    out.violations.emplace_back(buf);
  }
  if (study.maintenance_fp_rate > config.max_maintenance_fp_rate) {
    std::snprintf(buf, sizeof buf,
                  "maintenance false-positive rate %.3f above ceiling %.3f",
                  study.maintenance_fp_rate,
                  config.max_maintenance_fp_rate);
    out.violations.emplace_back(buf);
  }
  out.pass = out.violations.empty();
  return out;
}

std::vector<ScenarioSpec> make_scenario_matrix(bool full) {
  std::vector<ScenarioSpec> out;
  auto add = [&](std::string name, EventKind primary, bool with_diurnal,
                 double scale, int flash, int cascades, int bloats,
                 int maints) {
    ScenarioSpec spec;
    spec.name = std::move(name);
    spec.primary = primary;
    spec.with_diurnal = with_diurnal;
    spec.events.magnitude_scale = scale;
    spec.events.flash_crowds = flash;
    spec.events.cascades = cascades;
    spec.events.bufferbloats = bloats;
    spec.events.maintenances = maints;
    out.push_back(std::move(spec));
  };
  // Fast subset: one scenario per kind, the diurnal baseline, and the
  // maintenance trap — what the default test lane and the CI gate run.
  add("diurnal_base", EventKind::kDiurnalModel, true, 1.0, 0, 0, 0, 0);
  add("flash_high", EventKind::kFlashCrowd, false, 1.5, 3, 0, 0, 0);
  add("cascade_high", EventKind::kLinkFailureCascade, false, 1.5, 0, 2, 0, 0);
  add("bloat_high", EventKind::kBufferbloat, false, 1.5, 0, 0, 2, 0);
  add("maintenance_trap", EventKind::kMaintenance, false, 1.0, 0, 0, 0, 3);
  add("flash_diurnal", EventKind::kFlashCrowd, true, 1.0, 2, 0, 0, 0);
  if (!full) return out;
  // Full matrix: low-magnitude arms, diurnal overlap per kind, and a
  // mixed kitchen-sink scenario.
  add("flash_low", EventKind::kFlashCrowd, false, 0.7, 3, 0, 0, 0);
  add("cascade_low", EventKind::kLinkFailureCascade, false, 0.7, 0, 2, 0, 0);
  add("bloat_low", EventKind::kBufferbloat, false, 0.7, 0, 0, 2, 0);
  add("cascade_diurnal", EventKind::kLinkFailureCascade, true, 1.0, 0, 2, 0,
      0);
  add("bloat_diurnal", EventKind::kBufferbloat, true, 1.0, 0, 0, 2, 0);
  add("maintenance_diurnal", EventKind::kMaintenance, true, 1.0, 0, 0, 0, 3);
  add("mixed_all", EventKind::kDiurnalModel, true, 1.0, 1, 1, 1, 1);
  return out;
}

void ScenarioScore::export_metrics(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["s2s.validate.scenarios"] += 1;
  counters["s2s.validate.events"] += events;
  counters["s2s.validate.pairs_assessed"] += assessed_pairs;
  counters["s2s.validate.true_positives"] += true_positives;
  counters["s2s.validate.false_positives"] += false_positives;
  counters["s2s.validate.false_negatives"] += false_negatives;
  counters["s2s.validate.localizations"] += localizations;
}

ScenarioScore run_scenario(const ScenarioSpec& spec,
                           const HarnessOptions& opt, RunFacts* facts) {
  // One span per scenario: its wall time in the RunReport's span table.
  const obs::TraceSpan scenario_span("validate.scenario." + spec.name);
  ScenarioScore score;
  score.name = spec.name;
  score.primary_kind = std::string(simnet::event_kind_name(spec.primary));
  score.with_diurnal = spec.with_diurnal;
  score.magnitude_scale = spec.events.magnitude_scale;

  // --- deployment -----------------------------------------------------
  // A compact topology so the whole matrix fits in the default test lane;
  // shapes (not absolute counts) are what the scores depend on.
  simnet::NetworkConfig net_cfg;
  net_cfg.topology.seed = opt.seed;
  net_cfg.topology.tier1_count = 4;
  net_cfg.topology.transit_count = 18;
  net_cfg.topology.stub_count = 70;
  net_cfg.topology.server_count = opt.servers;
  // Keep routing churn out of the detector's input: outages add broadband
  // RTT steps that are neither ground truth nor detector error.
  net_cfg.dynamics.mean_outages_per_adjacency = 0.3;
  if (spec.with_diurnal) {
    // Crank the diurnal model so congested links land on probed paths,
    // and make every episode cover the campaign (assessable truth).
    net_cfg.congestion.internal_fraction = 0.10;
    net_cfg.congestion.private_interconnect_fraction = 0.15;
    net_cfg.congestion.public_ixp_fraction = 0.02;
    net_cfg.congestion.permanent_prob = 1.0;
    net_cfg.congestion.bursty_fraction = 0.0;
  } else {
    // Clean background: the event overlay is the only congestion.
    net_cfg.congestion.internal_fraction = 0.0;
    net_cfg.congestion.private_interconnect_fraction = 0.0;
    net_cfg.congestion.public_ixp_fraction = 0.0;
    net_cfg.congestion.bursty_fraction = 0.0;
  }
  simnet::Network net(net_cfg);

  const std::vector<std::pair<ServerId, ServerId>> unordered =
      simnet::sample_dual_stack_pairs(
          net.topo(), static_cast<std::size_t>(opt.pairs), opt.seed)
          .pairs;
  std::vector<std::pair<ServerId, ServerId>> ordered(unordered);
  for (const auto& [a, b] : unordered) ordered.emplace_back(b, a);
  std::sort(ordered.begin(), ordered.end());
  ordered.erase(std::unique(ordered.begin(), ordered.end()), ordered.end());
  net.prepare(ordered);

  // --- event schedule + ground truth ----------------------------------
  const double start_day = 100.0;
  const auto w0 = static_cast<std::int64_t>(start_day * 86400.0);
  const auto w1 = w0 + static_cast<std::int64_t>(opt.days * 86400.0);

  // Target links probes actually cross, most-crossed first, so events are
  // observable. Midpoint resolution is representative: outages are rare
  // here by config.
  const auto crossed = simnet::links_crossed(
      net, ordered, net::Family::kIPv4, net::SimTime((w0 + w1) / 2));
  std::vector<LinkId> candidates;
  candidates.reserve(crossed.size());
  for (const auto& [link, count] : crossed) candidates.push_back(link);

  EventScheduleConfig ev_cfg = spec.events;
  ev_cfg.start_day = start_day;
  ev_cfg.days = opt.days;
  const simnet::EventSchedule schedule(
      net.topo(), ev_cfg, candidates,
      stats::Rng(opt.seed * 0x9e3779b97f4a7c15ULL ^ fnv64(spec.name)));

  GroundTruthLedger ledger = schedule.ledger();
  simnet::append_congestion_ground_truth(
      ledger, net.congestion(), start_day, opt.days,
      opt.matcher.min_diurnal_amplitude_ms,
      opt.matcher.min_diurnal_active_fraction);
  // Sub-floor diurnal exposure is ambiguous: flagging it is not wrong,
  // missing it is not wrong either — those pairs leave the score.
  GroundTruthLedger gray_ledger;
  simnet::append_congestion_ground_truth(gray_ledger, net.congestion(),
                                         start_day, opt.days,
                                         /*min_amplitude_ms=*/0.0,
                                         /*min_active_fraction=*/0.0);
  simnet::resolve_affected_pairs(ledger, net, ordered);
  simnet::resolve_affected_pairs(gray_ledger, net, ordered);
  score.events = ledger.entries.size();

  // --- the Section 5 chain ---------------------------------------------
  // The follow-up runs concurrently with the ping week, so transient
  // events are still live when it looks for them.
  CongestionChainConfig chain_cfg;
  chain_cfg.ping = {start_day, opt.days,
                    opt.seed * 31 + (fnv64(spec.name) | 1)};
  chain_cfg.followup = chain_cfg.ping;
  chain_cfg.followup.seed += 37;
  // Host downtime is a separate axis; keep it near zero so sample counts
  // (and with them assessability) stay stable across scenarios.
  chain_cfg.downtime.monthly_window_prob = 0.02;
  chain_cfg.events = &schedule;
  const CongestionChainResult chain =
      run_congestion_chain(net, unordered, chain_cfg, opt.pool, facts);

  // --- match verdicts against the ledger ------------------------------
  std::set<PairKey> assessed;
  chain.pings.for_each([&](ServerId src, ServerId dst, net::Family family,
                           const PingSeriesStore::Series& series) {
    if (series.valid >= chain.survey_config.min_samples) {
      assessed.insert({src, dst, family});
    }
  });

  auto scoreable = [&](const GroundTruthEntry& e) {
    return e.inflates_rtt &&
           overlap_s(e, w0, w1) >=
               static_cast<std::int64_t>(opt.matcher.min_overlap_s);
  };
  std::set<PairKey> truth;
  for (const GroundTruthEntry& e : ledger.entries) {
    if (!scoreable(e)) continue;
    for (const PairKey& p : e.affected) {
      if (assessed.count(p) > 0) truth.insert(p);
    }
  }
  std::set<PairKey> gray;
  for (const GroundTruthEntry& e : gray_ledger.entries) {
    if (!e.inflates_rtt) continue;
    for (const PairKey& p : e.affected) {
      if (assessed.count(p) > 0 && truth.count(p) == 0) gray.insert(p);
    }
  }
  std::set<PairKey> flagged;
  for (const FlaggedPair& f : chain.survey.flagged) {
    flagged.insert({f.src, f.dst, f.family});
  }

  score.assessed_pairs = assessed.size();
  score.truth_pairs = truth.size();
  score.ambiguous_pairs = gray.size();
  score.flagged_pairs = flagged.size();
  for (const PairKey& p : flagged) {
    if (truth.count(p) > 0) {
      ++score.true_positives;
    } else if (gray.count(p) == 0) {
      ++score.false_positives;
    }
  }
  for (const PairKey& p : truth) {
    if (flagged.count(p) == 0) ++score.false_negatives;
  }
  const std::size_t positives =
      score.true_positives + score.false_positives;
  score.precision =
      positives == 0 ? 1.0
                     : static_cast<double>(score.true_positives) /
                           static_cast<double>(positives);
  const std::size_t truth_seen =
      score.true_positives + score.false_negatives;
  score.recall = truth_seen == 0
                     ? 1.0
                     : static_cast<double>(score.true_positives) /
                           static_cast<double>(truth_seen);
  const std::size_t clean =
      score.assessed_pairs - score.truth_pairs - score.ambiguous_pairs;
  score.fp_rate = clean == 0
                      ? 0.0
                      : static_cast<double>(score.false_positives) /
                            static_cast<double>(clean);

  // Per-kind tallies over scoreable entries.
  for (const GroundTruthEntry& e : ledger.entries) {
    if (!scoreable(e)) continue;
    std::size_t pairs = 0, hits = 0;
    for (const PairKey& p : e.affected) {
      if (assessed.count(p) == 0) continue;
      ++pairs;
      if (flagged.count(p) > 0) ++hits;
    }
    if (pairs == 0) continue;  // invisible to the campaign
    KindScore& ks = score.kinds[std::string(simnet::event_kind_name(e.kind))];
    ++ks.entries;
    ks.truth_pairs += pairs;
    ks.flagged_pairs += hits;
    if (hits > 0) ++ks.detected;
  }

  // --- localization against the ledger -------------------------------
  if (!chain.localization.segments.empty()) {
    // Interface address -> link index for matching localized hop pairs
    // back to ground-truth links.
    std::map<net::IPAddr, LinkId> addr_to_link;
    for (LinkId id = 0; id < net.topo().links.size(); ++id) {
      const auto& link = net.topo().links[id];
      addr_to_link.emplace(link.end_a.addr4, id);
      addr_to_link.emplace(link.end_b.addr4, id);
      if (link.end_a.addr6) addr_to_link.emplace(*link.end_a.addr6, id);
      if (link.end_b.addr6) addr_to_link.emplace(*link.end_b.addr6, id);
    }
    std::set<std::size_t> localized_entries;
    for (const CongestedSegmentObs& obs : chain.localization.segments) {
      ++score.localizations;
      std::optional<LinkId> got;
      if (obs.far_addr) {
        if (const auto it = addr_to_link.find(*obs.far_addr);
            it != addr_to_link.end()) {
          got = it->second;
        }
      }
      if (!got && obs.near_addr) {
        if (const auto it = addr_to_link.find(*obs.near_addr);
            it != addr_to_link.end()) {
          got = it->second;
        }
      }
      if (!got) continue;
      const PairKey pair{obs.src, obs.dst, obs.family};
      bool correct = false;
      for (std::size_t i = 0; i < ledger.entries.size(); ++i) {
        const GroundTruthEntry& e = ledger.entries[i];
        if (!scoreable(e)) continue;
        if (std::find(e.affected.begin(), e.affected.end(), pair) ==
            e.affected.end()) {
          continue;
        }
        if (link_matches(net.topo(), *got, e.link,
                         opt.matcher.link_tolerance_hops)) {
          correct = true;
          localized_entries.insert(i);
        }
      }
      if (correct) ++score.localizations_correct;
    }
    for (const std::size_t i : localized_entries) {
      ++score.kinds[std::string(
                        simnet::event_kind_name(ledger.entries[i].kind))]
            .localized;
    }
  }
  score.localization_accuracy =
      score.localizations == 0
          ? 1.0
          : static_cast<double>(score.localizations_correct) /
                static_cast<double>(score.localizations);
  obs::logf(obs::LogLevel::kInfo,
            "validate %s: truth %zu flagged %zu tp %zu fp %zu fn %zu "
            "loc %zu/%zu",
            score.name.c_str(), score.truth_pairs, score.flagged_pairs,
            score.true_positives, score.false_positives,
            score.false_negatives, score.localizations_correct,
            score.localizations);
  return score;
}

ValidationStudy run_matrix(std::span<const ScenarioSpec> specs,
                           const HarnessOptions& opt, RunFacts* facts) {
  ValidationStudy study;
  study.seed = opt.seed;
  for (const ScenarioSpec& spec : specs) {
    study.scenarios.push_back(run_scenario(spec, opt, facts));
  }
  for (const ScenarioScore& s : study.scenarios) {
    for (const auto& [name, ks] : s.kinds) {
      KindScore& agg = study.kinds[name];
      agg.entries += ks.entries;
      agg.detected += ks.detected;
      agg.localized += ks.localized;
      agg.truth_pairs += ks.truth_pairs;
      agg.flagged_pairs += ks.flagged_pairs;
    }
    if (s.primary_kind ==
            simnet::event_kind_name(EventKind::kMaintenance) &&
        !s.with_diurnal) {
      study.maintenance_fp_rate =
          std::max(study.maintenance_fp_rate, s.fp_rate);
    }
  }
  const auto diurnal = study.kinds.find(
      std::string(simnet::event_kind_name(EventKind::kDiurnalModel)));
  study.diurnal_recall =
      diurnal == study.kinds.end() ? 1.0 : diurnal->second.pair_recall();
  return study;
}

}  // namespace s2s::core
