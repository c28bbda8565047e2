// s2s_validate: detector precision/recall validation harness.
//
// Runs the seeded scenario matrix (core/validate.h) — event-driven
// congestion overlays with ground-truth ledgers, the FFT diurnal survey
// and the localization pass — scores verdicts against the ledger, and
// writes the versioned JSON study. With --gate, exits non-zero when a CI
// floor is violated (diurnal recall, maintenance false-positive rate).
//
// Usage:
//   s2s_validate [--full] [--seed N] [--threads N] [--out PATH] [--gate]
//
// The study contains no wall-clock fields and every analysis pass merges
// fixed shards in order, so output is byte-identical at any --threads /
// S2S_THREADS setting.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/validate.h"
#include "exec/pool.h"
#include "obs/log.h"
#include "obs/run_report.h"

namespace {

void print_usage() {
  std::fprintf(
      stderr,
      "usage: s2s_validate [--full] [--seed N] [--threads N]\n"
      "                    [--out PATH] [--gate] [--report PATH]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s2s;

  bool full = false;
  bool gate = false;
  std::uint64_t seed = 42;
  int threads = 0;
  std::string out_path = "validate_study.json";
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (!std::strcmp(argv[i], "--full")) {
      full = true;
    } else if (!std::strcmp(argv[i], "--fast")) {
      full = false;
    } else if (!std::strcmp(argv[i], "--gate")) {
      gate = true;
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--out")) {
      out_path = next();
    } else if (!std::strcmp(argv[i], "--report")) {
      report_path = next();
    } else {
      print_usage();
      return 2;
    }
  }

  exec::ThreadPool pool(threads > 0 ? static_cast<unsigned>(threads) : 0u);
  core::HarnessOptions opt;
  opt.seed = seed;
  opt.pool = &pool;
  const auto specs = core::make_scenario_matrix(full);

  std::printf("== s2s_validate ==\n");
  std::printf("matrix: %s (%zu scenarios), seed %llu, %u threads\n",
              full ? "full" : "fast", specs.size(),
              static_cast<unsigned long long>(seed), pool.thread_count());

  core::RunFacts facts;
  core::ValidationStudy study = core::run_matrix(specs, opt, &facts);
  study.full_matrix = full;

  std::printf("%-20s %-8s %5s %5s %5s %5s %5s  %9s %9s %7s  %s\n",
              "scenario", "primary", "truth", "flag", "tp", "fp", "fn",
              "precision", "recall", "fprate", "loc");
  for (const auto& s : study.scenarios) {
    std::printf("%-20s %-8.8s %5zu %5zu %5zu %5zu %5zu  %9.3f %9.3f %7.3f"
                "  %zu/%zu\n",
                s.name.c_str(), s.primary_kind.c_str(), s.truth_pairs,
                s.flagged_pairs, s.true_positives, s.false_positives,
                s.false_negatives, s.precision, s.recall, s.fp_rate,
                s.localizations_correct, s.localizations);
  }
  std::printf("per-kind recall (entries, pairs):\n");
  for (const auto& [name, ks] : study.kinds) {
    std::printf("  %-22s entries %2zu/%2zu (%.3f)  pairs %3zu/%3zu (%.3f)"
                "  localized %zu\n",
                name.c_str(), ks.detected, ks.entries, ks.entry_recall(),
                ks.flagged_pairs, ks.truth_pairs, ks.pair_recall(),
                ks.localized);
  }
  std::printf("aggregates: diurnal recall %.3f, maintenance fp rate %.3f\n",
              study.diurnal_recall, study.maintenance_fp_rate);

  if (!obs::write_text_file(out_path, study.to_json())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("study: %s\n", out_path.c_str());
  if (!report_path.empty()) {
    obs::RunReport report = obs::build_run_report("s2s_validate");
    facts.note(study);
    facts.add_to(report);
    if (obs::write_text_file(report_path, report.to_json())) {
      std::printf("run report: %s\n", report_path.c_str());
    }
  }

  if (gate) {
    const core::GateResult result = core::check_gates(study);
    for (const auto& v : result.violations) {
      std::fprintf(stderr, "GATE VIOLATION: %s\n", v.c_str());
    }
    if (!result.pass) return 1;
    std::printf("gates: pass\n");
  }
  return 0;
}
