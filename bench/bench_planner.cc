// bench_planner: kAuto (cost-model planner) vs each forced exact solver
// over the crossover grid, emitting BENCH_planner.json.
//
// For every (metric, n, corruption) cell the harness times Repair under
// kAuto, forced FPT, and forced cubic on the same corrupted document, then
// checks two properties:
//
//   * auto throughput >= 0.95x the best forced solver on EVERY row (with a
//     200us absolute slack so microsecond-scale rows, where one scheduler
//     blip outweighs any planning decision, cannot flap the run), and
//   * auto is strictly faster than always-FPT on at least one high-
//     distance row — the regression the planner exists to fix.
//
// Exit status 0 iff both hold (plus distance agreement everywhere).
// --smoke shrinks the grid to seconds and only checks agreement; --out=P
// redirects the JSON.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/dyck.h"
#include "src/gen/workload.h"
#include "src/pipeline/telemetry.h"

namespace {

struct Row {
  const char* metric;
  int64_t n;
  int64_t corruption;
  int64_t distance;
  std::string auto_choice;
  double auto_seconds;
  double fpt_seconds;
  double cubic_seconds;
};

// Min-of-reps with an adaptive rep count: keep re-running until the cell
// has accumulated kMinTotalSeconds of samples (or kMaxReps), so fast runs
// — where scheduler noise can be half the measurement — get many reps
// while multi-second cubic cells stay at one. `max_reps` caps the loop
// (1 in --smoke mode).
double TimeRepair(const dyck::ParenSeq& seq, const dyck::Options& options,
                  int max_reps, int64_t* out_distance) {
  constexpr double kMinTotalSeconds = 100e-3;
  double best = 0;
  double total = 0;
  for (int i = 0; i < max_reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = dyck::Repair(seq, options);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (!result.ok()) {
      std::fprintf(stderr, "bench_planner: repair failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(2);
    }
    *out_distance = result->distance;
    if (i == 0 || elapsed.count() < best) best = elapsed.count();
    total += elapsed.count();
    if (total >= kMinTotalSeconds) break;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_planner.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  const std::vector<int64_t> sizes =
      smoke ? std::vector<int64_t>{128, 256}
            : std::vector<int64_t>{256, 512, 1024, 2048};
  const std::vector<int64_t> deletion_corruptions =
      smoke ? std::vector<int64_t>{2, 8} : std::vector<int64_t>{2, 8, 32};
  const std::vector<int64_t> substitution_corruptions =
      smoke ? std::vector<int64_t>{2} : std::vector<int64_t>{2, 8};

  std::vector<Row> rows;
  bool agree = true;
  uint64_t seed = 42;
  for (const bool subs : {false, true}) {
    for (const int64_t n : sizes) {
      for (const int64_t corruption :
           subs ? substitution_corruptions : deletion_corruptions) {
        dyck::gen::BalancedOptions balanced;
        balanced.length = n;
        dyck::gen::CorruptionOptions corrupt;
        corrupt.num_edits = corruption;
        const dyck::ParenSeq seq =
            dyck::gen::Corrupt(dyck::gen::RandomBalanced(balanced, seed),
                               corrupt, seed + 1)
                .seq;
        seed += 2;

        dyck::Options base;
        base.metric = subs ? dyck::Metric::kDeletionsAndSubstitutions
                           : dyck::Metric::kDeletionsOnly;
        dyck::Options fpt = base;
        fpt.solver = "fpt";
        dyck::Options cubic = base;
        cubic.solver = "cubic";

        const int reps = smoke ? 1 : 25;
        Row row;
        row.metric = subs ? "substitutions" : "deletions";
        row.n = n;
        row.corruption = corruption;
        // The planner's pick, recorded once before the timed runs.
        {
          const auto result = dyck::Repair(seq, base);
          if (!result.ok()) {
            std::fprintf(stderr, "bench_planner: auto failed: %s\n",
                         result.status().ToString().c_str());
            return 2;
          }
          row.auto_choice = result->telemetry.solver_name;
        }
        int64_t auto_distance = 0, fpt_distance = 0, cubic_distance = 0;
        row.auto_seconds = TimeRepair(seq, base, reps, &auto_distance);
        row.fpt_seconds = TimeRepair(seq, fpt, reps, &fpt_distance);
        row.cubic_seconds = TimeRepair(seq, cubic, reps, &cubic_distance);
        row.distance = auto_distance;
        if (auto_distance != fpt_distance || auto_distance != cubic_distance) {
          std::fprintf(stderr,
                       "bench_planner: distance mismatch at metric=%s n=%lld"
                       " corruption=%lld: auto=%lld fpt=%lld cubic=%lld\n",
                       row.metric, static_cast<long long>(n),
                       static_cast<long long>(corruption),
                       static_cast<long long>(auto_distance),
                       static_cast<long long>(fpt_distance),
                       static_cast<long long>(cubic_distance));
          agree = false;
        }
        rows.push_back(row);
        std::fprintf(stderr,
                     "%-13s n=%-5lld corruption=%-3lld d=%-4lld auto=%s"
                     " %9.1fus  fpt %9.1fus  cubic %9.1fus\n",
                     row.metric, static_cast<long long>(n),
                     static_cast<long long>(corruption),
                     static_cast<long long>(row.distance),
                     row.auto_choice.c_str(), row.auto_seconds * 1e6,
                     row.fpt_seconds * 1e6, row.cubic_seconds * 1e6);
      }
    }
  }

  // Throughput gate: auto within 5% of the best forced solver everywhere
  // (200us absolute slack), and strictly ahead of always-FPT somewhere.
  constexpr double kRelativeTolerance = 0.95;
  constexpr double kAbsoluteSlackSeconds = 200e-6;
  bool within_tolerance = true;
  bool beats_fpt_somewhere = false;
  for (const Row& row : rows) {
    const double best_forced = std::min(row.fpt_seconds, row.cubic_seconds);
    if (row.auto_seconds >
        best_forced / kRelativeTolerance + kAbsoluteSlackSeconds) {
      std::fprintf(stderr,
                   "bench_planner: FAIL metric=%s n=%lld corruption=%lld:"
                   " auto %.1fus vs best forced %.1fus\n",
                   row.metric, static_cast<long long>(row.n),
                   static_cast<long long>(row.corruption),
                   row.auto_seconds * 1e6, best_forced * 1e6);
      within_tolerance = false;
    }
    if (row.auto_seconds < row.fpt_seconds) beats_fpt_somewhere = true;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_planner: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"planner_crossover\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        out,
        "    {\"metric\": \"%s\", \"n\": %lld, \"corruption\": %lld,"
        " \"distance\": %lld, \"auto_choice\": \"%s\","
        " \"auto_seconds\": %.9f, \"fpt_seconds\": %.9f,"
        " \"cubic_seconds\": %.9f}%s\n",
        row.metric, static_cast<long long>(row.n),
        static_cast<long long>(row.corruption),
        static_cast<long long>(row.distance), row.auto_choice.c_str(),
        row.auto_seconds, row.fpt_seconds, row.cubic_seconds,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"agree\": %s,\n", agree ? "true" : "false");
  std::fprintf(out, "  \"within_tolerance\": %s,\n",
               within_tolerance ? "true" : "false");
  std::fprintf(out, "  \"beats_fpt_somewhere\": %s\n",
               beats_fpt_somewhere ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  if (!agree) return 1;
  if (!smoke && (!within_tolerance || !beats_fpt_somewhere)) {
    std::fprintf(stderr,
                 "bench_planner: throughput gate failed"
                 " (within_tolerance=%d beats_fpt_somewhere=%d)\n",
                 within_tolerance ? 1 : 0, beats_fpt_somewhere ? 1 : 0);
    return 1;
  }
  std::fprintf(stderr, "bench_planner: OK (%zu rows) -> %s\n", rows.size(),
               out_path.c_str());
  return 0;
}
