// bench_incremental: per-edit cost of the persistent RepairDoc vs a full
// pipeline recompute, emitting BENCH_incremental.json.
//
// For every (metric, n) cell the harness corrupts a random balanced
// document, loads it into a RepairDoc, and replays a trace of scattered
// single-token splices (alternating insert/erase, LCG positions). After
// every edit it times
//
//   incremental:  doc.Splice(...) + doc.RepairInto(...)      (chunk cache)
//   full:         the same edit on a mirror buffer + pipeline::RunInto
//                 with a warm, reused RepairContext/RepairResult
//
// and checks the two results byte-for-byte: distance, edit ops and the
// repaired sequence. Gates:
//
//   * equivalence on EVERY edit of EVERY cell (always), and
//   * incremental >= 10x faster than full recompute on every deletions-
//     metric row with n >= 65536 (skipped in --smoke, whose tiny documents
//     fit in one chunk). The substitutions rows are reported but not
//     gated: their FPT solver costs ~0.5ms of work per repair that BOTH
//     paths must pay (it is d-parameterized, not cacheable), which bounds
//     any cache's speedup at this size regardless of implementation.
//
// Exit status 0 iff the gates hold. --smoke shrinks the grid to seconds;
// --out=P redirects the JSON.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/doc.h"
#include "src/core/dyck.h"
#include "src/gen/workload.h"
#include "src/pipeline/pipeline.h"
#include "src/pipeline/telemetry.h"

namespace {

struct Row {
  const char* metric;
  int64_t n;
  int64_t edits;
  int64_t final_distance;
  double incremental_ns_per_edit;
  double full_ns_per_edit;
  double speedup;
  double chunks_reused_per_edit;
  int64_t incremental_repairs;  // edits served without a cache rebuild
  bool equivalent;
};

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool SameScript(const dyck::EditScript& a, const dyck::EditScript& b) {
  return a.ops == b.ops;
}

bool SameSeq(const dyck::ParenSeq& a, const dyck::ParenSeq& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].is_open != b[i].is_open) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_incremental.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  const std::vector<int64_t> sizes =
      smoke ? std::vector<int64_t>{4096}
            : std::vector<int64_t>{65536, 262144};
  const int64_t num_edits = smoke ? 16 : 64;
  // Few errors: the paper's regime, and the one where the O(n) pipeline
  // stages (not the d-parameterized solver, which both paths share) are
  // the bottleneck a cache can remove.
  constexpr int64_t kCorruption = 2;

  std::vector<Row> rows;
  bool all_equivalent = true;
  uint64_t seed = 1234;
  for (const bool subs : {false, true}) {
    for (const int64_t n : sizes) {
      // A concatenation of small random balanced blocks — the shape of a
      // source file made of many short functions, with nesting depth
      // bounded by the block size instead of the O(sqrt(n)) depth of one
      // uniform random walk. Keeps the corrupted document's reduction
      // residual (and so the solver cost both paths share) small, the
      // paper's few-errors regime.
      constexpr int64_t kBlock = 512;
      dyck::ParenSeq document;
      document.reserve(n);
      for (int64_t off = 0; off < n; off += kBlock) {
        dyck::gen::BalancedOptions balanced;
        balanced.length = std::min(kBlock, n - off);
        const dyck::ParenSeq block =
            dyck::gen::RandomBalanced(balanced, seed + off);
        document.insert(document.end(), block.begin(), block.end());
      }
      dyck::gen::CorruptionOptions corrupt;
      corrupt.num_edits = kCorruption;
      const dyck::ParenSeq initial =
          dyck::gen::Corrupt(document, corrupt, seed + 1).seq;
      seed += 2;

      dyck::Options options;
      options.metric = subs ? dyck::Metric::kDeletionsAndSubstitutions
                            : dyck::Metric::kDeletionsOnly;

      dyck::RepairDoc doc{dyck::ParenSeq(initial)};
      dyck::ParenSeq mirror = initial;
      dyck::RepairContext full_ctx;
      dyck::RepairResult inc_result, full_result;

      // Prime both paths once (builds the doc's chunk cache and warms the
      // mirror context's arenas) before the timed trace.
      if (!doc.RepairInto(options, &inc_result).ok() ||
          !dyck::pipeline::RunInto(mirror, options, &full_ctx, &full_result)
               .ok()) {
        std::fprintf(stderr, "bench_incremental: priming repair failed\n");
        return 2;
      }

      Row row{};
      row.metric = subs ? "substitutions" : "deletions";
      row.n = n;
      row.edits = num_edits;
      row.equivalent = true;
      double inc_seconds = 0;
      double full_seconds = 0;
      double chunks_reused = 0;
      uint64_t lcg = seed * 6364136223846793005ull + 1442695040888963407ull;
      int64_t last_pos = 0;
      for (int64_t e = 0; e < num_edits; ++e) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        // Even edits insert one random token at a random position; odd
        // edits erase it again. Every edit is a genuine single-token
        // splice at a scattered position, but the running distance stays
        // within 1 of the seeded corruption — a typist fixing typos, not
        // a document drifting arbitrarily far from balanced (which would
        // time the solver's d-growth instead of the cache).
        const int64_t pos =
            static_cast<int64_t>((lcg >> 17) % (doc.size() + 1));
        const bool insert = (e % 2) == 0;
        const dyck::Paren token =
            (lcg >> 11) % 2 == 0 ? dyck::Paren::Open(0) : dyck::Paren::Close(0);
        const int64_t erase_pos = insert ? 0 : last_pos;
        if (insert) last_pos = pos;

        const auto inc_start = std::chrono::steady_clock::now();
        if (insert) {
          doc.Splice(pos, 0, dyck::ParenSpan(&token, 1));
        } else {
          doc.Splice(erase_pos, 1, dyck::ParenSpan());
        }
        const dyck::Status inc_status = doc.RepairInto(options, &inc_result);
        inc_seconds += SecondsSince(inc_start);

        const auto full_start = std::chrono::steady_clock::now();
        if (insert) {
          mirror.insert(mirror.begin() + pos, token);
        } else {
          mirror.erase(mirror.begin() + erase_pos);
        }
        const dyck::Status full_status =
            dyck::pipeline::RunInto(mirror, options, &full_ctx, &full_result);
        full_seconds += SecondsSince(full_start);

        if (!inc_status.ok() || !full_status.ok()) {
          std::fprintf(stderr, "bench_incremental: repair failed: %s / %s\n",
                       inc_status.ToString().c_str(),
                       full_status.ToString().c_str());
          return 2;
        }
        chunks_reused +=
            static_cast<double>(inc_result.telemetry.chunks_reused);
        if (inc_result.telemetry.incremental) ++row.incremental_repairs;
        if (inc_result.distance != full_result.distance ||
            !SameScript(inc_result.script, full_result.script) ||
            !SameSeq(inc_result.repaired, full_result.repaired) ||
            !SameSeq(doc.tokens(), mirror)) {
          std::fprintf(stderr,
                       "bench_incremental: MISMATCH metric=%s n=%lld edit=%lld"
                       " (inc d=%lld, full d=%lld)\n",
                       row.metric, static_cast<long long>(n),
                       static_cast<long long>(e),
                       static_cast<long long>(inc_result.distance),
                       static_cast<long long>(full_result.distance));
          row.equivalent = false;
          all_equivalent = false;
        }
      }
      row.final_distance = inc_result.distance;
      row.incremental_ns_per_edit =
          inc_seconds / static_cast<double>(num_edits) * 1e9;
      row.full_ns_per_edit =
          full_seconds / static_cast<double>(num_edits) * 1e9;
      row.speedup = inc_seconds > 0 ? full_seconds / inc_seconds : 0;
      row.chunks_reused_per_edit =
          chunks_reused / static_cast<double>(num_edits);
      rows.push_back(row);
      std::fprintf(stderr,
                   "%-13s n=%-7lld d=%-4lld incremental %9.0fns/edit  full"
                   " %9.0fns/edit  speedup %6.1fx  reuse %5.1f chunks/edit"
                   " (%lld/%lld incremental)\n",
                   row.metric, static_cast<long long>(n),
                   static_cast<long long>(row.final_distance),
                   row.incremental_ns_per_edit, row.full_ns_per_edit,
                   row.speedup, row.chunks_reused_per_edit,
                   static_cast<long long>(row.incremental_repairs),
                   static_cast<long long>(num_edits));
    }
  }

  // Speedup gate: the headline claim — single-token edits on large
  // documents repair >= 10x faster than recomputing from scratch, on the
  // paper's headline deletions metric (see the header comment for why the
  // substitutions rows only report).
  constexpr double kMinSpeedup = 10.0;
  constexpr int64_t kGateMinSize = 65536;
  bool fast_enough = true;
  for (const Row& row : rows) {
    if (!smoke && std::strcmp(row.metric, "deletions") == 0 &&
        row.n >= kGateMinSize && row.speedup < kMinSpeedup) {
      std::fprintf(stderr,
                   "bench_incremental: FAIL metric=%s n=%lld: speedup %.1fx"
                   " < %.1fx\n",
                   row.metric, static_cast<long long>(row.n), row.speedup,
                   kMinSpeedup);
      fast_enough = false;
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_incremental: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"incremental_repair\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        out,
        "    {\"metric\": \"%s\", \"n\": %lld, \"edits\": %lld,"
        " \"distance\": %lld, \"incremental_ns_per_edit\": %.0f,"
        " \"full_ns_per_edit\": %.0f, \"speedup\": %.2f,"
        " \"chunks_reused_per_edit\": %.2f, \"incremental_repairs\": %lld,"
        " \"equivalent\": %s}%s\n",
        row.metric, static_cast<long long>(row.n),
        static_cast<long long>(row.edits),
        static_cast<long long>(row.final_distance),
        row.incremental_ns_per_edit, row.full_ns_per_edit, row.speedup,
        row.chunks_reused_per_edit,
        static_cast<long long>(row.incremental_repairs),
        row.equivalent ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"equivalent\": %s,\n",
               all_equivalent ? "true" : "false");
  std::fprintf(out, "  \"speedup_gate\": %s\n",
               fast_enough ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  if (!all_equivalent || !fast_enough) return 1;
  std::fprintf(stderr, "bench_incremental: OK (%zu rows) -> %s\n",
               rows.size(), out_path.c_str());
  return 0;
}
