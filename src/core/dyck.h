// dyckfix public API.
//
// Everything a downstream user needs: parse or build a ParenSeq (see
// src/alphabet and src/textio), then call Distance() or Repair(). The
// default configuration runs the paper's FPT algorithms with the d-doubling
// driver (§1.1), so the cost is O(n + poly(d)) where d is the true distance
// — linear for nearly-correct documents.
//
//   ParenSeq seq = ParenAlphabet::Default().Parse("(()[]").value();
//   RepairResult fixed = Repair(seq, {}).value();
//   // fixed.distance == 1, IsBalanced(fixed.repaired)
//
// See DESIGN.md for the algorithm inventory and the paper mapping.

#ifndef DYCKFIX_SRC_CORE_DYCK_H_
#define DYCKFIX_SRC_CORE_DYCK_H_

#include <cstdint>
#include <string>

#include "src/alphabet/paren.h"
#include "src/alphabet/parse.h"
#include "src/core/edit_script.h"
#include "src/pipeline/telemetry.h"
#include "src/util/statusor.h"

namespace dyck {

namespace cache {
class RepairCache;
}  // namespace cache

/// Which distance is computed (paper Definition 4).
enum class Metric {
  /// edit1: deletions only. FPT algorithm: Theorem 26, O(n + d^6).
  kDeletionsOnly,
  /// edit2: deletions and substitutions. Theorem 40, O(n + d^16).
  kDeletionsAndSubstitutions,
};

/// How Repair materializes an optimal solution.
enum class RepairStyle {
  /// Ops exactly as the metric defines them: deletions (+ substitutions).
  kMinimalEdits,
  /// Equal cost, but every deletion is traded for the insertion of a
  /// matching partner, so no input symbol is ever removed (see
  /// core/insertion_repair.h). Distances are unchanged.
  kPreserveContent,
};

/// What Repair does when an execution budget (timeout_ms / max_work_steps
/// / max_memory_bytes) trips mid-solve. See src/util/budget.h.
/// The three policies form a ladder (kFail → kApproximate → kGreedy):
/// each step trades more accuracy guarantees for a guaranteed answer.
enum class DegradePolicy {
  /// Fail the document with kDeadlineExceeded / kResourceExhausted.
  kFail,
  /// Fall back to the linear-time greedy baseline: the result is a valid
  /// balanced repair whose distance upper-bounds the true one, marked
  /// RepairResult::degraded. Cancellation (kCancelled) never degrades —
  /// a cancelled batch wants no answer at all.
  kGreedy,
  /// Step down the accuracy ladder instead of jumping to uncertified
  /// greedy: the greedy answer is kept, but the pipeline first tries to
  /// *certify* it against a proven lower bound (the untyped Dyck-1
  /// relaxation, improved by any doubling probes the interrupted solver
  /// completed). When the certificate holds within
  /// max(Options::max_approximation_factor, 3.0), the result carries
  /// RepairTelemetry::certified_factor > 0; otherwise it is the same
  /// uncertified greedy answer kGreedy would have produced.
  kApproximate,
};

struct Options {
  Metric metric = Metric::kDeletionsAndSubstitutions;
  /// Registry name of the solver to run (SolverRegistry::Global(), see
  /// src/core/solver.h), e.g. "fpt-deletion", "cubic" or "banded". "" and
  /// "auto" both defer to the cost-model planner (src/pipeline/planner.h),
  /// which picks the cheapest admissible solver. Unknown names, and solvers
  /// that do not support `metric`, fail with InvalidArgument.
  std::string solver = {};
  RepairStyle style = RepairStyle::kMinimalEdits;
  /// If >= 0, fail with BoundExceeded instead of computing distances larger
  /// than this (useful to cap work on hopelessly corrupt inputs).
  int64_t max_distance = -1;
  /// Wall-clock budget for one Repair call in milliseconds; -1 = unlimited.
  /// The solvers poll cooperative checkpoints, so overshoot is bounded by
  /// one checkpoint stride (microseconds), not by solver runtime.
  int64_t timeout_ms = -1;
  /// Cooperative work-step cap (one step per solver checkpoint poll);
  /// -1 = unlimited. A deterministic alternative to wall-clock deadlines.
  int64_t max_work_steps = -1;
  /// Peak bytes of solver table allocations; -1 = unlimited. Tracked
  /// cooperatively at the large allocation sites (cubic DP table, FPT
  /// memo), not via a malloc hook.
  int64_t max_memory_bytes = -1;
  /// Applied when any of the three budget limits trips.
  DegradePolicy on_budget_exceeded = DegradePolicy::kFail;
  /// Largest certified approximation factor the planner may accept: it
  /// considers a registry solver only when its
  /// SolverCaps::approximation_factor is <= this value, so the default 1.0
  /// keeps selection exact (byte-identical to an accuracy-unaware build).
  /// Values > 1.0 unlock the src/approx ladder: every accepted result
  /// still satisfies distance <= factor * exact, with the realized factor
  /// reported in RepairTelemetry::certified_factor. Values < 1.0 are
  /// treated as 1.0; NaN fails with InvalidArgument. A forced `solver`
  /// bypasses this filter — forcing "greedy" or "approx" is an explicit
  /// request.
  double max_approximation_factor = 1.0;
  /// Byte budget for the process-wide content-hash repair cache
  /// (src/cache/repair_cache.h): > 0 makes Repair consult the shared
  /// cache before solving and store clean results after, turning repeat
  /// repairs of identical sequences into a hash + copy. 0 (default)
  /// disables caching; results are byte-identical either way (only
  /// telemetry's cache_hit and stage timings differ). Ignored when
  /// `cache` is set.
  int64_t cache_bytes = 0;
  /// Explicit cache instance to consult instead of the shared one — the
  /// batch engine and the serving daemon inject their own here. Not
  /// owned; must outlive the call. Null = defer to `cache_bytes`.
  cache::RepairCache* cache = nullptr;
};

struct RepairResult {
  int64_t distance = 0;
  /// Ops + alignment against the input sequence.
  EditScript script;
  /// The input with the script applied; always balanced.
  ParenSeq repaired;
  /// True when an execution budget tripped and Options::on_budget_exceeded
  /// == kGreedy substituted the greedy baseline: `distance` is then an
  /// upper bound on the exact distance (telemetry records the checkpoint
  /// that tripped and the best known lower bound).
  bool degraded = false;
  /// Per-stage observability of the pipeline run that produced this
  /// result: stage wall times, d-doubling trajectory, reduction ratio,
  /// the solver that ran, and copy counters. See
  /// src/pipeline/telemetry.h.
  RepairTelemetry telemetry;
};

/// Distance from `seq` to the closest balanced sequence under the chosen
/// metric. Errors: BoundExceeded (distance > options.max_distance);
/// DeadlineExceeded / ResourceExhausted when an execution budget trips
/// (Distance has no degraded channel, so on_budget_exceeded is ignored
/// here — use Repair for graceful degradation).
StatusOr<int64_t> Distance(const ParenSeq& seq, const Options& options);

class RepairContext;

/// Distance plus an optimal edit script and the repaired sequence.
/// Budget errors (DeadlineExceeded / ResourceExhausted) are returned under
/// DegradePolicy::kFail and converted to a greedy fallback result under
/// kGreedy; kCancelled is always returned as an error.
///
/// Scratch memory comes from `context` when given, else from the calling
/// thread's ambient RepairContext (src/core/context.h) — either way it is
/// reused across calls, so repeated repairs on one thread allocate no
/// fresh scratch after warmup.
StatusOr<RepairResult> Repair(const ParenSeq& seq, const Options& options,
                              RepairContext* context = nullptr);

/// As Repair, but writes into caller-owned `*out` (cleared first, heap
/// capacity retained). With a long-lived context and a reused result this
/// is the zero-steady-state-allocation entry point; the batch runtime's
/// worker loop is built on it.
Status RepairInto(const ParenSeq& seq, const Options& options,
                  RepairContext* context, RepairResult* out);

}  // namespace dyck

#endif  // DYCKFIX_SRC_CORE_DYCK_H_
