// The staged single-document repair pipeline.
//
// Repair() (core/dyck.h) used to be a monolithic dispatch that hid where
// the O(n + poly(d)) budget of Theorems 26/40 was spent. This module makes
// the paper's reduce-then-solve shape explicit as five stages:
//
//   1. Normalize    — the linear balance scan (Definition 3 stack parse).
//   2. ProfileReduce— Property-19 reduction (Fact 18), run only for the
//                     consumers that need it: solvers whose caps() declare
//                     needs_reduced borrow it from the context, the
//                     balanced fast path takes just the zero-cost pair
//                     alignment, and when the planner selects it is
//                     always built so the planner can inspect the reduced
//                     shape. Cubic and branching solve the raw input, so
//                     the stage is a no-op when they are forced (reduction
//                     would relocate their script positions).
//   3. Select       — resolve the solver (ResolveSolver, src/core/
//                     solver.h): a forced Options::solver is its registry
//                     entry; "" / "auto" goes to the cost-model planner
//                     (src/pipeline/planner.h), balanced inputs to the
//                     trivial path.
//   4. Solve        — Solver::Solve of the selected registry entry, under
//                     the d-doubling driver of §1.1 where the solver
//                     supports bounded probes.
//   5. Materialize  — preserve-content transform + ApplyScript.
//
// Stages exchange ParenSpan views and moved ownership, never sequence
// copies; RepairTelemetry records per-stage wall time, the doubling
// trajectory, the planner's decision, and copy counters, and a test pins
// seq_copies == 0.
//
// The planner only picks which registry entry runs: Run() with "auto" is
// byte-identical to forcing the solver it picked, for every Options
// combination (tests/planner_test.cc pins that).

#ifndef DYCKFIX_SRC_PIPELINE_PIPELINE_H_
#define DYCKFIX_SRC_PIPELINE_PIPELINE_H_

#include "src/core/dyck.h"

namespace dyck {

class RepairContext;
class Solver;
struct Reduced;

namespace pipeline {

/// Cached stage artifacts supplied by a caller that maintains the
/// Normalize / ProfileReduce results incrementally (core::RepairDoc's
/// chunked summaries). When passed to RunInto, stages 1-2 consume the
/// cached balance verdict and reduction instead of rescanning the
/// sequence, so the pipeline's cost drops to Select+Solve+Materialize —
/// byte-identical results by construction, since the artifacts are defined
/// to equal what the eager stages would compute.
struct StageArtifacts {
  // -- Inputs --
  /// Stage-1 verdict for `seq`.
  bool balanced = false;
  /// Stage-2 result: the Property-19 reduction of `seq`. Must outlive the
  /// call. Its matched_pairs may be legitimately empty even when pairs
  /// were dropped ("omitted-pairs mode"): the caller then assembles the
  /// final alignment itself, and must only do so for configurations where
  /// the serving solver's script verifiably lacks them (see RepairDoc).
  const Reduced* reduced = nullptr;
  /// Raw distance upper bound for the planner (pre-clamping), or -1 to let
  /// the planner compute its own from `reduced`. Ignored for forced
  /// solvers, which never consumed a hint on the eager path.
  int64_t d_hint = -1;
  /// Ask stage 5 to skip ApplyScript so the caller can materialize the
  /// repaired sequence itself (e.g. segmented copies around the edit).
  /// Honored only for RepairStyle::kMinimalEdits on the non-trivial path;
  /// check materialize_skipped.
  bool skip_materialize = false;

  // -- Outputs --
  /// The solver whose script the result carries; nullptr on the balanced
  /// trivial path or when the run degraded / failed before stage 4.
  const Solver* served_by = nullptr;
  /// True iff stage 5 honored skip_materialize and `out->repaired` was
  /// left empty for the caller to fill.
  bool materialize_skipped = false;
};

/// Runs the staged pipeline on `seq`. The result carries its
/// RepairTelemetry; on error the telemetry is lost with the result (batch
/// aggregation only sums successful documents).
///
/// Scratch memory comes from `context` when given, else from the calling
/// thread's ambient RepairContext (RepairContext::CurrentThread()), so
/// repeated calls on one thread reuse warm scratch automatically. The
/// context is reset (BeginDocument) at entry; callers must not hold
/// arena-backed state from a previous Run across this call.
StatusOr<RepairResult> Run(const ParenSeq& seq, const Options& options,
                           RepairContext* context = nullptr);

/// As Run, but writes into caller-owned `*out`, clearing and refilling its
/// members so their heap capacity is retained across documents. With a
/// reused context AND a reused result this is the zero-steady-state-
/// allocation entry point the batch runtime uses. On a non-OK return `*out`
/// holds whatever telemetry the partial run recorded.
Status RunInto(const ParenSeq& seq, const Options& options,
               RepairContext* context, RepairResult* out);

/// As RunInto, but with caller-cached stage artifacts: stages 1-2 are
/// served from `*artifacts` instead of rescanning `seq`. Budget wiring and
/// the degrade ladder are shared with the eager overload; degraded answers
/// ignore the artifacts entirely (the greedy fallbacks scan the raw
/// sequence) and always come back fully materialized.
Status RunInto(const ParenSeq& seq, const Options& options,
               RepairContext* context, RepairResult* out,
               StageArtifacts* artifacts);

}  // namespace pipeline
}  // namespace dyck

#endif  // DYCKFIX_SRC_PIPELINE_PIPELINE_H_
