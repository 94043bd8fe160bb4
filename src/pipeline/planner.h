// Cost-model planner: picks the solver for Options::solver "" / "auto"
// from the SolverRegistry.
//
// The pipeline's Select stage used to hardcode "unbalanced -> kFpt". The
// planner instead derives a distance upper bound d from two linear greedy
// scans (EstimateDistanceUpperBoundBidirectional — forward and
// reversed-with-flipped-directions, taking the min; the true distance can
// only be smaller), asks every planner-candidate solver for
// PredictCost(n, d), and picks the cheapest applicable one whose
// certified accuracy covers Options::max_approximation_factor (with the
// default 1.0 that means exact solvers only; larger values admit the
// src/approx ladder — see DESIGN.md §5.11). The FPT solvers win almost
// everywhere (that is the paper's point), but on short high-d inputs the
// cubic DP's n^3 undercuts FPT's poly(d) — the measured crossover grid in
// BENCH_planner.json pins that the planner lands within 5% of the best
// forced choice on every row. See DESIGN.md §5.10 for the calibration
// methodology.
//
// Selection is deterministic: ties break toward registration order, and a
// small-cost floor keeps predictions below measurement noise from flapping
// — when the first admissible candidate in registration order predicts
// under ~200us, it is chosen outright. The FPT family registers first, so
// at that scale (where every exact solver finishes "instantly") the
// paper's solver is the answer.

#ifndef DYCKFIX_SRC_PIPELINE_PLANNER_H_
#define DYCKFIX_SRC_PIPELINE_PLANNER_H_

#include <cstdint>

#include "src/core/solver.h"
#include "src/util/statusor.h"

namespace dyck {

class RepairContext;

struct PlanDecision {
  const Solver* solver = nullptr;
  /// The winning solver's PredictCost(n, d_upper_bound), in seconds.
  double predicted_cost = 0;
  /// The greedy-scan distance upper bound fed to every cost model
  /// (clamped to max_distance + 1 when a bound is set).
  int64_t d_upper_bound = 0;
};

/// Picks the cheapest applicable exact solver for `request` from
/// SolverRegistry::Global(). The greedy estimate reuses
/// `ctx.greedy_stack()` and polls no budget checkpoints, so planning costs
/// at most two unbudgeted O(n) scans. Fails with Internal only if no registered
/// exact solver supports the metric (the built-in registry always has one).
StatusOr<PlanDecision> PlanSolver(const SolveRequest& request,
                                  RepairContext& ctx);

}  // namespace dyck

#endif  // DYCKFIX_SRC_PIPELINE_PLANNER_H_
