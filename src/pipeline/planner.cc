#include "src/pipeline/planner.h"

#include <algorithm>

#include "src/baseline/greedy.h"
#include "src/core/context.h"

namespace dyck {

namespace {

// Predictions below this are inside measurement noise for a single
// document; there the first admissible candidate in registration order
// wins instead of a sub-noise model delta. SolverRegistry::Global()
// registers the FPT family first, so tiny inputs keep the paper's solver
// (test-pinned).
constexpr double kSmallCostFloorSeconds = 200e-6;

}  // namespace

StatusOr<PlanDecision> PlanSolver(const SolveRequest& request,
                                  RepairContext& ctx) {
  const bool subs = request.use_substitutions;
  // Accuracy filter bound, also needed to pick the hint source below: a
  // solver is admissible when its certified factor is covered by the
  // options.
  const double max_factor = std::max(request.max_approximation_factor, 1.0);
  int64_t d_hint = request.d_hint;
  if (d_hint < 0) {
    // Bidirectional: greedy's cascade overestimates are direction-dependent,
    // and a loose hint inflates only the *predicted* FPT cost (the doubling
    // driver stops at the true distance regardless), so the tighter of the
    // two scans avoids ceding large low-d inputs to cubic. See greedy.h.
    //
    // Under exact-only selection the scan runs on the reduced sequence when
    // one is available: a greedy repair of the reduction is a valid repair,
    // so its cost still upper-bounds the distance (Fact 18), and the scan
    // drops from O(n) to O(reduced) — the difference between O(edit) and
    // O(n) replanning for RepairDoc. Approximation-admissible configs keep
    // the full-sequence scan because the certified-greedy rung interprets
    // the hint as a full-sequence greedy bound in its certificate check.
    const ParenSpan hint_view =
        (max_factor <= 1.0 && request.reduced != nullptr)
            ? ParenSpan(request.reduced->seq)
            : request.seq;
    d_hint = EstimateDistanceUpperBoundBidirectional(hint_view, subs,
                                                     &ctx.greedy_stack());
  }
  // Only unbalanced inputs reach the planner, so the distance is >= 1.
  d_hint = std::max<int64_t>(d_hint, 1);
  // A max_distance bound caps the doubling driver, and therefore the work
  // any solver will actually do, at max_distance + 1 probes' worth.
  if (request.max_distance >= 0) {
    d_hint = std::min(d_hint, request.max_distance + 1);
  }
  const int64_t n = static_cast<int64_t>(request.seq.size());
  // Exact solvers (factor 1.0) always pass the accuracy filter, so the
  // default max_approximation_factor == 1.0 reproduces exact-only
  // selection bit for bit; uncertified greedy (factor inf) never passes.
  // Applicable() gates that need the greedy bound (the certified-greedy
  // rung) read it from the annotated request instead of rescanning.
  SolveRequest hinted = request;
  hinted.d_hint = d_hint;

  const Solver* best = nullptr;
  double best_cost = 0;
  const Solver* first = nullptr;
  double first_cost = 0;
  for (const Solver* solver : SolverRegistry::Global().solvers()) {
    const SolverCaps& caps = solver->caps();
    if (!caps.planner_candidate || caps.approximation_factor > max_factor) {
      continue;
    }
    if (subs ? !caps.substitutions : !caps.deletions) continue;
    if (!solver->Applicable(hinted)) continue;
    const double cost = solver->PredictCost(n, d_hint);
    if (first == nullptr) {
      first = solver;
      first_cost = cost;
    }
    if (best == nullptr || cost < best_cost) {
      best = solver;
      best_cost = cost;
    }
  }
  if (first != nullptr && first_cost <= kSmallCostFloorSeconds) {
    best = first;
    best_cost = first_cost;
  }
  if (best == nullptr) {
    return Status::Internal(
        "no registered exact solver supports the requested metric");
  }
  return PlanDecision{best, best_cost, d_hint};
}

}  // namespace dyck
