#include <optional>

#include "src/baseline/dyck1.h"
#include "src/core/context.h"
#include "src/core/dyck.h"
#include "src/core/solver.h"
#include "src/pipeline/planner.h"
#include "src/util/budget.h"
#include "src/util/logging.h"

namespace dyck {

namespace {

bool UseSubstitutions(Metric metric) {
  return metric == Metric::kDeletionsAndSubstitutions;
}

Status BoundError(int64_t bound) {
  return Status::BoundExceeded("distance exceeds max_distance " +
                               std::to_string(bound));
}

StatusOr<int64_t> DistanceImpl(const ParenSeq& seq, const Options& options) {
  const bool subs = UseSubstitutions(options.metric);

  SolveRequest request;
  request.seq = seq;
  request.use_substitutions = subs;
  request.max_distance = options.max_distance;
  request.doubling_cap = static_cast<int64_t>(seq.size()) + 1;
  request.max_approximation_factor = options.max_approximation_factor;

  DYCK_ASSIGN_OR_RETURN(const Solver* solver, ResolveSolver(options));
  if (solver == nullptr) {
    if (IsBalanced(seq)) return 0;
    // Single-type inputs have a closed form (src/baseline/dyck1.h).
    if (const auto v = Dyck1Distance(seq, subs); v.has_value()) {
      if (options.max_distance >= 0 && *v > options.max_distance) {
        return BoundError(options.max_distance);
      }
      return *v;
    }
    // No precomputed reduction exists on this path (request.reduced stays
    // null), so reduced-shape-gated solvers like banded sit out.
    DYCK_ASSIGN_OR_RETURN(
        const PlanDecision plan,
        PlanSolver(request, RepairContext::CurrentThread()));
    solver = plan.solver;
  }
  return solver->SolveDistance(request);
}

}  // namespace

StatusOr<int64_t> Distance(const ParenSeq& seq, const Options& options) {
  // Distance has no degraded channel (there is no script to substitute),
  // so Options::on_budget_exceeded is ignored: a tripped budget always
  // surfaces as its Status. An externally installed budget (batch runtime)
  // wins over the Options limits, exactly as in pipeline::Run.
  Budget* budget = BudgetScope::Current();
  std::optional<Budget> own;
  std::optional<BudgetScope> scope;
  if (budget == nullptr) {
    const BudgetLimits limits{options.timeout_ms, options.max_work_steps,
                              options.max_memory_bytes};
    if (!limits.Unlimited() || BudgetFaultInjectionArmed()) {
      own.emplace(limits);
      scope.emplace(&*own);
      budget = &*own;
    }
  }
  if (budget == nullptr) return DistanceImpl(seq, options);
  try {
    return DistanceImpl(seq, options);
  } catch (const BudgetExceededError& error) {
    return error.status;
  }
}

}  // namespace dyck
