#include "src/core/solver.h"

#include <cmath>
#include <string_view>
#include <utility>

#include "src/pipeline/telemetry.h"

namespace dyck {

namespace {

const char* MetricCapabilityName(bool use_substitutions) {
  return use_substitutions ? "deletions+substitutions" : "deletions";
}

}  // namespace

Status Solver::CheckMetric(bool use_substitutions) const {
  const SolverCaps& c = caps();
  if (use_substitutions ? c.substitutions : c.deletions) return Status::OK();
  const char* capability =
      c.deletions ? "deletions-only" : "substitutions-only";
  return Status::InvalidArgument(
      std::string("solver '") + name() + "' does not support the " +
      MetricCapabilityName(use_substitutions) + " metric (capability: " +
      capability + ")");
}

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* const registry = [] {
    auto* r = new SolverRegistry();
    // Explicit registration instead of static-initializer side effects:
    // a static library strips translation units nothing references, which
    // would silently lose a self-registering family. FPT goes first: the
    // planner's small-cost floor takes the first admissible candidate.
    RegisterFptSolvers(*r);
    RegisterBaselineSolvers(*r);
    RegisterLmsSolvers(*r);
    RegisterApproxSolvers(*r);
    return r;
  }();
  return *registry;
}

Status SolverRegistry::Register(std::unique_ptr<Solver> solver) {
  if (solver == nullptr || solver->name() == nullptr ||
      solver->name()[0] == '\0') {
    return Status::InvalidArgument("solver registration requires a name");
  }
  // ResolveSolver maps "auto" to the planner, so such an entry could
  // never be selected.
  if (std::string_view(solver->name()) == "auto") {
    return Status::InvalidArgument(
        "solver name 'auto' is reserved for the planner");
  }
  if (Find(solver->name()) != nullptr) {
    return Status::InvalidArgument(std::string("solver '") + solver->name() +
                                   "' is already registered");
  }
  view_.push_back(solver.get());
  owned_.push_back(std::move(solver));
  return Status::OK();
}

const Solver* SolverRegistry::Find(std::string_view name) const {
  for (const Solver* solver : view_) {
    if (name == solver->name()) return solver;
  }
  return nullptr;
}

StatusOr<const Solver*> ResolveSolver(const Options& options) {
  // A NaN factor compares false against every bound, so it would pass the
  // planner's filter and key cache entries no lookup can ever match.
  if (std::isnan(options.max_approximation_factor)) {
    return Status::InvalidArgument(
        "max_approximation_factor must be a number, got nan");
  }
  const std::string_view name = options.solver;
  if (name.empty() || name == "auto") {
    return static_cast<const Solver*>(nullptr);
  }
  const Solver* solver = SolverRegistry::Global().Find(name);
  if (solver == nullptr) {
    return Status::InvalidArgument("unknown solver '" + options.solver + "'");
  }
  DYCK_RETURN_NOT_OK(solver->CheckMetric(
      options.metric == Metric::kDeletionsAndSubstitutions));
  return solver;
}

}  // namespace dyck
