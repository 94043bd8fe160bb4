// Registry adapters for the paper's FPT algorithms (Theorems 26 / 40).
//
// One adapter class, registered three times; the entries differ only in
// name, capabilities and cost model:
//   "fpt"              — the forced-selection umbrella: both metrics,
//                        never picked by the planner.
//   "fpt-deletion"     — deletion metric only, planner candidate with the
//                        Theorem-26 cost model.
//   "fpt-substitution" — substitution metric only, planner candidate with
//                        the Theorem-40 cost model.
// Splitting the planner entries per metric lets each carry its own
// calibrated constants (the substitution solver's poly(d) is far steeper).

#include <memory>
#include <utility>

#include "src/core/context.h"
#include "src/core/solver.h"
#include "src/fpt/deletion.h"
#include "src/fpt/substitution.h"
#include "src/util/logging.h"

namespace dyck {

namespace {

// Cost models calibrated against the crossover grid (bench_crossover ->
// BENCH_crossover.json; methodology in DESIGN.md §5.10). The linear term
// is the O(n) preprocessing; the n*d^3 term is an empirical fit of the
// doubling driver's memo + reconstruction work over the measured (n, d)
// grid — not the paper's worst-case exponent, which would wildly
// overpredict at practical d.
struct FptCostModel {
  double per_symbol;
  double per_symbol_d3;
};
constexpr FptCostModel kDeletionCost{30e-9, 1.0e-9};
constexpr FptCostModel kSubstitutionCost{300e-9, 2.5e-9};

// Doubling driver over bounded Repair probes, borrowing the precomputed
// reduction and the context's scratch when available (zero-copy),
// reducing internally otherwise (the Distance() path and direct Solve
// calls without a pipeline).
Status SolveFpt(const SolveRequest& request, RepairContext& ctx,
                RepairTelemetry* telemetry, SolverResult* out) {
  StatusOr<SolverResult> result = [&]() -> StatusOr<SolverResult> {
    if (request.use_substitutions) {
      SubstitutionSolver solver =
          request.reduced != nullptr
              ? SubstitutionSolver(request.reduced, &ctx)
              : SubstitutionSolver(request.seq);
      auto repaired = solver_internal::DoublingSolve(
          request.doubling_cap, request.max_distance, telemetry,
          [&](int32_t d) -> StatusOr<SolverResult> {
            DYCK_ASSIGN_OR_RETURN(FptResult r, solver.Repair(d));
            SolverResult s;
            s.distance = r.distance;
            s.script = std::move(r.script);
            return s;
          });
      telemetry->subproblems = solver.last_subproblem_count();
      return repaired;
    }
    DeletionSolver solver = request.reduced != nullptr
                                ? DeletionSolver(request.reduced, &ctx)
                                : DeletionSolver(request.seq);
    auto repaired = solver_internal::DoublingSolve(
        request.doubling_cap, request.max_distance, telemetry,
        [&](int32_t d) -> StatusOr<SolverResult> {
          DYCK_ASSIGN_OR_RETURN(FptResult r, solver.Repair(d));
          SolverResult s;
          s.distance = r.distance;
          s.script = std::move(r.script);
          return s;
        });
    telemetry->subproblems = solver.last_subproblem_count();
    return repaired;
  }();
  if (!result.ok()) return result.status();
  *out = std::move(result).value();
  return Status::OK();
}

StatusOr<int64_t> FptDistance(const SolveRequest& request) {
  if (request.use_substitutions) {
    SubstitutionSolver solver(request.seq);
    return solver_internal::DoublingDistance(
        request.doubling_cap, request.max_distance,
        [&](int32_t d) { return solver.Distance(d); });
  }
  DeletionSolver solver(request.seq);
  return solver_internal::DoublingDistance(
      request.doubling_cap, request.max_distance,
      [&](int32_t d) { return solver.Distance(d); });
}

class FptSolver final : public Solver {
 public:
  FptSolver(const char* name, const SolverCaps& caps, FptCostModel cost)
      : name_(name), caps_(caps), cost_(cost) {}

  const char* name() const override { return name_; }
  const SolverCaps& caps() const override { return caps_; }
  double PredictCost(int64_t n, int64_t d_hint) const override {
    const double nd = static_cast<double>(n);
    const double dd = static_cast<double>(d_hint);
    return cost_.per_symbol * nd + cost_.per_symbol_d3 * nd * dd * dd * dd;
  }
  Status Solve(const SolveRequest& request, RepairContext& ctx,
               RepairTelemetry* telemetry, SolverResult* out) const override {
    return SolveFpt(request, ctx, telemetry, out);
  }
  StatusOr<int64_t> SolveDistance(const SolveRequest& request) const override {
    return FptDistance(request);
  }

 private:
  const char* const name_;
  const SolverCaps caps_;
  const FptCostModel cost_;
};

}  // namespace

void RegisterFptSolvers(SolverRegistry& registry) {
  const auto add = [&registry](const char* name, const SolverCaps& caps,
                               FptCostModel cost) {
    DYCK_CHECK(
        registry.Register(std::make_unique<FptSolver>(name, caps, cost))
            .ok());
  };
  // The umbrella is metric-agnostic, so it conservatively carries the
  // steeper substitution model.
  add("fpt", {.needs_reduced = true}, kSubstitutionCost);
  add("fpt-deletion",
      {.substitutions = false, .needs_reduced = true,
       .planner_candidate = true},
      kDeletionCost);
  add("fpt-substitution",
      {.deletions = false, .needs_reduced = true, .planner_candidate = true},
      kSubstitutionCost);
}

}  // namespace dyck
