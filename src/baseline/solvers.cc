// Registry adapters for the baseline solvers: the cubic interval-DP
// oracle, the exponential branching search, and the greedy heuristic.

#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "src/baseline/branching.h"
#include "src/baseline/cubic.h"
#include "src/baseline/greedy.h"
#include "src/core/context.h"
#include "src/core/solver.h"
#include "src/util/logging.h"

namespace dyck {

namespace {

// Calibrated against BENCH_crossover.json (DESIGN.md §5.10): the cubic DP
// fills (n+1)^2 cells with an O(n) split scan each.
constexpr double kCubicPerN3 = 0.25e-9;
// Greedy is one linear scan.
constexpr double kGreedyPerSymbol = 5e-9;
// Branching explores a 4-way decision tree of depth ~d over O(n) parses.
// Never a planner candidate — the model exists for ordering/monotonicity
// only, and saturates at d = 30 to stay finite.
constexpr double kBranchingPerSymbol = 5e-9;

class CubicSolver final : public Solver {
 public:
  const char* name() const override { return "cubic"; }
  const SolverCaps& caps() const override {
    static const SolverCaps caps{.planner_candidate = true};
    return caps;
  }
  double PredictCost(int64_t n, int64_t d_hint) const override {
    (void)d_hint;  // the DP fills every cell regardless of the distance
    const double nd = static_cast<double>(n);
    return kCubicPerN3 * nd * nd * nd;
  }
  Status Solve(const SolveRequest& request, RepairContext& ctx,
               RepairTelemetry* telemetry, SolverResult* out) const override {
    (void)telemetry;  // no doubling driver, no subproblem counter
    CubicResult result =
        CubicRepair(request.seq, request.use_substitutions, &ctx);
    if (request.max_distance >= 0 &&
        result.distance > request.max_distance) {
      return solver_internal::MaxDistanceError(request.max_distance);
    }
    out->distance = result.distance;
    out->script = std::move(result.script);
    return Status::OK();
  }
  StatusOr<int64_t> SolveDistance(const SolveRequest& request) const override {
    const int64_t v = CubicDistance(request.seq, request.use_substitutions);
    if (request.max_distance >= 0 && v > request.max_distance) {
      return solver_internal::MaxDistanceError(request.max_distance);
    }
    return v;
  }
};

class BranchingSolver final : public Solver {
 public:
  const char* name() const override { return "branching"; }
  const SolverCaps& caps() const override {
    static const SolverCaps caps;
    return caps;
  }
  double PredictCost(int64_t n, int64_t d_hint) const override {
    const double depth = static_cast<double>(std::min<int64_t>(d_hint, 30));
    return kBranchingPerSymbol * static_cast<double>(n) *
           std::pow(4.0, depth);
  }
  Status Solve(const SolveRequest& request, RepairContext& ctx,
               RepairTelemetry* telemetry, SolverResult* out) const override {
    (void)ctx;  // the search keeps its own per-branch stacks
    StatusOr<SolverResult> result = solver_internal::DoublingSolve(
        request.doubling_cap, request.max_distance, telemetry,
        [&](int32_t d) -> StatusOr<SolverResult> {
          DYCK_ASSIGN_OR_RETURN(
              BranchingResult r,
              BranchingRepair(request.seq, request.use_substitutions, d));
          SolverResult s;
          s.distance = r.distance;
          s.script = std::move(r.script);
          return s;
        });
    if (!result.ok()) return result.status();
    *out = std::move(result).value();
    return Status::OK();
  }
  StatusOr<int64_t> SolveDistance(const SolveRequest& request) const override {
    return solver_internal::DoublingDistance(
        request.doubling_cap, request.max_distance, [&](int32_t d) {
          return BranchingDistance(request.seq, request.use_substitutions, d);
        });
  }
};

class GreedySolver final : public Solver {
 public:
  const char* name() const override { return "greedy"; }
  const SolverCaps& caps() const override {
    static const SolverCaps caps{
        .approximation_factor = std::numeric_limits<double>::infinity()};
    return caps;
  }
  double PredictCost(int64_t n, int64_t d_hint) const override {
    (void)d_hint;
    return kGreedyPerSymbol * static_cast<double>(n);
  }
  Status Solve(const SolveRequest& request, RepairContext& ctx,
               RepairTelemetry* telemetry, SolverResult* out) const override {
    // Approximate: the cost upper-bounds the true distance, so
    // max_distance is deliberately not enforced (exceeding it proves
    // nothing about the exact distance) — same best-effort contract as the
    // DegradePolicy::kGreedy fallback.
    GreedyResult result = GreedyRepair(
        request.seq, request.use_substitutions, &ctx.greedy_stack());
    out->distance = result.cost;
    out->script = std::move(result.script);
    // No lower bound is computed here, so the answer carries no
    // multiplicative certificate (the src/approx solvers do).
    if (telemetry != nullptr) telemetry->certified_factor = 0.0;
    return Status::OK();
  }
  StatusOr<int64_t> SolveDistance(const SolveRequest& request) const override {
    return EstimateDistanceUpperBound(request.seq,
                                      request.use_substitutions);
  }
};

}  // namespace

void RegisterBaselineSolvers(SolverRegistry& registry) {
  DYCK_CHECK(registry.Register(std::make_unique<CubicSolver>()).ok());
  DYCK_CHECK(registry.Register(std::make_unique<BranchingSolver>()).ok());
  DYCK_CHECK(registry.Register(std::make_unique<GreedySolver>()).ok());
}

}  // namespace dyck
