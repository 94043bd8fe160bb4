// Certified approximate solvers: the "approx" and "approx-greedy" registry
// entries.
//
// The accuracy ladder between uncertified greedy and the exact FPT
// solvers, in the spirit of Saha's conditional approximation [Sah14] and
// the Das–Kociumaka–Saha Dyck approximation line: every result comes with
// a *proof* that distance <= factor * exact, carried per-result in
// RepairTelemetry::certified_factor / exact_lower_bound.
//
// Certification scheme. Let U be the bidirectional greedy upper bound
// (the cost of the script actually returned) and L the untyped Dyck-1
// relaxation lower bound (src/approx/lower_bound.h); both are linear.
//   - If U <= f * L, the greedy script is certified at factor f outright.
//   - Otherwise run exact FPT probes under the usual doubling schedule,
//     but CAPPED at b = ceil(U / f) - 1. A probe that succeeds yields the
//     exact answer (factor 1.0). A completed probe at bound b that fails
//     proves exact >= b + 1 >= U / f — which certifies the greedy script
//     at factor f after poly(U/f) work instead of the exact solver's
//     poly(d).
// Either way the reported distance is never below the exact distance (it
// is an upper bound by construction) and never above f times it; the
// realized ratio U / L_proven (<= f) is what telemetry reports.
//
// Two rungs are registered:
//   "approx"        — the refinement solver above (factor 2.0, both
//                     metrics).
//   "approx-greedy" — the bounded-error greedy rung (factor 3.0, both
//                     metrics, O(n)): certifies by counting alone and
//                     declares itself inapplicable when U > 3 * L, so the
//                     planner only picks it when the certificate is free.

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "src/approx/bidi_greedy.h"
#include "src/approx/lower_bound.h"
#include "src/core/context.h"
#include "src/core/solver.h"
#include "src/fpt/deletion.h"
#include "src/fpt/substitution.h"
#include "src/util/budget.h"
#include "src/util/logging.h"

namespace dyck {

namespace {

constexpr double kRefineFactor = 2.0;
constexpr double kCertifiedGreedyFactor = 3.0;

// Cost model of the refinement solver: the FPT substitution constants
// (the conservative choice — PredictCost cannot see the metric) evaluated
// at the capped probe bound d / f instead of d. That undercuts the exact
// FPT models exactly where the ladder should engage: large d, where
// (d/f)^3 saves a factor f^3 of solve work.
constexpr double kRefinePerSymbol = 300e-9;
constexpr double kRefinePerSymbolD3 = 2.5e-9;
// The certified-greedy rung is three linear scans (forward repair,
// reversed estimate, relaxation bound).
constexpr double kCertifiedGreedyPerSymbol = 15e-9;

// Smallest b such that a failed exact probe at b certifies factor f:
// b + 1 = ceil(U / f) >= U / f.
int64_t CertificationBound(int64_t upper, double factor) {
  const int64_t need = static_cast<int64_t>(
      std::ceil(static_cast<double>(upper) / factor));
  return need - 1;
}

// Stamps a certified approximate result: `upper` is the reported
// distance, `lower` the proven bound. upper == lower proves the greedy
// script optimal, so the factor collapses to exact 1.0.
void CertifyTelemetry(int64_t upper, int64_t lower,
                      RepairTelemetry* telemetry) {
  if (telemetry == nullptr) return;
  telemetry->exact_lower_bound =
      std::max(telemetry->exact_lower_bound, lower);
  telemetry->certified_factor =
      static_cast<double>(upper) / static_cast<double>(lower);
}

class ApproxRefineSolver final : public Solver {
 public:
  const char* name() const override { return "approx"; }
  const SolverCaps& caps() const override {
    static const SolverCaps caps{.needs_reduced = true,
                                 .planner_candidate = true,
                                 .approximation_factor = kRefineFactor};
    return caps;
  }
  double PredictCost(int64_t n, int64_t d_hint) const override {
    const double nd = static_cast<double>(n);
    const double dd = static_cast<double>(d_hint) / kRefineFactor;
    return kRefinePerSymbol * nd + kRefinePerSymbolD3 * nd * dd * dd * dd;
  }
  Status Solve(const SolveRequest& request, RepairContext& ctx,
               RepairTelemetry* telemetry, SolverResult* out) const override {
    GreedyResult greedy = GreedyRepairBestDirection(
        request.seq, request.use_substitutions, &ctx.greedy_stack());
    const int64_t upper = greedy.cost;
    if (upper == 0) {
      // Balanced input: the empty script is exact.
      out->distance = 0;
      out->script = EditScript{};
      return Status::OK();
    }
    int64_t lower = std::max<int64_t>(
        DyckRelaxationLowerBound(request.seq, request.use_substitutions),
        1);
    if (request.max_distance >= 0 && lower > request.max_distance) {
      return solver_internal::MaxDistanceError(request.max_distance);
    }
    const int64_t cert_bound = CertificationBound(upper, kRefineFactor);
    if (lower > cert_bound) {
      // The counting bound already certifies the greedy script: free.
      CertifyTelemetry(upper, lower, telemetry);
      out->distance = upper;
      out->script = std::move(greedy.script);
      return Status::OK();
    }

    // Exact probes under the doubling schedule, capped at cert_bound. The
    // constructor borrows the pipeline's precomputed reduction when one
    // exists (caps().needs_reduced) and reduces internally otherwise
    // (direct Solve calls without a pipeline).
    auto probe_loop = [&](auto& solver) -> Status {
      for (int64_t d = 1;; d *= 2) {
        BudgetCheckpoint("pipeline.doubling");
        const int64_t bound = std::min(d, cert_bound);
        if (telemetry != nullptr) ++telemetry->doubling_iterations;
        StatusOr<FptResult> result =
            solver.Repair(static_cast<int32_t>(bound));
        if (result.ok()) {
          if (request.max_distance >= 0 &&
              result->distance > request.max_distance) {
            return solver_internal::MaxDistanceError(request.max_distance);
          }
          if (telemetry != nullptr) telemetry->solve_bound = bound;
          out->distance = result->distance;
          out->script = std::move(result->script);
          return Status::OK();
        }
        if (!result.status().IsBoundExceeded()) return result.status();
        // The probe completed, so exact > bound is proven.
        lower = std::max(lower, bound + 1);
        if (telemetry != nullptr) {
          telemetry->exact_lower_bound =
              std::max(telemetry->exact_lower_bound, lower);
        }
        if (request.max_distance >= 0 && lower > request.max_distance) {
          return solver_internal::MaxDistanceError(request.max_distance);
        }
        if (bound >= cert_bound) {
          // exact >= cert_bound + 1 >= U / f: greedy is certified.
          CertifyTelemetry(upper, lower, telemetry);
          out->distance = upper;
          out->script = std::move(greedy.script);
          return Status::OK();
        }
      }
    };
    if (request.use_substitutions) {
      SubstitutionSolver solver =
          request.reduced != nullptr
              ? SubstitutionSolver(request.reduced, &ctx)
              : SubstitutionSolver(request.seq);
      const Status status = probe_loop(solver);
      if (telemetry != nullptr) {
        telemetry->subproblems = solver.last_subproblem_count();
      }
      return status;
    }
    DeletionSolver solver = request.reduced != nullptr
                                ? DeletionSolver(request.reduced, &ctx)
                                : DeletionSolver(request.seq);
    const Status status = probe_loop(solver);
    if (telemetry != nullptr) {
      telemetry->subproblems = solver.last_subproblem_count();
    }
    return status;
  }
  StatusOr<int64_t> SolveDistance(const SolveRequest& request) const override {
    const int64_t upper = EstimateDistanceUpperBoundBidirectional(
        request.seq, request.use_substitutions);
    if (upper == 0) return 0;
    int64_t lower = std::max<int64_t>(
        DyckRelaxationLowerBound(request.seq, request.use_substitutions),
        1);
    if (request.max_distance >= 0 && lower > request.max_distance) {
      return solver_internal::MaxDistanceError(request.max_distance);
    }
    const int64_t cert_bound = CertificationBound(upper, kRefineFactor);
    if (lower > cert_bound) return upper;
    auto probe_loop = [&](auto& solver) -> StatusOr<int64_t> {
      for (int64_t d = 1;; d *= 2) {
        BudgetCheckpoint("pipeline.doubling");
        const int64_t bound = std::min(d, cert_bound);
        if (const auto v = solver.Distance(static_cast<int32_t>(bound));
            v.has_value()) {
          if (request.max_distance >= 0 && *v > request.max_distance) {
            return solver_internal::MaxDistanceError(request.max_distance);
          }
          return *v;
        }
        lower = std::max(lower, bound + 1);
        if (request.max_distance >= 0 && lower > request.max_distance) {
          return solver_internal::MaxDistanceError(request.max_distance);
        }
        if (bound >= cert_bound) return upper;
      }
    };
    if (request.use_substitutions) {
      SubstitutionSolver solver(request.seq);
      return probe_loop(solver);
    }
    DeletionSolver solver(request.seq);
    return probe_loop(solver);
  }
};

class CertifiedGreedySolver final : public Solver {
 public:
  const char* name() const override { return "approx-greedy"; }
  const SolverCaps& caps() const override {
    static const SolverCaps caps{
        .planner_candidate = true,
        .approximation_factor = kCertifiedGreedyFactor};
    return caps;
  }
  double PredictCost(int64_t n, int64_t d_hint) const override {
    (void)d_hint;
    return kCertifiedGreedyPerSymbol * static_cast<double>(n);
  }
  bool Applicable(const SolveRequest& request) const override {
    // Applicable iff the counting certificate is free: U <= f * L. The
    // planner has already computed the bidirectional greedy bound
    // (request.d_hint); direct callers pay one scan.
    const int64_t upper =
        request.d_hint >= 0
            ? request.d_hint
            : EstimateDistanceUpperBoundBidirectional(
                  request.seq, request.use_substitutions);
    const int64_t lower = std::max<int64_t>(
        DyckRelaxationLowerBound(request.seq, request.use_substitutions),
        1);
    return static_cast<double>(upper) <=
           kCertifiedGreedyFactor * static_cast<double>(lower);
  }
  Status Solve(const SolveRequest& request, RepairContext& ctx,
               RepairTelemetry* telemetry, SolverResult* out) const override {
    GreedyResult greedy = GreedyRepairBestDirection(
        request.seq, request.use_substitutions, &ctx.greedy_stack());
    if (greedy.cost == 0) {
      out->distance = 0;
      out->script = EditScript{};
      return Status::OK();
    }
    const int64_t lower = std::max<int64_t>(
        DyckRelaxationLowerBound(request.seq, request.use_substitutions),
        1);
    if (static_cast<double>(greedy.cost) >
        kCertifiedGreedyFactor * static_cast<double>(lower)) {
      return Status::InvalidArgument(
          "solver 'approx-greedy' cannot certify its factor on this input"
          " (capability: counting-certificate; force 'approx' or 'greedy'"
          " instead)");
    }
    if (request.max_distance >= 0 && lower > request.max_distance) {
      return solver_internal::MaxDistanceError(request.max_distance);
    }
    CertifyTelemetry(greedy.cost, lower, telemetry);
    out->distance = greedy.cost;
    out->script = std::move(greedy.script);
    return Status::OK();
  }
  StatusOr<int64_t> SolveDistance(const SolveRequest& request) const override {
    const int64_t upper = EstimateDistanceUpperBoundBidirectional(
        request.seq, request.use_substitutions);
    if (upper == 0) return 0;
    const int64_t lower = std::max<int64_t>(
        DyckRelaxationLowerBound(request.seq, request.use_substitutions),
        1);
    if (static_cast<double>(upper) >
        kCertifiedGreedyFactor * static_cast<double>(lower)) {
      return Status::InvalidArgument(
          "solver 'approx-greedy' cannot certify its factor on this input"
          " (capability: counting-certificate; force 'approx' or 'greedy'"
          " instead)");
    }
    if (request.max_distance >= 0 && lower > request.max_distance) {
      return solver_internal::MaxDistanceError(request.max_distance);
    }
    return upper;
  }
};

}  // namespace

void RegisterApproxSolvers(SolverRegistry& registry) {
  DYCK_CHECK(registry.Register(std::make_unique<ApproxRefineSolver>()).ok());
  DYCK_CHECK(
      registry.Register(std::make_unique<CertifiedGreedySolver>()).ok());
}

}  // namespace dyck
