// Unified solver interface + process-wide registry.
//
// Every solver family — the paper's FPT algorithms (Theorems 26/40), the
// cubic interval-DP oracle, the exponential branching baseline, the greedy
// heuristic, and the banded single-peak specialization — sits behind one
// Solver interface: a name, capability metadata, a calibrated cost model,
// and Solve/SolveDistance entry points. Instances register themselves in
// the SolverRegistry, and the registry name is the only handle on a
// solver: Options::solver selects by it (ResolveSolver below), telemetry
// records it (RepairTelemetry::solver_name), the repair cache keys on it,
// and the CLI, the C API and the daemon pass it through. Adding an
// algorithm is: implement Solver, register it, done — no enumerator or
// switch arm in any layer (see DESIGN.md §5.10).

#ifndef DYCKFIX_SRC_CORE_SOLVER_H_
#define DYCKFIX_SRC_CORE_SOLVER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/alphabet/paren.h"
#include "src/core/dyck.h"
#include "src/core/edit_script.h"
#include "src/profile/reduce.h"
#include "src/util/budget.h"
#include "src/util/statusor.h"

namespace dyck {

class RepairContext;

/// Distance plus an optimal (or, for approximate solvers, upper-bounding)
/// edit script against the solver's original input positions.
struct SolverResult {
  int64_t distance = 0;
  EditScript script;
};

/// Capability metadata the planner and the error paths consult. A solver
/// asked to run outside its capabilities fails with InvalidArgument naming
/// the solver and the capability that failed (Solver::CheckMetric).
struct SolverCaps {
  /// Supports Metric::kDeletionsOnly (edit1).
  bool deletions = true;
  /// Supports Metric::kDeletionsAndSubstitutions (edit2).
  bool substitutions = true;
  /// Consumes the Property-19 reduction (SolveRequest::reduced); the
  /// pipeline materializes one into context scratch before Solve.
  bool needs_reduced = false;
  /// Eligible for automatic selection. Non-candidates are forced-only:
  /// branching (its exponential cost model makes any d-hint overestimate
  /// catastrophic), greedy (uncertified), and the "fpt" umbrella (its two
  /// metric-specific entries carry the calibrated models instead).
  bool planner_candidate = false;
  /// Worst-case multiplicative accuracy guarantee of the solver's results:
  /// 1.0 for exact solvers (always the true distance), a finite value
  /// f > 1 for certified approximate solvers (every returned distance is
  /// proven <= f * exact; src/approx), and +infinity for uncertified
  /// heuristics (greedy). The planner admits a solver only when this is
  /// <= max(1.0, Options::max_approximation_factor), so exact solvers are
  /// always admissible and greedy never is.
  double approximation_factor = 1.0;
};

/// Everything a Solve/SolveDistance call needs beyond the context.
struct SolveRequest {
  /// The raw input, as a view — solvers never copy it.
  ParenSpan seq;
  /// The Property-19 reduction of `seq`; non-null whenever the pipeline
  /// ran the Reduce stage (always for caps().needs_reduced solvers; also
  /// when the planner selects, so it can inspect the reduced shape). Null
  /// on the Distance() fast path, where no reduction is precomputed.
  const Reduced* reduced = nullptr;
  /// Metric::kDeletionsAndSubstitutions?
  bool use_substitutions = false;
  /// Options::max_distance passthrough; -1 = unlimited.
  int64_t max_distance = -1;
  /// Trivial upper bound for the doubling driver (|seq| + 1).
  int64_t doubling_cap = 0;
  /// Options::max_approximation_factor passthrough (already clamped to
  /// >= 1.0): the planner's accuracy filter. Solvers themselves certify
  /// against their own caps().approximation_factor, not this value, so a
  /// forced approximate solver keeps its advertised guarantee.
  double max_approximation_factor = 1.0;
  /// The planner's bidirectional greedy distance upper bound, when one was
  /// already computed for this request (-1 otherwise). Lets
  /// Applicable() implementations that need the greedy estimate (e.g. the
  /// certified-greedy gate) avoid a redundant scan; never consumed by
  /// Solve, which recomputes from scratch it owns.
  int64_t d_hint = -1;
};

namespace solver_internal {

inline Status MaxDistanceError(int64_t max_distance) {
  return Status::BoundExceeded("distance exceeds max_distance " +
                               std::to_string(max_distance));
}

/// Doubling driver over a script-producing probe (§1.1). `probe(d)`
/// returns BoundExceeded to request a larger d. Every probe is one
/// telemetry iteration; the bound that finally succeeded is recorded as
/// solve_bound, and each completed-but-exceeded probe proves
/// distance > bound, which the degraded path reports as exact_lower_bound.
/// The per-probe checkpoint bounds how long a runaway doubling trajectory
/// survives a tripped budget.
template <typename Probe>
StatusOr<SolverResult> DoublingSolve(int64_t cap, int64_t max_distance,
                                     RepairTelemetry* telemetry,
                                     Probe probe) {
  for (int64_t d = 1;; d *= 2) {
    BudgetCheckpoint("pipeline.doubling");
    const int64_t bound =
        max_distance >= 0 ? std::min(d, max_distance) : std::min(d, cap);
    ++telemetry->doubling_iterations;
    auto result = probe(static_cast<int32_t>(bound));
    if (result.ok()) {
      telemetry->solve_bound = bound;
      return result;
    }
    if (!result.status().IsBoundExceeded()) return result.status();
    // The probe ran to completion, so distance > bound is proven.
    telemetry->exact_lower_bound =
        std::max(telemetry->exact_lower_bound, bound + 1);
    if (max_distance >= 0 && bound >= max_distance) return result.status();
    if (bound >= cap) {
      return Status::Internal("doubling repair exceeded the trivial cap");
    }
  }
}

/// Distance-only doubling driver. `probe(d)` returns the distance if it is
/// <= d, std::nullopt otherwise.
template <typename Probe>
StatusOr<int64_t> DoublingDistance(int64_t cap, int64_t max_distance,
                                   Probe probe) {
  for (int64_t d = 1;; d *= 2) {
    BudgetCheckpoint("pipeline.doubling");
    const int64_t bound =
        max_distance >= 0 ? std::min(d, max_distance) : std::min(d, cap);
    if (const auto v = probe(static_cast<int32_t>(bound)); v.has_value()) {
      if (max_distance >= 0 && *v > max_distance) {
        return MaxDistanceError(max_distance);
      }
      return *v;
    }
    if (bound >= cap) {
      return Status::Internal("doubling driver exceeded the trivial cap");
    }
    if (max_distance >= 0 && bound >= max_distance) {
      return MaxDistanceError(max_distance);
    }
  }
}

}  // namespace solver_internal

/// One algorithm behind the registry. Implementations are stateless and
/// const: per-document state lives in the RepairContext, so a single
/// instance serves every thread.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry name, e.g. "fpt", "cubic", "banded". Stable across releases;
  /// Options::solver, the CLI (--algorithm=<name>), the C API and the
  /// daemon (solver=<name>) address solvers by it. "auto" is reserved for
  /// the planner.
  virtual const char* name() const = 0;

  virtual const SolverCaps& caps() const = 0;

  /// Predicted wall seconds to repair a document of `n` symbols whose
  /// distance is (at most) `d_hint`. Constants are calibrated from the
  /// crossover benchmark (bench_crossover -> BENCH_crossover.json;
  /// methodology in DESIGN.md §5.10). Must be nondecreasing in both
  /// arguments — a unit test enforces it for every registered solver.
  virtual double PredictCost(int64_t n, int64_t d_hint) const = 0;

  /// Structural applicability beyond caps(), e.g. the banded solver's
  /// single-peak requirement on the reduced sequence. The planner skips
  /// inapplicable solvers; a forced inapplicable solver fails Solve with
  /// InvalidArgument.
  virtual bool Applicable(const SolveRequest& request) const {
    (void)request;
    return true;
  }

  /// Repairs request.seq, filling `out` and the doubling/subproblem fields
  /// of `telemetry`. Budget checkpoints are polled inside (the ambient
  /// BudgetScope applies).
  virtual Status Solve(const SolveRequest& request, RepairContext& ctx,
                       RepairTelemetry* telemetry,
                       SolverResult* out) const = 0;

  /// Distance only, without script reconstruction or telemetry (the
  /// Distance() entry point). For approximate solvers this is an upper
  /// bound on the true distance.
  virtual StatusOr<int64_t> SolveDistance(
      const SolveRequest& request) const = 0;

  /// OK when the solver supports the metric; InvalidArgument naming the
  /// solver and the capability that failed otherwise. The message is
  /// surfaced verbatim through dyckfix_last_error and the CLI.
  Status CheckMetric(bool use_substitutions) const;
};

/// Process-wide name -> Solver map. Global() registers the built-in
/// solvers on first use (explicit registration, so static-library
/// dead-stripping cannot lose a family); it is immutable afterwards and
/// therefore safe to read from any thread. Out-of-tree solvers must
/// Register() before the first concurrent use, typically at startup.
class SolverRegistry {
 public:
  /// The registry every layer consults, with all built-in solvers
  /// registered. The FPT family registers first, so the planner's
  /// small-cost floor (the first admissible candidate in registration
  /// order) is the paper's solver for the requested metric.
  static SolverRegistry& Global();

  /// Adds a solver. InvalidArgument if the name is empty, taken, or
  /// "auto" (reserved for the planner).
  Status Register(std::unique_ptr<Solver> solver);

  /// nullptr when no solver has that name.
  const Solver* Find(std::string_view name) const;

  /// Registration order; stable for the planner's deterministic
  /// tie-breaking and the CLI's --list-algorithms rendering.
  const std::vector<const Solver*>& solvers() const { return view_; }

 private:
  std::vector<std::unique_ptr<Solver>> owned_;
  std::vector<const Solver*> view_;
};

/// The one mapping from Options to a solver, shared by the pipeline's
/// Select stage, Distance() and RepairDoc: the SolverRegistry::Global()
/// entry Options::solver names, or nullptr when the name is "" or "auto"
/// (the planner decides). InvalidArgument when the name is unknown, when
/// the named solver does not support Options::metric, or when
/// Options::max_approximation_factor is NaN.
StatusOr<const Solver*> ResolveSolver(const Options& options);

// Built-in family registration hooks, implemented next to their solvers
// (src/fpt/solvers.cc, src/baseline/solvers.cc, src/lms/solvers.cc,
// src/approx/solvers.cc) and called exactly once by
// SolverRegistry::Global().
void RegisterFptSolvers(SolverRegistry& registry);
void RegisterBaselineSolvers(SolverRegistry& registry);
void RegisterLmsSolvers(SolverRegistry& registry);
void RegisterApproxSolvers(SolverRegistry& registry);

}  // namespace dyck

#endif  // DYCKFIX_SRC_CORE_SOLVER_H_
