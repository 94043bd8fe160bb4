// Registry adapter for the banded single-peak solver.
//
// A Property-19 reduced sequence that is one opening run followed by one
// closing run (a "single peak" — either run may be empty) has
// edit1(X) = the deletion edit distance between the opening run's type
// string and the reversed closing run's type string: every surviving
// symbol pair is a LIFO match across the peak, which is exactly the primed
// distance the LMS98 machinery computes (paper Definition 6). BandedAlign
// answers it in O(len * d) with operation reconstruction, so this solver
// beats the full FPT recursion on high-d single-peak inputs while
// remaining exact. Deletion metric only: under substitutions the optimal
// script can pair symbols within one run (edit2("((") = 1), which the
// two-string alignment cannot express.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/context.h"
#include "src/core/solver.h"
#include "src/lms/banded.h"
#include "src/profile/reduce.h"
#include "src/util/logging.h"

namespace dyck {

namespace {

// Calibrated against BENCH_crossover.json (DESIGN.md §5.10): O(n) reduce +
// O(reduced_len * d) band fill, charged against the full input length.
constexpr double kBandedPerSymbol = 10e-9;
constexpr double kBandedPerSymbolD = 2e-9;

bool IsSinglePeak(ParenSpan seq) {
  bool seen_close = false;
  for (const Paren& p : seq) {
    if (p.is_open) {
      if (seen_close) return false;
    } else {
      seen_close = true;
    }
  }
  return true;
}

Status NotSinglePeak() {
  return Status::InvalidArgument(
      "solver 'banded' requires a single-peak reduced input — one opening "
      "run followed by one closing run (capability: single-peak)");
}

// Splits the reduced single-peak sequence into the opening run's type
// string and the reversed closing run's type string.
void BuildTypeStrings(ParenSpan reduced_seq, std::vector<int32_t>* a,
                      std::vector<int32_t>* b) {
  const int64_t n = static_cast<int64_t>(reduced_seq.size());
  int64_t m = 0;
  while (m < n && reduced_seq[m].is_open) ++m;
  a->clear();
  a->reserve(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) a->push_back(reduced_seq[i].type);
  b->clear();
  b->reserve(static_cast<size_t>(n - m));
  for (int64_t i = n - 1; i >= m; --i) b->push_back(reduced_seq[i].type);
}

class BandedSolver final : public Solver {
 public:
  const char* name() const override { return "banded"; }
  const SolverCaps& caps() const override {
    static const SolverCaps caps{.substitutions = false,
                                 .needs_reduced = true,
                                 .planner_candidate = true};
    return caps;
  }
  double PredictCost(int64_t n, int64_t d_hint) const override {
    const double nd = static_cast<double>(n);
    return kBandedPerSymbol * nd +
           kBandedPerSymbolD * nd * static_cast<double>(d_hint);
  }
  bool Applicable(const SolveRequest& request) const override {
    return request.reduced != nullptr &&
           IsSinglePeak(request.reduced->seq);
  }
  Status Solve(const SolveRequest& request, RepairContext& ctx,
               RepairTelemetry* telemetry, SolverResult* out) const override {
    if (request.use_substitutions) return CheckMetric(true);
    if (!Applicable(request)) return NotSinglePeak();
    const Reduced& reduced = *request.reduced;
    const int64_t n_red = static_cast<int64_t>(reduced.seq.size());
    std::vector<int32_t>& a = ctx.band_types_a();
    std::vector<int32_t>& b = ctx.band_types_b();
    BuildTypeStrings(reduced.seq, &a, &b);
    StatusOr<SolverResult> result = solver_internal::DoublingSolve(
        request.doubling_cap, request.max_distance, telemetry,
        [&](int32_t d) -> StatusOr<SolverResult> {
          DYCK_ASSIGN_OR_RETURN(
              const BandedResult aligned,
              BandedAlign(a, b, WaveMetric::kDeletion, d));
          SolverResult s;
          s.distance = aligned.cost;
          s.script.ops.reserve(static_cast<size_t>(aligned.cost));
          for (const PairOp& op : aligned.ops) {
            switch (op.kind) {
              case PairOpKind::kMatch:
                for (int64_t t = 0; t < op.len; ++t) {
                  s.script.aligned_pairs.emplace_back(
                      reduced.orig_pos[op.a_pos + t],
                      reduced.orig_pos[n_red - 1 - (op.b_pos + t)]);
                }
                break;
              case PairOpKind::kDeleteA:
                s.script.ops.push_back({EditOpKind::kDelete,
                                        reduced.orig_pos[op.a_pos],
                                        Paren{}});
                break;
              case PairOpKind::kDeleteB:
                s.script.ops.push_back(
                    {EditOpKind::kDelete,
                     reduced.orig_pos[n_red - 1 - op.b_pos], Paren{}});
                break;
              default:
                return Status::Internal(
                    "substitution op under the deletion metric");
            }
          }
          s.script.aligned_pairs.insert(s.script.aligned_pairs.end(),
                                        reduced.matched_pairs.begin(),
                                        reduced.matched_pairs.end());
          s.script.Normalize();
          DYCK_CHECK_EQ(s.script.Cost(), s.distance);
          return s;
        });
    if (!result.ok()) return result.status();
    *out = std::move(result).value();
    return Status::OK();
  }
  StatusOr<int64_t> SolveDistance(const SolveRequest& request) const override {
    if (request.use_substitutions) return CheckMetric(true);
    // The Distance() path precomputes no reduction; build one locally.
    const Reduced reduced = Reduce(request.seq);
    if (!IsSinglePeak(reduced.seq)) return NotSinglePeak();
    std::vector<int32_t> a;
    std::vector<int32_t> b;
    BuildTypeStrings(reduced.seq, &a, &b);
    return solver_internal::DoublingDistance(
        request.doubling_cap, request.max_distance,
        [&](int32_t d) -> std::optional<int64_t> {
          const auto aligned = BandedAlign(a, b, WaveMetric::kDeletion, d);
          if (!aligned.ok()) return std::nullopt;
          return aligned->cost;
        });
  }
};

}  // namespace

void RegisterLmsSolvers(SolverRegistry& registry) {
  DYCK_CHECK(registry.Register(std::make_unique<BandedSolver>()).ok());
}

}  // namespace dyck
