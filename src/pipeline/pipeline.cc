#include "src/pipeline/pipeline.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "src/approx/bidi_greedy.h"
#include "src/approx/lower_bound.h"
#include "src/baseline/greedy.h"
#include "src/cache/repair_cache.h"
#include "src/core/context.h"
#include "src/core/insertion_repair.h"
#include "src/core/solver.h"
#include "src/pipeline/planner.h"
#include "src/profile/reduce.h"
#include "src/simd/simd.h"
#include "src/util/arena.h"
#include "src/util/budget.h"
#include "src/util/logging.h"

namespace dyck {
namespace pipeline {

namespace {

bool UseSubstitutions(Metric metric) {
  return metric == Metric::kDeletionsAndSubstitutions;
}

/// Attributes wall time to pipeline stages. Exactly one stage is open at a
/// time; Start() closes the previous one, so the per-stage seconds
/// partition the whole Run() call.
class StageTimer {
 public:
  explicit StageTimer(RepairTelemetry* telemetry) : telemetry_(telemetry) {}
  ~StageTimer() { Stop(); }

  void Start(PipelineStage stage) {
    Stop();
    current_ = stage;
    running_ = true;
    start_ = std::chrono::steady_clock::now();
  }

  void Stop() {
    if (!running_) return;
    telemetry_->stage_seconds[static_cast<int>(current_)] +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    running_ = false;
  }

 private:
  RepairTelemetry* telemetry_;
  PipelineStage current_ = PipelineStage::kNormalize;
  bool running_ = false;
  std::chrono::steady_clock::time_point start_;
};

// The five stages, minus budget handling (RunInto() below owns that).
// `forced` is ResolveSolver(options): the named solver, or nullptr when
// the planner selects. `out` is caller-owned so the telemetry written by
// StageTimer survives a budget unwind mid-stage. All scratch — balance
// stack, reduction output, height profile, valley structure, wave
// frontiers, FPT memo arena — comes from `ctx`, which RunInto has already
// reset for this document.
// When `art` is non-null, stages 1-2 are served from the caller's cached
// artifacts instead of scanning `seq` (see StageArtifacts in pipeline.h).
Status RunStaged(const ParenSeq& seq, const Options& options,
                 const Solver* forced, RepairContext& ctx,
                 RepairResult* outp, StageArtifacts* art) {
  const ParenSpan view(seq);
  const bool subs = UseSubstitutions(options.metric);
  const int64_t cap = static_cast<int64_t>(seq.size()) + 1;

  RepairResult& out = *outp;
  RepairTelemetry& telemetry = out.telemetry;
  telemetry.input_length = static_cast<int64_t>(seq.size());
  telemetry.simd_backend = simd::BackendName(simd::ActiveBackend());

  const bool is_auto = forced == nullptr;

  StageTimer timer(&telemetry);

  // Stage 1 — Normalize: the linear stack parse. Its balance verdict
  // drives both the reduction policy and the planner's fast path. A
  // caller with cached artifacts already knows the verdict (empty merged
  // residual).
  timer.Start(PipelineStage::kNormalize);
  const bool balanced =
      art != nullptr ? art->balanced : IsBalanced(view, &ctx.type_stack());
  timer.Stop();

  // Stage 2 — Profile/Reduce (Fact 18 / Property 19). Only the consumers
  // that semantically operate on the reduced sequence get one: forced
  // solvers that declare needs_reduced (they borrow it from the context),
  // the planner (which inspects the reduced shape, e.g. the banded
  // solver's single-peak test), and the balanced fast path (which needs
  // just the zero-cost pair alignment — no reduced sequence is
  // materialized for it). Cubic and branching produce scripts against raw
  // input positions, so reduction is skipped for them, not discarded.
  const bool wants_reduction =
      (forced != nullptr && forced->caps().needs_reduced) ||
      (is_auto && !balanced);
  Reduced& reduced = ctx.reduced();
  timer.Start(PipelineStage::kProfileReduce);
  if (art != nullptr) {
    if (wants_reduction) {
      telemetry.reduced_length =
          static_cast<int64_t>(art->reduced->seq.size());
    } else if (is_auto && balanced) {
      // For a balanced document the cached reduction's zero-cost pairs ARE
      // the full alignment AppendMatchedPairs would emit (empty under the
      // caller's omitted-pairs mode, where the caller assembles them
      // itself after the run).
      out.script.aligned_pairs.insert(out.script.aligned_pairs.end(),
                                      art->reduced->matched_pairs.begin(),
                                      art->reduced->matched_pairs.end());
      telemetry.reduced_length = 0;
    }
  } else if (wants_reduction) {
    Reduce(view, &reduced);
    telemetry.reduced_length = static_cast<int64_t>(reduced.seq.size());
    ++telemetry.seq_allocations;  // the reduced sequence itself
  } else if (is_auto && balanced) {
    AppendMatchedPairs(view, &out.script.aligned_pairs, &ctx.index_stack());
    telemetry.reduced_length = 0;  // balanced input reduces to empty
  }
  timer.Stop();

  SolveRequest request;
  request.seq = view;
  request.reduced =
      wants_reduction ? (art != nullptr ? art->reduced : &reduced) : nullptr;
  request.use_substitutions = subs;
  request.max_distance = options.max_distance;
  request.doubling_cap = cap;
  request.max_approximation_factor = options.max_approximation_factor;
  // The cached d-hint short-circuits the planner's greedy scan; forced
  // solvers never consumed one on the eager path, so it stays -1 there.
  if (art != nullptr && is_auto) request.d_hint = art->d_hint;

  // Stage 3 — Select: balanced inputs need no solver at all; a forced
  // solver is already resolved; everything else goes to the cost-model
  // planner.
  timer.Start(PipelineStage::kSelect);
  const Solver* solver = forced;
  bool trivial = false;
  if (is_auto) {
    if (balanced) {
      trivial = true;
      telemetry.balanced_fast_path = true;
    } else {
      StatusOr<PlanDecision> plan = PlanSolver(request, ctx);
      if (!plan.ok()) return plan.status();
      solver = plan->solver;
      telemetry.planned_cost = plan->predicted_cost;
      telemetry.d_upper_bound = plan->d_upper_bound;
    }
  }
  if (!trivial) telemetry.solver_name = solver->name();
  if (art != nullptr) art->served_by = trivial ? nullptr : solver;
  timer.Stop();

  if (trivial) {
    // Stage 5 — Materialize (Solve is a no-op): the input is its own
    // repair; the stage-2 alignment becomes the full arc diagram.
    timer.Start(PipelineStage::kMaterialize);
    out.repaired = seq;
    ++telemetry.seq_allocations;  // the output copy
    out.script.Normalize();
    timer.Stop();
    return Status::OK();
  }

  // Stage 4 — Solve: the selected registry entry, under the d-doubling
  // driver of §1.1 where the solver supports bounded probes.
  timer.Start(PipelineStage::kSolve);
  SolverResult result;
  DYCK_RETURN_NOT_OK(solver->Solve(request, ctx, &telemetry, &result));
  out.distance = result.distance;
  out.script = std::move(result.script);
  timer.Stop();

  // Stage 5 — Materialize: turn the optimal script into the repaired
  // sequence (plus the content-preserving trade when requested).
  timer.Start(PipelineStage::kMaterialize);
  if (options.style == RepairStyle::kPreserveContent) {
    DYCK_ASSIGN_OR_RETURN(out.script,
                          PreserveContentScript(seq, out.script));
  }
  if (art != nullptr && art->skip_materialize &&
      options.style == RepairStyle::kMinimalEdits) {
    // The caller materializes out.repaired itself (segmented copies around
    // the edit script) and owns the balance DCHECK.
    art->materialize_skipped = true;
  } else {
    ApplyScript(seq, out.script, &out.repaired);
    ++telemetry.seq_allocations;  // the repaired output
    DYCK_DCHECK(IsBalanced(out.repaired, &ctx.type_stack()));
  }
  timer.Stop();
  return Status::OK();
}

// Graceful degradation: the linear-time greedy baseline stands in for the
// interrupted exact solver, in the spirit of the Saha / Das–Kociumaka–Saha
// approximation line (see DESIGN.md). The answer is a valid balanced
// repair whose cost upper-bounds the exact distance; `max_distance` is
// deliberately not enforced here — a degraded answer is best-effort.
void DegradeToGreedy(const ParenSeq& seq, const Options& options,
                     RepairContext& ctx, RepairResult* out) {
  GreedyResult greedy = GreedyRepair(seq, UseSubstitutions(options.metric),
                                     &ctx.greedy_stack());
  out->distance = greedy.cost;
  out->script = std::move(greedy.script);
  if (options.style == RepairStyle::kPreserveContent) {
    StatusOr<EditScript> preserved = PreserveContentScript(seq, out->script);
    // On the (internal-bug-only) failure path keep the minimal-edit
    // script: still a valid repair, just not content-preserving.
    if (preserved.ok()) out->script = std::move(preserved).value();
  }
  ApplyScript(seq, out->script, &out->repaired);
  out->degraded = true;
  out->telemetry.degraded = true;
  // The greedy answer carries no accuracy certificate.
  out->telemetry.certified_factor = 0.0;
  // Any input that reached a solver is unbalanced, so distance >= 1; the
  // doubling driver may have proven a larger bound before the trip.
  out->telemetry.exact_lower_bound =
      std::max<int64_t>(out->telemetry.exact_lower_bound, 1);
  DYCK_DCHECK(IsBalanced(out->repaired));
}

// The kApproximate rung of the degrade ladder (kFail -> kApproximate ->
// kGreedy): the same linear-time fallback, but taken in the better of the
// two scan directions and paired with the untyped-relaxation lower bound,
// so the degraded answer carries an accuracy certificate whenever one
// exists. The rung certifies against max(Options::max_approximation_factor,
// 3.0) — the ladder never demands better accuracy from a degraded answer
// than the certified-greedy solver guarantees on its admissible inputs.
// When even that bound fails, the result falls through to the same
// uncertified shape kGreedy produces (certified_factor == 0).
void DegradeToApproximate(const ParenSeq& seq, const Options& options,
                          RepairContext& ctx, RepairResult* out) {
  const bool subs = UseSubstitutions(options.metric);
  GreedyResult greedy =
      GreedyRepairBestDirection(seq, subs, &ctx.greedy_stack());
  out->distance = greedy.cost;
  out->script = std::move(greedy.script);
  if (options.style == RepairStyle::kPreserveContent) {
    StatusOr<EditScript> preserved = PreserveContentScript(seq, out->script);
    if (preserved.ok()) out->script = std::move(preserved).value();
  }
  ApplyScript(seq, out->script, &out->repaired);
  out->degraded = true;
  out->telemetry.degraded = true;
  // The interrupted solver may have proven a doubling bound stronger than
  // the linear relaxation; the certificate uses the best of both.
  const int64_t lower = std::max({DyckRelaxationLowerBound(seq, subs),
                                  out->telemetry.exact_lower_bound,
                                  int64_t{1}});
  const double factor = std::max(options.max_approximation_factor, 3.0);
  const double realized =
      static_cast<double>(greedy.cost) / static_cast<double>(lower);
  if (realized <= factor) {
    out->telemetry.certified_factor = realized;
    out->telemetry.exact_lower_bound = lower;
  } else {
    out->telemetry.certified_factor = 0.0;
    out->telemetry.exact_lower_bound =
        std::max<int64_t>(out->telemetry.exact_lower_bound, 1);
  }
  DYCK_DCHECK(IsBalanced(out->repaired));
}

// Capacity-retaining reset: clears every member of a (possibly reused)
// RepairResult without releasing the vectors' heap storage, so a caller
// that loops RunInto over documents with one long-lived result performs no
// result-side allocations after warmup.
void ResetResult(RepairResult* out) {
  out->repaired.clear();
  out->script.ops.clear();
  out->script.aligned_pairs.clear();
  out->distance = 0;
  out->degraded = false;
  out->telemetry = RepairTelemetry{};
}

// Stamps the context's arena counters into the result so --stats and
// BatchStats can report scratch-memory behaviour per document/batch.
void FillArenaTelemetry(const RepairContext& ctx, RepairTelemetry* t) {
  t->arena_high_water_bytes = ctx.arena().high_water_bytes();
  t->arena_resets = ctx.arena().resets();
  t->heap_allocs = static_cast<int64_t>(ctx.arena().block_allocs());
}

}  // namespace

Status RunInto(const ParenSeq& seq, const Options& options,
               RepairContext* context, RepairResult* out) {
  return RunInto(seq, options, context, out, nullptr);
}

Status RunInto(const ParenSeq& seq, const Options& options,
               RepairContext* context, RepairResult* out,
               StageArtifacts* artifacts) {
  RepairContext& ctx =
      context != nullptr ? *context : RepairContext::CurrentThread();
  ctx.BeginDocument();
  ResetResult(out);
  if (artifacts != nullptr) {
    artifacts->served_by = nullptr;
    artifacts->materialize_skipped = false;
  }
  // Selection resolves before the cache and before any stage runs: an
  // unknown solver name, an unsupported metric or a NaN factor is an
  // options error, not a solve error, and never reaches a cache key.
  DYCK_ASSIGN_OR_RETURN(const Solver* forced, ResolveSolver(options));

  // Content-hash cache consult, eager path only. The StageArtifacts path
  // (RepairDoc) may return partial results (pairs omitted, materialize
  // skipped) that the doc completes afterward, so it runs its own
  // whole-document consult in RepairDoc::RepairInto instead.
  cache::RepairCache* repair_cache = nullptr;
  cache::OptionsKey cache_key;
  uint64_t cache_hash = 0;
  if (artifacts == nullptr) {
    repair_cache = cache::ResolveCache(options);
    if (repair_cache != nullptr) {
      cache_key = cache::OptionsKey::From(options);
      cache_hash = cache::HashSequence(seq, cache_key);
      if (repair_cache->Lookup(cache_hash, seq, cache_key, out)) {
        FillArenaTelemetry(ctx, &out->telemetry);
        return Status::OK();
      }
      out->telemetry.cache_miss = true;
    }
  }

  // Budget wiring. An externally installed budget (the batch runtime's
  // per-document budget, which merges batch deadline + cancellation) wins;
  // otherwise one is built from the Options limits. The fault-injection
  // seam forces a budget so tests can trip checkpoints without real
  // timeouts. With neither, the solvers pay one thread-local read per
  // checkpoint and nothing else.
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

  if (budget == nullptr) {
    DYCK_RETURN_NOT_OK(RunStaged(seq, options, forced, ctx, out, artifacts));
    // A clean exact run reports no lower bound (the distance is exact);
    // certified approximate runs keep the bound their certificate proved.
    if (out->telemetry.certified_factor == 1.0) {
      out->telemetry.exact_lower_bound = -1;
    }
    FillArenaTelemetry(ctx, &out->telemetry);
    if (repair_cache != nullptr) {
      repair_cache->Insert(cache_hash, seq, cache_key, *out);
    }
    return Status::OK();
  }

  Status status;
  bool tripped = false;
  try {
    status = RunStaged(seq, options, forced, ctx, out, artifacts);
  } catch (const BudgetExceededError& error) {
    status = error.status;
    tripped = true;
  }
  out->telemetry.budget_steps = budget->steps();
  if (budget->exceeded()) {
    out->telemetry.budget_checkpoint = budget->trip_checkpoint();
    out->telemetry.budget_trip_code =
        static_cast<int>(budget->trip_status().code());
  }

  if (!tripped) {
    if (!status.ok()) return status;
    if (out->telemetry.certified_factor == 1.0) {
      out->telemetry.exact_lower_bound = -1;
    }
    FillArenaTelemetry(ctx, &out->telemetry);
    if (repair_cache != nullptr) {
      repair_cache->Insert(cache_hash, seq, cache_key, *out);
    }
    return Status::OK();
  }

  // Budget tripped mid-solve. Cancellation always fails (the caller asked
  // for the whole batch to stop); deadline/resource trips degrade to the
  // greedy baseline when the options ask for it.
  if (options.on_budget_exceeded == DegradePolicy::kFail ||
      status.IsCancelled()) {
    return status;
  }
  if (artifacts != nullptr) {
    // Degraded answers are built from the raw sequence and arrive fully
    // materialized; nothing of the staged run's selection survives.
    artifacts->served_by = nullptr;
    artifacts->materialize_skipped = false;
  }
  if (options.on_budget_exceeded == DegradePolicy::kApproximate) {
    DegradeToApproximate(seq, options, ctx, out);
  } else {
    DegradeToGreedy(seq, options, ctx, out);
  }
  FillArenaTelemetry(ctx, &out->telemetry);
  if (repair_cache != nullptr) {
    // Degraded / uncertified answers are refused by Insert (counted as
    // bypasses): they depend on where the budget tripped, not on the key.
    repair_cache->Insert(cache_hash, seq, cache_key, *out);
  }
  return Status::OK();
}

StatusOr<RepairResult> Run(const ParenSeq& seq, const Options& options,
                           RepairContext* context) {
  RepairResult out;
  DYCK_RETURN_NOT_OK(RunInto(seq, options, context, &out));
  return out;
}

}  // namespace pipeline
}  // namespace dyck
