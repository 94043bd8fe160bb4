// Per-stage observability for the staged repair pipeline (src/pipeline).
//
// Every Repair() call fills a RepairTelemetry: wall time per pipeline
// stage, the d-doubling trajectory, the Property-19 reduction ratio, which
// solver actually ran, and copy/allocation counters proving the
// pipeline shuttles views (ParenSpan) rather than sequence copies between
// stages. The struct rides on RepairResult through every layer — the batch
// runtime aggregates it across workers (TelemetryAggregate), the C API
// exposes it via dyckfix_last_telemetry, and the CLI prints it under
// --stats — so any future perf change is measurable against a stage-level
// baseline.
//
// This header is standalone (no core/ includes) so core/dyck.h can embed
// RepairTelemetry in RepairResult without a cycle.

#ifndef DYCKFIX_SRC_PIPELINE_TELEMETRY_H_
#define DYCKFIX_SRC_PIPELINE_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

namespace dyck {

/// The five stages of the single-document repair pipeline, in execution
/// order. See src/pipeline/pipeline.h for what each stage does and
/// DESIGN.md for the mapping to paper sections.
enum class PipelineStage : int {
  /// Input inspection: the linear balance scan (Definition 3 stack parse).
  kNormalize = 0,
  /// Property-19 reduction (Fact 18) + the zero-cost pair alignment; run
  /// only for paths that consume it (FPT solvers, balanced fast path).
  kProfileReduce = 1,
  /// Solver selection: the cost-model planner, unless Options::solver
  /// names a registry entry.
  kSelect = 2,
  /// The solver itself, including the d-doubling driver (§1.1).
  kSolve = 3,
  /// Script finalization: preserve-content transform + ApplyScript.
  kMaterialize = 4,
};

inline constexpr int kNumPipelineStages = 5;

/// Short lowercase stage name ("normalize", "reduce", ...), for logs and
/// the CLI --stats rendering.
const char* PipelineStageName(PipelineStage stage);

/// Observability record of one Repair() pipeline run.
struct RepairTelemetry {
  /// Wall seconds per stage, indexed by PipelineStage.
  double stage_seconds[kNumPipelineStages] = {};
  /// Probes issued by the d-doubling driver (0 when no driver ran: cubic,
  /// or the balanced fast path).
  int32_t doubling_iterations = 0;
  /// The bound d at which the doubling driver succeeded; -1 if no driver
  /// ran or the last probe failed.
  int64_t solve_bound = -1;
  /// Symbols in the input sequence.
  int64_t input_length = 0;
  /// Length of the Property-19 reduced sequence; -1 when the reduction
  /// stage was skipped (cubic / branching operate on the raw input).
  int64_t reduced_length = -1;
  /// Memoized subproblems solved by the FPT solver's last probe; 0 for
  /// non-FPT paths. The paper bounds this by poly(d) independently of n.
  int64_t subproblems = 0;
  /// True when the input was already balanced and, with no solver forced,
  /// the pipeline answered without running one.
  bool balanced_fast_path = false;
  /// Registry name of the solver that produced the result ("fpt-deletion",
  /// "cubic", "banded", ...), whether forced or picked by the planner
  /// (d_upper_bound >= 0 tells which); empty on the balanced fast path,
  /// where no solver ran. A degraded result keeps the name of the solver
  /// the budget interrupted.
  std::string solver_name;
  /// The cost model's predicted wall seconds for the planner's pick; -1
  /// when the planner did not run.
  double planned_cost = -1;
  /// The greedy-scan distance upper bound the planner fed into the cost
  /// models (>= the true distance); -1 when the planner did not run.
  int64_t d_upper_bound = -1;
  /// Full-sequence ParenSeq copies made *between* stages. The pipeline
  /// contract is zero — stages hand each other ParenSpan views — and a
  /// test asserts it; any future stage that must copy goes through
  /// pipeline-internal helpers that bump this.
  int64_t seq_copies = 0;
  /// Sequences the pipeline materialized on purpose: the reduced sequence
  /// (bounded by the reduction ratio) and the repaired output.
  int64_t seq_allocations = 0;
  /// True when an execution budget tripped and the greedy fallback
  /// produced this result (RepairResult::degraded mirrors it).
  bool degraded = false;
  /// Name of the budget checkpoint that tripped first ("fpt.deletion.
  /// solve", "pipeline.doubling", ...); empty when no budget tripped.
  std::string budget_checkpoint;
  /// StatusCode (as int) of the budget trip: kDeadlineExceeded,
  /// kResourceExhausted, or kCancelled; 0 (kOk) when no budget tripped.
  int budget_trip_code = 0;
  /// Cooperative work steps the budget counted (0 without a budget).
  int64_t budget_steps = 0;
  /// Best known lower bound on the exact distance when the result is not
  /// exact (degraded, or produced by a certified approximate solver): the
  /// larger of the untyped Dyck-1 relaxation bound and the largest
  /// doubling bound proven exceeded plus one (>= 1, since only unbalanced
  /// inputs reach a solver). `distance - exact_lower_bound` bounds the
  /// approximate/exact gap. -1 when the distance is exact.
  int64_t exact_lower_bound = -1;
  /// Accuracy of this result. 1.0: exact. Values in (1.0, inf): a
  /// *certified* approximation — distance <= certified_factor * exact is
  /// proven (the realized ratio distance / exact_lower_bound, which is at
  /// most the serving solver's SolverCaps::approximation_factor). 0.0:
  /// uncertified (the plain greedy solver, or a budget trip the
  /// kApproximate ladder could not certify) — the distance is an upper
  /// bound with no multiplicative guarantee.
  double certified_factor = 1.0;
  /// High-water mark (bytes) of the RepairContext arena across the
  /// context's lifetime; 0 when the repair ran without arena scratch.
  int64_t arena_high_water_bytes = 0;
  /// Times the context's arena was reset (== documents the context has
  /// started, counting this one). Values > 1 prove context reuse.
  int64_t arena_resets = 0;
  /// Heap blocks the arena fetched so far; a steady value across
  /// documents proves steady-state zero-allocation scratch.
  int64_t heap_allocs = 0;
  /// True when this result was served by RepairDoc from incrementally
  /// maintained chunk summaries (no full rescan of the document); false
  /// for eager runs and for doc repairs that fell back to a full rebuild.
  bool incremental = false;
  /// Chunk summaries reused as-is from the doc's stage cache (clean at
  /// repair time). 0 for eager runs.
  int64_t chunks_reused = 0;
  /// Chunk summaries recomputed because a splice dirtied them (or the
  /// whole document on a fallback rebuild). 0 for eager runs.
  int64_t chunks_recomputed = 0;
  /// Active vector-kernel backend ("scalar", "sse2", "avx2", "neon") the
  /// span kernels dispatched to during this repair (src/simd). Adaptive
  /// drivers may still route individual small or run-heavy spans to the
  /// scalar path; results are byte-identical either way.
  std::string simd_backend;
  /// True when this result was served from the content-hash repair cache
  /// (src/cache/repair_cache.h) — no solver ran; distance, script, and
  /// repaired sequence are byte-identical to the run that populated the
  /// entry, and the solver-attribution fields above describe that run.
  bool cache_hit = false;
  /// True when a repair cache was consulted and missed (the pipeline then
  /// solved normally and, for clean results, populated the cache). Both
  /// flags false means no cache was active.
  bool cache_miss = false;
  /// Chunk summaries this RepairDoc repair obtained from the shared
  /// sequence interner instead of recomputing (subset of
  /// chunks_recomputed's would-be work). 0 for eager runs.
  int64_t interned_chunks = 0;

  double TotalSeconds() const;

  /// One-line human-readable rendering, e.g.
  /// "solver=fpt-deletion d_hint=2 planned=3.1us iterations=2 bound=2
  ///  reduced=6/128 copies=0 normalize=1.2us reduce=0.8us select=0.1us
  ///  solve=40.5us materialize=2.2us total=44.8us"; "solver=none(balanced)"
  /// on the balanced fast path.
  std::string ToString() const;
};

/// Sum of RepairTelemetry records across the documents of a batch.
/// Accumulated by the submitting thread after the workers join (see
/// runtime::BatchRepairEngine::RepairAll), so no synchronization is needed
/// and the totals are deterministic for a given result set.
struct TelemetryAggregate {
  int64_t documents = 0;
  double stage_seconds[kNumPipelineStages] = {};
  int64_t doubling_iterations = 0;
  int64_t seq_copies = 0;
  int64_t seq_allocations = 0;
  int64_t subproblems = 0;
  /// Sum of input/reduced lengths over documents whose reduction ran
  /// (reduced_length >= 0), giving the corpus-level reduction ratio.
  int64_t reduced_length_total = 0;
  int64_t reduced_input_total = 0;
  /// Documents per registry solver name (RepairTelemetry::solver_name);
  /// documents where no solver ran are not counted (ToString reports
  /// them as trivial=).
  std::map<std::string, int64_t> solver_documents;
  /// Documents whose budget tripped and were served by the greedy
  /// fallback (DegradePolicy::kGreedy or the uncertified end of
  /// kApproximate).
  int64_t degraded_documents = 0;
  /// Documents served with a certified approximation (certified_factor in
  /// (1.0, inf)); exact documents (1.0) are not counted.
  int64_t approx_documents = 0;
  /// Documents served with no accuracy certificate at all
  /// (certified_factor == 0.0): forced greedy, or uncertifiable degrades.
  int64_t uncertified_documents = 0;
  /// Largest certified_factor over the batch's approximate documents; 0
  /// when every document was exact or uncertified.
  double max_certified_factor = 0.0;
  /// Total cooperative work steps across documents that ran a budget.
  int64_t budget_steps = 0;
  /// Largest per-context arena high-water mark observed in the batch.
  int64_t arena_high_water_bytes = 0;
  /// Largest per-context reset count observed (documents served by the
  /// busiest context — reuse shows up as values well above 1).
  int64_t arena_resets = 0;
  /// Total arena heap-block fetches across documents; flat after warmup.
  int64_t heap_allocs = 0;
  /// Documents served incrementally from a RepairDoc stage cache.
  int64_t incremental_documents = 0;
  /// Chunk summaries reused / recomputed across documents (RepairDoc).
  int64_t chunks_reused = 0;
  int64_t chunks_recomputed = 0;
  /// Documents served from / missed by the content-hash repair cache.
  /// Both zero means no cache was active for the batch.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// Chunk summaries served by the sequence interner across documents.
  int64_t interned_chunks = 0;

  void Add(const RepairTelemetry& telemetry);
  void Merge(const TelemetryAggregate& other);

  double TotalSeconds() const;

  /// One-line rendering of the totals, e.g.
  /// "docs=48 trivial=12 solvers=cubic:4,fpt-substitution:32
  ///  iterations=80 copies=0 normalize=... total=...".
  std::string ToString() const;
};

/// Point-in-time copy of the serving daemon's counters (see ServerCounters
/// below). Plain integers; safe to format, compare, and diff in tests.
struct ServerStats {
  /// Frames that parsed into a request of any verb.
  int64_t requests_received = 0;
  /// Repair requests that passed admission control (queued or ran).
  int64_t admitted = 0;
  /// Requests answered with an ok response.
  int64_t served_ok = 0;
  /// Repair requests refused with a typed OVERLOADED response because the
  /// queue was at capacity.
  int64_t shed_overloaded = 0;
  /// Frames rejected before reaching a verb: malformed headers, bad
  /// key=value fields, oversized payloads, framing violations.
  int64_t protocol_errors = 0;
  /// Admitted requests answered with an err response (solver fault,
  /// budget trip under DegradePolicy::kFail, injected fault).
  int64_t faulted = 0;
  /// Admitted requests dropped by shutdown or session close before a
  /// worker picked them up.
  int64_t cancelled = 0;
  /// Requests served below the exact tier because queue pressure moved
  /// the degrade ladder (the response still carries certified_factor).
  int64_t degraded_pressure = 0;
  /// Deepest admission queue observed across the server's lifetime.
  int64_t queue_depth_high_water = 0;
  /// Payload + header bytes consumed from / written to sessions.
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  /// True when the server owns a repair cache (ServerOptions::cache_bytes
  /// > 0); the cache fields below are meaningful only then, and ToString
  /// appends its cache segment only then.
  bool cache_active = false;
  /// Snapshot of the server cache's counters (see RepairCacheStats):
  /// hits (answered inline on the session thread, bypassing admission),
  /// misses, and entries evicted by the byte budget.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;

  /// One-line rendering: "received=120 admitted=100 ok=96 shed=20
  /// protocol_errors=0 faulted=4 cancelled=0 degraded=12 queue_hw=64
  /// in=81920B out=40960B", plus " cache hit=40 miss=60 evict=2" when a
  /// cache is active.
  std::string ToString() const;
};

/// Monotonic lifetime counters for the serving daemon (src/server).
/// Incremented concurrently by session threads (framing, admission) and
/// pool workers (completion), so every field is a relaxed atomic —
/// counters are independent and monotone, and readers only want totals,
/// so no ordering beyond atomicity is needed. Snapshot() copies the
/// fields into a plain ServerStats; the copy is per-field consistent,
/// not a cross-field transaction (a snapshot taken mid-request can show
/// admitted == served_ok + 1).
struct ServerCounters {
  std::atomic<int64_t> requests_received{0};
  std::atomic<int64_t> admitted{0};
  std::atomic<int64_t> served_ok{0};
  std::atomic<int64_t> shed_overloaded{0};
  std::atomic<int64_t> protocol_errors{0};
  std::atomic<int64_t> faulted{0};
  std::atomic<int64_t> cancelled{0};
  std::atomic<int64_t> degraded_pressure{0};
  std::atomic<int64_t> queue_depth_high_water{0};
  std::atomic<int64_t> bytes_in{0};
  std::atomic<int64_t> bytes_out{0};

  /// Raises queue_depth_high_water to `depth` if it is a new maximum.
  void NoteQueueDepth(int64_t depth);

  ServerStats Snapshot() const;
};

}  // namespace dyck

#endif  // DYCKFIX_SRC_PIPELINE_TELEMETRY_H_
