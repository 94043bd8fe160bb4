/* dyckfix C API — bracket-structure repair for plain text.
 *
 * A minimal FFI surface over the C++ library (src/core/dyck.h) for
 * language bindings: the input is a NUL-terminated byte string, brackets
 * of the default ()[]{}<> alphabet are repaired with the paper's FPT
 * algorithms, and every non-bracket byte is preserved verbatim.
 *
 * All functions are thread-compatible. Mutable state (the last-error
 * message, the telemetry snapshot, and all scratch memory) lives on a
 * repair context: either the calling thread's implicit per-thread context
 * (dyckfix_repair & friends) or an explicit dyckfix_context handle, which
 * also lets long-running callers reuse warm scratch buffers across
 * documents (zero steady-state allocations per document after warmup).
 */

#ifndef DYCKFIX_INCLUDE_DYCKFIX_H_
#define DYCKFIX_INCLUDE_DYCKFIX_H_

#include <stddef.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef enum {
  DYCKFIX_METRIC_DELETIONS = 0,     /* edit1: deletions only        */
  DYCKFIX_METRIC_SUBSTITUTIONS = 1  /* edit2: deletions + retyping  */
} dyckfix_metric;

typedef enum {
  DYCKFIX_STYLE_MINIMAL = 0,  /* ops exactly as the metric defines  */
  DYCKFIX_STYLE_PRESERVE = 1  /* trade deletions for insertions     */
} dyckfix_style;

/* Error codes returned by the functions below. */
enum {
  DYCKFIX_OK = 0,
  DYCKFIX_ERROR_INVALID_ARGUMENT = 1,
  DYCKFIX_ERROR_BOUND_EXCEEDED = 2,
  DYCKFIX_ERROR_INTERNAL = 3,
  /* dyckfix_last_telemetry: no repair has completed on this thread yet. */
  DYCKFIX_ERROR_NO_TELEMETRY = 4,
  /* An execution budget (timeout_ms / max_work_steps) tripped under
   * DYCKFIX_DEGRADE_FAIL. */
  DYCKFIX_ERROR_DEADLINE_EXCEEDED = 5,
  /* The whole-batch deadline fired before this document finished (batch
   * calls only; never degrades). */
  DYCKFIX_ERROR_CANCELLED = 6,
  /* The work-step or memory cap tripped under DYCKFIX_DEGRADE_FAIL. */
  DYCKFIX_ERROR_RESOURCE_EXHAUSTED = 7
};

/* What a budgeted repair does when its budget trips mid-solve. */
typedef enum {
  DYCKFIX_DEGRADE_FAIL = 0,  /* fail with DEADLINE_EXCEEDED / RESOURCE_... */
  DYCKFIX_DEGRADE_GREEDY = 1,/* return the linear-time greedy fallback     */
  DYCKFIX_DEGRADE_APPROX = 2 /* greedy fallback + accuracy certificate:
                              * when the fallback's cost is provably within
                              * max(max_approx_factor, 3) of optimal, the
                              * telemetry carries certified_factor > 0 and
                              * the proven exact_lower_bound; otherwise the
                              * answer is the same uncertified greedy one  */
} dyckfix_degrade;

/* The algorithm family that produced a repair (see
 * dyckfix_telemetry.algorithm), derived from the registry name of the
 * solver that ran: FPT for "fpt", "fpt-deletion" and "fpt-substitution",
 * APPROX for "approx" and "approx-greedy", and the like-named value for
 * "cubic", "branching", "banded" and "greedy". AUTO means the input was
 * already balanced and no solver ran. Selection takes the registry name
 * (dyckfix_options.algorithm); this enum is reporting only. */
typedef enum {
  DYCKFIX_ALGORITHM_AUTO = 0,
  DYCKFIX_ALGORITHM_FPT = 1,
  DYCKFIX_ALGORITHM_CUBIC = 2,
  DYCKFIX_ALGORITHM_BRANCHING = 3,
  DYCKFIX_ALGORITHM_BANDED = 4,
  DYCKFIX_ALGORITHM_GREEDY = 5,
  DYCKFIX_ALGORITHM_APPROX = 6
} dyckfix_algorithm;

/* Per-stage observability of one repair: wall seconds for each stage of
 * the staged pipeline (Normalize -> Profile/Reduce -> Select -> Solve ->
 * Materialize), the d-doubling trajectory, the Property-19 reduction
 * ratio, and the pipeline's copy counter (0 on every shipped path). */
typedef struct {
  double normalize_seconds;
  double profile_reduce_seconds;
  double select_seconds;
  double solve_seconds;
  double materialize_seconds;
  long long doubling_iterations; /* probes issued by the doubling driver  */
  long long solve_bound;         /* d that succeeded; -1 if no driver ran */
  long long input_length;        /* bracket tokens in the input           */
  long long reduced_length;      /* after Property-19; -1 if skipped      */
  long long seq_copies;          /* inter-stage sequence copies (0)       */
  int algorithm;                 /* dyckfix_algorithm actually run        */
  int balanced_fast_path;        /* 1 if the input was already balanced   */
  int degraded;                  /* 1 if the greedy fallback answered     */
  long long budget_steps;        /* cooperative work steps counted; 0
                                  * when the repair ran without a budget  */
  long long arena_high_water_bytes; /* context scratch-arena peak usage   */
  long long arena_resets;        /* documents served by the context; > 1
                                  * proves scratch reuse across calls     */
  long long heap_allocs;         /* arena heap-block fetches so far; flat
                                  * across documents after warmup         */
  char solver[32];               /* registry name of the solver that ran
                                  * ("fpt-deletion", "cubic", ...); ""
                                  * on the balanced fast path             */
  double certified_factor;       /* 1.0 = exact; > 1.0 = certified ratio
                                  * reported/optimal of an approximate
                                  * answer; 0.0 = uncertified (greedy)    */
  long long exact_lower_bound;   /* proven lower bound on the exact
                                  * distance backing the certificate; -1
                                  * when the answer is exact              */
  /* Incremental-repair counters (dyckfix_doc handles; all zero for the
   * one-shot entry points). Appended here so the struct only ever grows. */
  long long chunks_reused;       /* chunk summaries reused from the doc's
                                  * stage cache                           */
  long long chunks_recomputed;   /* chunk summaries recomputed (dirtied by
                                  * a splice, or all of them on a full
                                  * rebuild)                              */
  int incremental;               /* 1 when the repair was served from the
                                  * incrementally maintained cache, 0 on a
                                  * full (re)build                        */
  char simd_backend[8];          /* active vector-kernel backend for this
                                  * process: "scalar", "sse2", "avx2" or
                                  * "neon" (see the DYCKFIX_SIMD env var) */
  /* Content-hash repair-cache counters (appended; zero when no cache is
   * configured — see dyckfix_options.cache_bytes). */
  int cache_hit;                 /* 1 if this repair was answered from the
                                  * cache (solver stages skipped)         */
  int cache_miss;                /* 1 if a cache was consulted and missed */
  long long interned_chunks;     /* doc-handle repairs only: chunk
                                  * summaries shared with the process-wide
                                  * interner instead of recomputed        */
} dyckfix_telemetry;

/* Options for dyckfix_repair_opts / dyckfix_repair_batch_opts. Initialize
 * with dyckfix_options_init before setting fields, so code keeps working
 * when the struct grows. Timeouts use 0 = unlimited (the natural zero-
 * initialized default for C callers); negative values are invalid. */
typedef struct {
  int metric;              /* dyckfix_metric  */
  int style;               /* dyckfix_style   */
  long long max_distance;  /* fail with BOUND_EXCEEDED above this; 0 = off */
  long long timeout_ms;    /* per-document wall budget; 0 = unlimited      */
  long long max_work_steps;/* cooperative work-step cap; 0 = unlimited     */
  int degrade;             /* dyckfix_degrade policy on a tripped budget   */
  const char* algorithm;   /* NULL, "", or "auto" = cost-model planner;
                            * any solver registry name ("fpt-deletion",
                            * "cubic", "banded", ... — `dyckfix
                            * --list-algorithms` prints them) forces that
                            * solver. An unknown name fails with
                            * DYCKFIX_ERROR_INVALID_ARGUMENT and a
                            * dyckfix_last_error() naming it.             */
  double max_approx_factor;/* accuracy the planner may trade away: 0 (the
                            * zero-initialized default) or 1.0 = exact
                            * answers only; f > 1.0 admits approximate
                            * solvers certifying reported <= f * optimal
                            * (telemetry.certified_factor carries the
                            * realized ratio). Values in (0, 1.0), and
                            * NaN, are invalid.                           */
  long long cache_bytes;   /* byte budget of the process-wide content-hash
                            * repair cache; 0 (the zero-initialized
                            * default) = no caching. When > 0, repeated
                            * repairs of identical bracket sequences under
                            * identical repair-relevant options are served
                            * from the cache — results are byte-identical
                            * either way (telemetry.cache_hit reports
                            * which path answered). The cache is shared by
                            * every thread and only ever grows to the
                            * largest budget requested. Negative values
                            * are invalid.                                */
} dyckfix_options;

/* Fills `opts` with the defaults (deletions+substitutions, minimal style,
 * everything unlimited, DYCKFIX_DEGRADE_FAIL). NULL is a no-op. */
void dyckfix_options_init(dyckfix_options* opts);

/* 1 if the bracket structure of `text` is balanced, 0 otherwise
 * (including on NULL). */
int dyckfix_is_balanced(const char* text);

/* Distance from `text`'s bracket structure to the Dyck language.
 * Returns DYCKFIX_OK and writes *out_distance on success. */
int dyckfix_distance(const char* text, dyckfix_metric metric,
                     long long* out_distance);

/* Repairs `text`. On success *out_text points to a malloc'd
 * NUL-terminated copy with the edits applied — release it with
 * dyckfix_string_free — and *out_distance (if non-NULL) receives the edit
 * count. NUL bytes inside documents are not supported through this API. */
int dyckfix_repair(const char* text, dyckfix_metric metric,
                   dyckfix_style style, char** out_text,
                   long long* out_distance);

/* Frees a string returned by dyckfix_repair. NULL is a no-op. */
void dyckfix_string_free(char* text);

/* dyckfix_repair with explicit options. Semantics as dyckfix_repair plus:
 * a tripped budget fails with DYCKFIX_ERROR_DEADLINE_EXCEEDED /
 * DYCKFIX_ERROR_RESOURCE_EXHAUSTED under DYCKFIX_DEGRADE_FAIL, or returns
 * the greedy fallback under DYCKFIX_DEGRADE_GREEDY with *out_degraded
 * (if non-NULL) set to 1 — the distance is then an upper bound on the
 * exact one. Invalid option values (negative timeout / max_work_steps /
 * max_distance, unknown metric, style, or degrade) return
 * DYCKFIX_ERROR_INVALID_ARGUMENT with a specific dyckfix_last_error()
 * message. */
int dyckfix_repair_opts(const char* text, const dyckfix_options* opts,
                        char** out_text, long long* out_distance,
                        int* out_degraded);

/* Message describing the most recent error returned on the *calling*
 * thread by any dyckfix function; "" if the last call succeeded. Static
 * thread-local storage — valid until the next call on this thread; do not
 * free. */
const char* dyckfix_last_error(void);

/* Writes the pipeline telemetry of the most recent successful
 * dyckfix_repair call made on the *calling* thread. Returns DYCKFIX_OK,
 * DYCKFIX_ERROR_INVALID_ARGUMENT if out is NULL, or
 * DYCKFIX_ERROR_NO_TELEMETRY if no repair has completed on this thread.
 * Documents repaired by dyckfix_repair_batch run on worker threads and do
 * not update the calling thread's snapshot. */
int dyckfix_last_telemetry(dyckfix_telemetry* out);

/* Registry name of the solver behind the most recent successful repair on
 * the *calling* thread ("" if none ran: balanced input, or no repair yet).
 * Same storage rules as dyckfix_last_error. */
const char* dyckfix_last_solver(void);

/* Batch repair: repairs `count` documents across `jobs` worker threads
 * (0 = one per hardware thread, 1 = serial). Results are in input order
 * and identical to `count` dyckfix_repair calls. On DYCKFIX_OK the caller
 * owns three parallel arrays of length `count`:
 *
 *   *out_texts     repaired strings; NULL where the per-document code is
 *                  not DYCKFIX_OK
 *   *out_codes     per-document result codes
 *   *out_distances edit counts; -1 where the per-document code is not OK.
 *                  Pass out_distances == NULL to skip.
 *
 * A NULL texts[i] yields per-document DYCKFIX_ERROR_INVALID_ARGUMENT in
 * *out_codes without failing the batch. Release everything with
 * dyckfix_batch_free. With count == 0 the out-arrays are set to NULL and
 * DYCKFIX_OK is returned. Fails with DYCKFIX_ERROR_INVALID_ARGUMENT when
 * texts is NULL (and count > 0), out_texts or out_codes is NULL, or
 * jobs < 0. */
int dyckfix_repair_batch(const char* const* texts, size_t count,
                         dyckfix_metric metric, dyckfix_style style,
                         int jobs, char*** out_texts, int** out_codes,
                         long long** out_distances);

/* dyckfix_repair_batch with explicit per-document options plus a whole-
 * batch deadline. `batch_timeout_ms` (0 = unlimited) bounds the wall time
 * of the entire call: when it fires, documents not yet started return
 * DYCKFIX_ERROR_CANCELLED in their *out_codes slot without running,
 * in-flight documents are cancelled at their next solver checkpoint, and
 * documents that already finished keep their results. `out_degraded`
 * (optional; pass NULL to skip) receives a malloc'd array of 0/1 flags
 * marking documents answered by the greedy fallback; release it with a
 * second dyckfix_batch_free(NULL, degraded, NULL, 0) call. Option
 * validation is as dyckfix_repair_opts. */
int dyckfix_repair_batch_opts(const char* const* texts, size_t count,
                              const dyckfix_options* opts, int jobs,
                              long long batch_timeout_ms, char*** out_texts,
                              int** out_codes, long long** out_distances,
                              int** out_degraded);

/* Frees the arrays returned by dyckfix_repair_batch: each of the `count`
 * strings in `texts`, then the three arrays themselves. NULL arguments
 * are no-ops. */
void dyckfix_batch_free(char** texts, int* codes, long long* distances,
                        size_t count);

/* An explicit repair context: owns the scratch memory (arena + typed
 * pools) one document repair needs, plus the last-error / last-telemetry
 * state of calls made through it. Created once and reused, it performs
 * zero steady-state heap allocations of scratch per document. A context
 * is NOT thread-safe; use one per thread. */
typedef struct dyckfix_context dyckfix_context;

/* Creates a context. Returns NULL on allocation failure. */
dyckfix_context* dyckfix_context_create(void);

/* Destroys a context and all its scratch memory. NULL is a no-op. Strings
 * returned by dyckfix_context_repair are independently malloc'd and
 * survive the context. */
void dyckfix_context_free(dyckfix_context* ctx);

/* dyckfix_repair_opts drawing every piece of scratch memory from `ctx`
 * and recording errors/telemetry on it instead of the calling thread's
 * implicit context. `opts` may be NULL for the defaults
 * (dyckfix_options_init). Semantics otherwise identical to
 * dyckfix_repair_opts: results are byte-for-byte the same whether a
 * context is fresh or has served any number of prior documents. */
int dyckfix_context_repair(dyckfix_context* ctx, const char* text,
                           const dyckfix_options* opts, char** out_text,
                           long long* out_distance, int* out_degraded);

/* Message describing the most recent error of a call made through `ctx`;
 * "" if the last such call succeeded (or ctx is NULL). Valid until the
 * next call through the context; do not free. */
const char* dyckfix_context_last_error(const dyckfix_context* ctx);

/* Telemetry of the most recent successful repair through `ctx`. Returns
 * DYCKFIX_OK, DYCKFIX_ERROR_INVALID_ARGUMENT on NULL arguments, or
 * DYCKFIX_ERROR_NO_TELEMETRY if no repair has completed on the context. */
int dyckfix_context_telemetry(const dyckfix_context* ctx,
                              dyckfix_telemetry* out);

/* As dyckfix_last_solver, for repairs made through `ctx` ("" on NULL). */
const char* dyckfix_context_last_solver(const dyckfix_context* ctx);

/* A persistent, splice-updatable document handle for live-editing
 * workloads. Unlike the one-shot entry points, a doc keeps the pipeline's
 * analysis artifacts alive between repairs as a chunked cache, so an edit
 * followed by a repair costs work proportional to the edit, not to the
 * document (the repaired output itself is still O(n) to produce). Results
 * are byte-identical to dyckfix_repair_opts on the equivalent bracket
 * string for every options combination.
 *
 * The handle is token-level: only the bracket tokens of the creation text
 * are kept (non-bracket bytes are dropped — callers needing byte-faithful
 * output should use the one-shot string API). Splice positions count
 * bracket tokens, and the repaired output renders bracket tokens only.
 * A doc owns its own repair context and is NOT thread-safe. */
typedef struct dyckfix_doc dyckfix_doc;

/* Creates a doc holding the bracket tokens of `text` (NULL or "" for an
 * empty document). Returns NULL on allocation failure. */
dyckfix_doc* dyckfix_doc_create(const char* text);

/* Destroys a doc, its buffer, cache, and context. NULL is a no-op. */
void dyckfix_doc_free(dyckfix_doc* doc);

/* Number of bracket tokens currently in the doc (-1 on NULL). */
long long dyckfix_doc_size(const dyckfix_doc* doc);

/* Replaces tokens [pos, pos + erase_len) with the bracket tokens of
 * `insert_text` (NULL or "" = pure erase; non-bracket bytes are ignored).
 * Only the touched cache chunks are invalidated. Returns DYCKFIX_OK, or
 * DYCKFIX_ERROR_INVALID_ARGUMENT when doc is NULL or the range is out of
 * bounds (pos < 0, pos > size, or pos + erase_len > size). */
int dyckfix_doc_splice(dyckfix_doc* doc, long long pos, long long erase_len,
                       const char* insert_text);

/* Repairs the doc's current tokens, reusing every still-valid cached
 * chunk summary. `opts` may be NULL for the defaults. On success
 * *out_text receives a malloc'd rendering of the repaired bracket tokens
 * (release with dyckfix_string_free); *out_distance and *out_degraded are
 * optional. The doc's telemetry (dyckfix_doc_telemetry) records
 * chunks_reused / chunks_recomputed / incremental for the call. */
int dyckfix_doc_repair(dyckfix_doc* doc, const dyckfix_options* opts,
                       char** out_text, long long* out_distance,
                       int* out_degraded);

/* Telemetry of the most recent successful dyckfix_doc_repair. Returns
 * DYCKFIX_OK, DYCKFIX_ERROR_INVALID_ARGUMENT on NULL arguments, or
 * DYCKFIX_ERROR_NO_TELEMETRY if no repair has completed on the doc. */
int dyckfix_doc_telemetry(const dyckfix_doc* doc, dyckfix_telemetry* out);

/* Message of the most recent error of a call on `doc`; "" if the last
 * call succeeded (or doc is NULL). Valid until the next call on the doc;
 * do not free. */
const char* dyckfix_doc_last_error(const dyckfix_doc* doc);

/* ---------------------------------------------------------------------
 * Serving: an in-process dyckfix/1 server.
 *
 * The same engine behind the dyckfixd daemon, embeddable: feed raw
 * dyckfix/1 request bytes (see DESIGN.md section 5.13 for the grammar),
 * read back serialized responses. Admission control, the overload
 * degrade ladder, per-request deadlines, and per-request fault isolation
 * all apply exactly as in the daemon. Responses are buffered inside the
 * handle until collected with dyckfix_server_read_output.
 *
 * Thread contract: dyckfix_server_feed must be externally serialized
 * (one logical connection); drain/read_output/get_stats may be called
 * from any thread. */

typedef struct dyckfix_server dyckfix_server;

typedef struct {
  int workers;                  /* worker threads; 0 = hardware threads */
  long long max_queue_depth;    /* shed point; <= 0 = default (64)      */
  long long max_doc_bytes;      /* payload cap; <= 0 = default (1 MiB)  */
  long long default_timeout_ms; /* for requests without timeout_ms=;
                                 * < 0 = unlimited                      */
  long long cache_bytes;        /* server-owned content-hash repair cache
                                 * budget; <= 0 = no cache. Cached repair
                                 * requests are answered inline before
                                 * admission control, so hits stay
                                 * servable even at shed pressure      */
} dyckfix_server_options;

/* Fills `opts` with the defaults above (workers=0, queue=64, 1 MiB,
 * unlimited). Call before overriding individual fields. */
void dyckfix_server_options_init(dyckfix_server_options* opts);

/* Creates a server (and its worker pool). `opts` may be NULL for the
 * defaults. Returns NULL on NULL-allocation only. */
dyckfix_server* dyckfix_server_create(const dyckfix_server_options* opts);

/* Drains in-flight requests and releases the server. NULL is a no-op. */
void dyckfix_server_free(dyckfix_server* server);

/* Feeds `len` raw request bytes (any chunking; the server reassembles
 * frames). Returns 1 while the server is accepting, 0 once it is
 * shutting down (a shutdown verb was served), -1 on NULL arguments. */
int dyckfix_server_feed(dyckfix_server* server, const char* bytes,
                        size_t len);

/* Blocks until every admitted request has responded. */
void dyckfix_server_drain(dyckfix_server* server);

/* Takes ownership of all response bytes buffered since the last call:
 * returns a malloc'd NUL-terminated copy (release with
 * dyckfix_string_free) and clears the buffer. *out_len (optional)
 * receives the byte count — responses carry binary-safe payloads, so
 * prefer it over strlen. Returns NULL when no output is buffered. */
char* dyckfix_server_read_output(dyckfix_server* server, size_t* out_len);

/* Lifetime counters of the server (see ServerStats in the C++ API). */
typedef struct {
  long long requests_received;
  long long admitted;
  long long served_ok;
  long long shed_overloaded;
  long long protocol_errors;
  long long faulted;
  long long cancelled;
  long long degraded_pressure;
  long long queue_depth_high_water;
  long long bytes_in;
  long long bytes_out;
  /* Repair-cache counters (appended); all zero when the server was
   * created without a cache (dyckfix_server_options.cache_bytes <= 0). */
  long long cache_hits;
  long long cache_misses;
  long long cache_evictions;
} dyckfix_server_stats;

/* Snapshots the counters. Returns DYCKFIX_OK, or
 * DYCKFIX_ERROR_INVALID_ARGUMENT on NULL arguments. */
int dyckfix_server_get_stats(const dyckfix_server* server,
                             dyckfix_server_stats* out);

/* Library version, e.g. "1.0.0". Static storage; do not free. */
const char* dyckfix_version(void);

#ifdef __cplusplus
}
#endif

#endif /* DYCKFIX_INCLUDE_DYCKFIX_H_ */
