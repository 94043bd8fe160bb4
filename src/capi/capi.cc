#include "include/dyckfix.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <memory>
#include <mutex>

#include "src/core/context.h"
#include "src/core/doc.h"
#include "src/core/dyck.h"
#include "src/runtime/batch_engine.h"
#include "src/server/server.h"
#include "src/textio/bracket_tokenizer.h"
#include "src/textio/document_repair.h"

/* The context handle is a thin bag around the C++ RepairContext; explicit-
 * context entry points install it as the calling thread's ambient context
 * (RepairContextScope) so the whole repair stack — scratch, errors,
 * telemetry — routes to it with no further plumbing. */
struct dyckfix_context {
  dyck::RepairContext impl;
};

/* The doc handle wraps the C++ RepairDoc. Errors and telemetry route to
 * the doc's own RepairContext, so a doc behaves like an implicit
 * dyckfix_context scoped to its lifetime. */
struct dyckfix_doc {
  explicit dyckfix_doc(dyck::ParenSeq initial) : impl(std::move(initial)) {}
  dyck::RepairDoc impl;
};

/* The server handle bundles the C++ Server with one Session whose sink
 * appends to a mutex-guarded buffer; dyckfix_server_read_output drains
 * it. Members are ordered so the session (which references the server)
 * is destroyed first. */
struct dyckfix_server {
  explicit dyckfix_server(const dyck::server::ServerOptions& options)
      : impl(options),
        session(impl.OpenSession([this](std::string_view bytes) {
          std::lock_guard<std::mutex> lock(output_mu);
          output.append(bytes.data(), bytes.size());
        })) {}
  dyck::server::Server impl;
  std::mutex output_mu;
  std::string output;
  std::unique_ptr<dyck::server::Session> session;
};

namespace {

dyck::Options MakeOptions(dyckfix_metric metric, dyckfix_style style) {
  dyck::Options options;
  options.metric = metric == DYCKFIX_METRIC_DELETIONS
                       ? dyck::Metric::kDeletionsOnly
                       : dyck::Metric::kDeletionsAndSubstitutions;
  options.style = style == DYCKFIX_STYLE_PRESERVE
                      ? dyck::RepairStyle::kPreserveContent
                      : dyck::RepairStyle::kMinimalEdits;
  return options;
}

int CodeFor(const dyck::Status& status) {
  if (status.ok()) return DYCKFIX_OK;
  if (status.IsInvalidArgument()) return DYCKFIX_ERROR_INVALID_ARGUMENT;
  if (status.IsBoundExceeded()) return DYCKFIX_ERROR_BOUND_EXCEEDED;
  if (status.IsDeadlineExceeded()) return DYCKFIX_ERROR_DEADLINE_EXCEEDED;
  if (status.IsCancelled()) return DYCKFIX_ERROR_CANCELLED;
  if (status.IsResourceExhausted()) return DYCKFIX_ERROR_RESOURCE_EXHAUSTED;
  return DYCKFIX_ERROR_INTERNAL;
}

/* The per-call mutable state (last error, telemetry snapshot) lives on
 * the ambient RepairContext: the innermost installed one (explicit-
 * context calls) or the calling thread's lazily-created default. One
 * accessor instead of three thread_local globals. */
dyck::RepairContext& Ctx() { return dyck::RepairContext::CurrentThread(); }

int Fail(int code, std::string message) {
  Ctx().last_error() = std::move(message);
  return code;
}

int FailStatus(const dyck::Status& status) {
  return Fail(CodeFor(status), status.ToString());
}

/* Validates a dyckfix_options and converts it to dyck::Options. The C
 * surface uses 0 = unlimited for the numeric knobs (the zero-initialized
 * default); the C++ Options use -1. Returns DYCKFIX_OK or
 * DYCKFIX_ERROR_INVALID_ARGUMENT with a specific last_error message. */
int ConvertOptions(const dyckfix_options& opts, dyck::Options* out) {
  if (opts.metric != DYCKFIX_METRIC_DELETIONS &&
      opts.metric != DYCKFIX_METRIC_SUBSTITUTIONS) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "unknown metric " + std::to_string(opts.metric));
  }
  if (opts.style != DYCKFIX_STYLE_MINIMAL &&
      opts.style != DYCKFIX_STYLE_PRESERVE) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "unknown style " + std::to_string(opts.style));
  }
  if (opts.degrade != DYCKFIX_DEGRADE_FAIL &&
      opts.degrade != DYCKFIX_DEGRADE_GREEDY &&
      opts.degrade != DYCKFIX_DEGRADE_APPROX) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "unknown degrade mode " + std::to_string(opts.degrade));
  }
  if (opts.max_distance < 0) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "max_distance must be >= 0 (0 = unlimited), got " +
                    std::to_string(opts.max_distance));
  }
  if (opts.timeout_ms < 0) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "timeout_ms must be >= 0 (0 = unlimited), got " +
                    std::to_string(opts.timeout_ms));
  }
  if (opts.max_work_steps < 0) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "max_work_steps must be >= 0 (0 = unlimited), got " +
                    std::to_string(opts.max_work_steps));
  }
  /* Written as a negation so NaN, which fails every comparison, is
   * refused too. */
  if (!(opts.max_approx_factor == 0 || opts.max_approx_factor >= 1.0)) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "max_approx_factor must be 0 (exact) or >= 1.0, got " +
                    std::to_string(opts.max_approx_factor));
  }
  if (opts.cache_bytes < 0) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "cache_bytes must be >= 0 (0 = no caching), got " +
                    std::to_string(opts.cache_bytes));
  }
  *out = MakeOptions(static_cast<dyckfix_metric>(opts.metric),
                     static_cast<dyckfix_style>(opts.style));
  out->max_distance = opts.max_distance == 0 ? -1 : opts.max_distance;
  out->timeout_ms = opts.timeout_ms == 0 ? -1 : opts.timeout_ms;
  out->max_work_steps =
      opts.max_work_steps == 0 ? -1 : opts.max_work_steps;
  out->on_budget_exceeded = opts.degrade == DYCKFIX_DEGRADE_GREEDY
                                ? dyck::DegradePolicy::kGreedy
                            : opts.degrade == DYCKFIX_DEGRADE_APPROX
                                ? dyck::DegradePolicy::kApproximate
                                : dyck::DegradePolicy::kFail;
  /* 0 is the zero-initialized "exact answers only" default, same as 1.0. */
  out->max_approximation_factor =
      opts.max_approx_factor == 0 ? 1.0 : opts.max_approx_factor;
  out->cache_bytes = opts.cache_bytes;
  /* Any solver registry name, or "auto"; an unknown name fails in the
   * repair with an InvalidArgument that surfaces verbatim through
   * dyckfix_last_error. */
  if (opts.algorithm != nullptr) out->solver = opts.algorithm;
  return DYCKFIX_OK;
}

/* Shared per-document core of dyckfix_repair and the batch entry points.
 * `out_degraded` (optional) receives 1 when the greedy fallback answered. */
int RepairToString(const char* text, const dyck::Options& options,
                   std::string* out_text, long long* out_distance,
                   int* out_degraded = nullptr) {
  const dyck::textio::TokenizedDocument doc =
      dyck::textio::TokenizeBrackets(text, dyck::ParenAlphabet::Default());
  const auto result = dyck::textio::RepairDocument(
      text, doc,
      [](const dyck::Paren& p, const std::vector<std::string>&) {
        return dyck::textio::RenderBracketToken(p);
      },
      options);
  if (!result.ok()) return FailStatus(result.status());
  *out_text = result->repaired_text;
  *out_distance = static_cast<long long>(result->distance);
  if (out_degraded != nullptr) {
    *out_degraded = result->telemetry.degraded ? 1 : 0;
  }
  Ctx().set_last_telemetry(result->telemetry);
  return DYCKFIX_OK;
}

/* The dyckfix_algorithm value reported for a registry name. This table is
 * the only place solvers are grouped into families: the C enum predates
 * the registry and its values are ABI. Names it does not list (and "" on
 * the balanced fast path) report DYCKFIX_ALGORITHM_AUTO. */
dyckfix_algorithm AlgorithmOf(const std::string& solver_name) {
  static constexpr struct {
    const char* name;
    dyckfix_algorithm algorithm;
  } kFamilies[] = {
      {"fpt", DYCKFIX_ALGORITHM_FPT},
      {"fpt-deletion", DYCKFIX_ALGORITHM_FPT},
      {"fpt-substitution", DYCKFIX_ALGORITHM_FPT},
      {"cubic", DYCKFIX_ALGORITHM_CUBIC},
      {"branching", DYCKFIX_ALGORITHM_BRANCHING},
      {"banded", DYCKFIX_ALGORITHM_BANDED},
      {"greedy", DYCKFIX_ALGORITHM_GREEDY},
      {"approx", DYCKFIX_ALGORITHM_APPROX},
      {"approx-greedy", DYCKFIX_ALGORITHM_APPROX},
  };
  for (const auto& family : kFamilies) {
    if (solver_name == family.name) return family.algorithm;
  }
  return DYCKFIX_ALGORITHM_AUTO;
}

/* Converts a C++ telemetry record to the C struct. */
void FillTelemetry(const dyck::RepairTelemetry& t, dyckfix_telemetry* out) {
  const auto stage = [&t](dyck::PipelineStage s) {
    return t.stage_seconds[static_cast<int>(s)];
  };
  out->normalize_seconds = stage(dyck::PipelineStage::kNormalize);
  out->profile_reduce_seconds = stage(dyck::PipelineStage::kProfileReduce);
  out->select_seconds = stage(dyck::PipelineStage::kSelect);
  out->solve_seconds = stage(dyck::PipelineStage::kSolve);
  out->materialize_seconds = stage(dyck::PipelineStage::kMaterialize);
  out->doubling_iterations = t.doubling_iterations;
  out->solve_bound = t.solve_bound;
  out->input_length = t.input_length;
  out->reduced_length = t.reduced_length;
  out->seq_copies = t.seq_copies;
  out->algorithm = AlgorithmOf(t.solver_name);
  out->balanced_fast_path = t.balanced_fast_path ? 1 : 0;
  out->degraded = t.degraded ? 1 : 0;
  out->budget_steps = t.budget_steps;
  out->arena_high_water_bytes = t.arena_high_water_bytes;
  out->arena_resets = t.arena_resets;
  out->heap_allocs = t.heap_allocs;
  std::snprintf(out->solver, sizeof(out->solver), "%s",
                t.solver_name.c_str());
  out->certified_factor = t.certified_factor;
  out->exact_lower_bound = t.exact_lower_bound;
  out->chunks_reused = t.chunks_reused;
  out->chunks_recomputed = t.chunks_recomputed;
  out->incremental = t.incremental ? 1 : 0;
  std::snprintf(out->simd_backend, sizeof(out->simd_backend), "%s",
                t.simd_backend.c_str());
  out->cache_hit = t.cache_hit ? 1 : 0;
  out->cache_miss = t.cache_miss ? 1 : 0;
  out->interned_chunks = t.interned_chunks;
}

/* Bracket tokens of `text`; NULL and "" both mean an empty sequence. */
dyck::ParenSeq TokenizeToSeq(const char* text) {
  if (text == nullptr || text[0] == '\0') return {};
  return dyck::textio::TokenizeBrackets(text, dyck::ParenAlphabet::Default())
      .seq;
}

/* Shared body of dyckfix_last_solver / dyckfix_context_last_solver. */
const char* LastSolverOf(const dyck::RepairContext& ctx) {
  if (!ctx.has_last_telemetry()) return "";
  return ctx.last_telemetry().solver_name.c_str();
}

/* malloc'd NUL-terminated copy of `s`, or NULL on allocation failure. */
char* CopyToMalloc(const std::string& s) {
  char* copy = static_cast<char*>(std::malloc(s.size() + 1));
  if (copy == nullptr) return nullptr;
  std::memcpy(copy, s.data(), s.size());
  copy[s.size()] = '\0';
  return copy;
}

/* Shared core of dyckfix_repair_batch and dyckfix_repair_batch_opts. */
int RepairBatchCore(const char* const* texts, size_t count,
                    const dyck::Options& options, int jobs,
                    long long batch_timeout_ms, char*** out_texts,
                    int** out_codes, long long** out_distances,
                    int** out_degraded) {
  if (out_texts == nullptr || out_codes == nullptr || jobs < 0 ||
      (texts == nullptr && count > 0)) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "texts/out_texts/out_codes must be non-NULL and jobs >= 0");
  }
  if (batch_timeout_ms < 0) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "batch_timeout_ms must be >= 0 (0 = unlimited), got " +
                    std::to_string(batch_timeout_ms));
  }
  if (count == 0) {
    *out_texts = nullptr;
    *out_codes = nullptr;
    if (out_distances != nullptr) *out_distances = nullptr;
    if (out_degraded != nullptr) *out_degraded = nullptr;
    return DYCKFIX_OK;
  }

  std::vector<std::string> repaired(count);
  std::vector<int> codes(count, DYCKFIX_ERROR_CANCELLED);
  std::vector<long long> distances(count, -1);
  std::vector<int> degraded(count, 0);

  dyck::runtime::BatchOptions batch_options;
  batch_options.jobs = jobs;
  batch_options.batch_timeout_ms =
      batch_timeout_ms == 0 ? -1 : batch_timeout_ms;
  dyck::runtime::BatchRepairEngine engine(batch_options);

  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (batch_timeout_ms > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(batch_timeout_ms);
  }
  const dyck::BudgetLimits limits{options.timeout_ms,
                                  options.max_work_steps,
                                  options.max_memory_bytes};
  const bool budgeted = !limits.Unlimited() || deadline.has_value() ||
                        dyck::BudgetFaultInjectionArmed();
  dyck::CancelToken cancel;
  engine.ForEachWithDeadline(count, deadline, &cancel, [&](size_t i) {
    if (texts[i] == nullptr) {
      codes[i] = DYCKFIX_ERROR_INVALID_ARGUMENT;
      return;
    }
    long long distance = -1;
    if (budgeted) {
      // A document dequeued after the batch deadline is equivalent to one
      // dropped from the queue: the submitter's cancel may not have landed
      // yet, so check the deadline directly rather than racing the token.
      if (deadline.has_value() &&
          std::chrono::steady_clock::now() > *deadline) {
        codes[i] = DYCKFIX_ERROR_CANCELLED;
        return;
      }
      // Per-document budget merging the per-doc limits with the batch
      // deadline and cancellation; the dispatch checkpoint short-circuits
      // documents that reach a worker after the batch expired.
      dyck::Budget budget(limits, &cancel);
      if (deadline.has_value()) budget.CapDeadline(*deadline);
      const dyck::Status dispatch = budget.CheckNow("runtime.batch_dispatch");
      if (!dispatch.ok()) {
        codes[i] = CodeFor(dispatch);
        return;
      }
      dyck::BudgetScope scope(&budget);
      codes[i] = RepairToString(texts[i], options, &repaired[i], &distance,
                                &degraded[i]);
    } else {
      codes[i] = RepairToString(texts[i], options, &repaired[i], &distance,
                                &degraded[i]);
    }
    if (codes[i] == DYCKFIX_OK) distances[i] = distance;
  });

  char** text_array =
      static_cast<char**>(std::calloc(count, sizeof(char*)));
  int* code_array = static_cast<int*>(std::malloc(count * sizeof(int)));
  long long* distance_array =
      out_distances == nullptr
          ? nullptr
          : static_cast<long long*>(
                std::malloc(count * sizeof(long long)));
  int* degraded_array =
      out_degraded == nullptr
          ? nullptr
          : static_cast<int*>(std::malloc(count * sizeof(int)));
  bool failed = text_array == nullptr || code_array == nullptr ||
                (out_distances != nullptr && distance_array == nullptr) ||
                (out_degraded != nullptr && degraded_array == nullptr);
  for (size_t i = 0; !failed && i < count; ++i) {
    code_array[i] = codes[i];
    if (distance_array != nullptr) distance_array[i] = distances[i];
    if (degraded_array != nullptr) degraded_array[i] = degraded[i];
    if (codes[i] == DYCKFIX_OK) {
      text_array[i] = CopyToMalloc(repaired[i]);
      if (text_array[i] == nullptr) failed = true;
    }
  }
  if (failed) {
    dyckfix_batch_free(text_array, code_array, distance_array, count);
    std::free(degraded_array);
    return Fail(DYCKFIX_ERROR_INTERNAL, "out of memory");
  }
  *out_texts = text_array;
  *out_codes = code_array;
  if (out_distances != nullptr) *out_distances = distance_array;
  if (out_degraded != nullptr) *out_degraded = degraded_array;
  return DYCKFIX_OK;
}

}  // namespace

extern "C" {

int dyckfix_is_balanced(const char* text) {
  if (text == nullptr) return 0;
  const dyck::textio::TokenizedDocument doc =
      dyck::textio::TokenizeBrackets(text, dyck::ParenAlphabet::Default());
  return dyck::IsBalanced(doc.seq) ? 1 : 0;
}

int dyckfix_distance(const char* text, dyckfix_metric metric,
                     long long* out_distance) {
  if (text == nullptr || out_distance == nullptr) {
    return DYCKFIX_ERROR_INVALID_ARGUMENT;
  }
  const dyck::textio::TokenizedDocument doc =
      dyck::textio::TokenizeBrackets(text, dyck::ParenAlphabet::Default());
  const auto result =
      dyck::Distance(doc.seq, MakeOptions(metric, DYCKFIX_STYLE_MINIMAL));
  if (!result.ok()) return CodeFor(result.status());
  *out_distance = static_cast<long long>(*result);
  return DYCKFIX_OK;
}

int dyckfix_repair(const char* text, dyckfix_metric metric,
                   dyckfix_style style, char** out_text,
                   long long* out_distance) {
  Ctx().last_error().clear();
  if (text == nullptr || out_text == nullptr) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "text and out_text must be non-NULL");
  }
  std::string repaired;
  long long distance = 0;
  const int code =
      RepairToString(text, MakeOptions(metric, style), &repaired, &distance);
  if (code != DYCKFIX_OK) return code;
  char* copy = CopyToMalloc(repaired);
  if (copy == nullptr) return Fail(DYCKFIX_ERROR_INTERNAL, "out of memory");
  *out_text = copy;
  if (out_distance != nullptr) *out_distance = distance;
  return DYCKFIX_OK;
}

void dyckfix_string_free(char* text) { std::free(text); }

void dyckfix_options_init(dyckfix_options* opts) {
  if (opts == nullptr) return;
  opts->metric = DYCKFIX_METRIC_SUBSTITUTIONS;
  opts->style = DYCKFIX_STYLE_MINIMAL;
  opts->max_distance = 0;
  opts->timeout_ms = 0;
  opts->max_work_steps = 0;
  opts->degrade = DYCKFIX_DEGRADE_FAIL;
  opts->algorithm = nullptr;
  opts->max_approx_factor = 0; /* = exact answers only */
  opts->cache_bytes = 0;       /* = no caching */
}

int dyckfix_repair_opts(const char* text, const dyckfix_options* opts,
                        char** out_text, long long* out_distance,
                        int* out_degraded) {
  Ctx().last_error().clear();
  if (text == nullptr || opts == nullptr || out_text == nullptr) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "text, opts, and out_text must be non-NULL");
  }
  dyck::Options options;
  const int validation = ConvertOptions(*opts, &options);
  if (validation != DYCKFIX_OK) return validation;
  std::string repaired;
  long long distance = 0;
  int degraded = 0;
  const int code =
      RepairToString(text, options, &repaired, &distance, &degraded);
  if (code != DYCKFIX_OK) return code;
  char* copy = CopyToMalloc(repaired);
  if (copy == nullptr) return Fail(DYCKFIX_ERROR_INTERNAL, "out of memory");
  *out_text = copy;
  if (out_distance != nullptr) *out_distance = distance;
  if (out_degraded != nullptr) *out_degraded = degraded;
  return DYCKFIX_OK;
}

const char* dyckfix_last_error(void) { return Ctx().last_error().c_str(); }

int dyckfix_last_telemetry(dyckfix_telemetry* out) {
  if (out == nullptr) return DYCKFIX_ERROR_INVALID_ARGUMENT;
  if (!Ctx().has_last_telemetry()) return DYCKFIX_ERROR_NO_TELEMETRY;
  FillTelemetry(Ctx().last_telemetry(), out);
  return DYCKFIX_OK;
}

const char* dyckfix_last_solver(void) { return LastSolverOf(Ctx()); }

dyckfix_context* dyckfix_context_create(void) {
  return new (std::nothrow) dyckfix_context();
}

void dyckfix_context_free(dyckfix_context* ctx) { delete ctx; }

int dyckfix_context_repair(dyckfix_context* ctx, const char* text,
                           const dyckfix_options* opts, char** out_text,
                           long long* out_distance, int* out_degraded) {
  if (ctx == nullptr) return DYCKFIX_ERROR_INVALID_ARGUMENT;
  /* Route the whole call — scratch memory, errors, telemetry — to the
   * caller's context for its duration. */
  dyck::RepairContextScope scope(&ctx->impl);
  dyckfix_options defaults;
  if (opts == nullptr) {
    dyckfix_options_init(&defaults);
    opts = &defaults;
  }
  return dyckfix_repair_opts(text, opts, out_text, out_distance,
                             out_degraded);
}

const char* dyckfix_context_last_error(const dyckfix_context* ctx) {
  if (ctx == nullptr) return "";
  return ctx->impl.last_error().c_str();
}

int dyckfix_context_telemetry(const dyckfix_context* ctx,
                              dyckfix_telemetry* out) {
  if (ctx == nullptr || out == nullptr) {
    return DYCKFIX_ERROR_INVALID_ARGUMENT;
  }
  if (!ctx->impl.has_last_telemetry()) return DYCKFIX_ERROR_NO_TELEMETRY;
  FillTelemetry(ctx->impl.last_telemetry(), out);
  return DYCKFIX_OK;
}

const char* dyckfix_context_last_solver(const dyckfix_context* ctx) {
  if (ctx == nullptr) return "";
  return LastSolverOf(ctx->impl);
}

int dyckfix_repair_batch(const char* const* texts, size_t count,
                         dyckfix_metric metric, dyckfix_style style,
                         int jobs, char*** out_texts, int** out_codes,
                         long long** out_distances) {
  Ctx().last_error().clear();
  return RepairBatchCore(texts, count, MakeOptions(metric, style), jobs,
                         /*batch_timeout_ms=*/0, out_texts, out_codes,
                         out_distances, /*out_degraded=*/nullptr);
}

int dyckfix_repair_batch_opts(const char* const* texts, size_t count,
                              const dyckfix_options* opts, int jobs,
                              long long batch_timeout_ms, char*** out_texts,
                              int** out_codes, long long** out_distances,
                              int** out_degraded) {
  Ctx().last_error().clear();
  if (opts == nullptr) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT, "opts must be non-NULL");
  }
  dyck::Options options;
  const int validation = ConvertOptions(*opts, &options);
  if (validation != DYCKFIX_OK) return validation;
  return RepairBatchCore(texts, count, options, jobs, batch_timeout_ms,
                         out_texts, out_codes, out_distances, out_degraded);
}

void dyckfix_batch_free(char** texts, int* codes, long long* distances,
                        size_t count) {
  if (texts != nullptr) {
    for (size_t i = 0; i < count; ++i) std::free(texts[i]);
    std::free(texts);
  }
  std::free(codes);
  std::free(distances);
}

dyckfix_doc* dyckfix_doc_create(const char* text) {
  return new (std::nothrow) dyckfix_doc(TokenizeToSeq(text));
}

void dyckfix_doc_free(dyckfix_doc* doc) { delete doc; }

long long dyckfix_doc_size(const dyckfix_doc* doc) {
  if (doc == nullptr) return -1;
  return static_cast<long long>(doc->impl.size());
}

int dyckfix_doc_splice(dyckfix_doc* doc, long long pos, long long erase_len,
                       const char* insert_text) {
  if (doc == nullptr) return DYCKFIX_ERROR_INVALID_ARGUMENT;
  /* Route validation errors to the doc's own context. */
  dyck::RepairContextScope scope(&doc->impl.context());
  Ctx().last_error().clear();
  const long long size = static_cast<long long>(doc->impl.size());
  if (pos < 0 || pos > size || erase_len < 0 || erase_len > size - pos) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT,
                "splice range [" + std::to_string(pos) + ", " +
                    std::to_string(pos + erase_len) +
                    ") out of bounds for doc of " + std::to_string(size) +
                    " tokens");
  }
  const dyck::ParenSeq insert = TokenizeToSeq(insert_text);
  doc->impl.Splice(pos, erase_len, insert);
  return DYCKFIX_OK;
}

int dyckfix_doc_repair(dyckfix_doc* doc, const dyckfix_options* opts,
                       char** out_text, long long* out_distance,
                       int* out_degraded) {
  if (doc == nullptr) return DYCKFIX_ERROR_INVALID_ARGUMENT;
  dyck::RepairContextScope scope(&doc->impl.context());
  Ctx().last_error().clear();
  if (out_text == nullptr) {
    return Fail(DYCKFIX_ERROR_INVALID_ARGUMENT, "out_text must be non-NULL");
  }
  dyckfix_options defaults;
  if (opts == nullptr) {
    dyckfix_options_init(&defaults);
    opts = &defaults;
  }
  dyck::Options options;
  const int validation = ConvertOptions(*opts, &options);
  if (validation != DYCKFIX_OK) return validation;
  dyck::RepairResult result;
  const dyck::Status status = doc->impl.RepairInto(options, &result);
  if (!status.ok()) return FailStatus(status);
  std::string rendered;
  rendered.reserve(result.repaired.size());
  for (const dyck::Paren& p : result.repaired) {
    rendered += dyck::textio::RenderBracketToken(p);
  }
  char* copy = CopyToMalloc(rendered);
  if (copy == nullptr) return Fail(DYCKFIX_ERROR_INTERNAL, "out of memory");
  *out_text = copy;
  if (out_distance != nullptr) {
    *out_distance = static_cast<long long>(result.distance);
  }
  if (out_degraded != nullptr) {
    *out_degraded = result.telemetry.degraded ? 1 : 0;
  }
  doc->impl.context().set_last_telemetry(result.telemetry);
  return DYCKFIX_OK;
}

int dyckfix_doc_telemetry(const dyckfix_doc* doc, dyckfix_telemetry* out) {
  if (doc == nullptr || out == nullptr) {
    return DYCKFIX_ERROR_INVALID_ARGUMENT;
  }
  if (!doc->impl.context().has_last_telemetry()) {
    return DYCKFIX_ERROR_NO_TELEMETRY;
  }
  FillTelemetry(doc->impl.context().last_telemetry(), out);
  return DYCKFIX_OK;
}

const char* dyckfix_doc_last_error(const dyckfix_doc* doc) {
  if (doc == nullptr) return "";
  return doc->impl.context().last_error().c_str();
}

void dyckfix_server_options_init(dyckfix_server_options* opts) {
  if (opts == nullptr) return;
  opts->workers = 0;
  opts->max_queue_depth = 64;
  opts->max_doc_bytes = 1 << 20;
  opts->default_timeout_ms = -1;
  opts->cache_bytes = 0;
}

dyckfix_server* dyckfix_server_create(const dyckfix_server_options* opts) {
  dyck::server::ServerOptions options;
  if (opts != nullptr) {
    options.workers = opts->workers > 0 ? opts->workers : 0;
    if (opts->max_queue_depth > 0) {
      options.max_queue_depth = opts->max_queue_depth;
    }
    if (opts->max_doc_bytes > 0) options.max_doc_bytes = opts->max_doc_bytes;
    options.default_timeout_ms = opts->default_timeout_ms;
    if (opts->cache_bytes > 0) options.cache_bytes = opts->cache_bytes;
  }
  dyckfix_server* server = new (std::nothrow) dyckfix_server(options);
  return server;
}

void dyckfix_server_free(dyckfix_server* server) { delete server; }

int dyckfix_server_feed(dyckfix_server* server, const char* bytes,
                        size_t len) {
  if (server == nullptr || (bytes == nullptr && len > 0)) return -1;
  return server->session->Feed(std::string_view(bytes, len)) ? 1 : 0;
}

void dyckfix_server_drain(dyckfix_server* server) {
  if (server == nullptr) return;
  server->impl.Drain();
}

char* dyckfix_server_read_output(dyckfix_server* server, size_t* out_len) {
  if (out_len != nullptr) *out_len = 0;
  if (server == nullptr) return nullptr;
  std::string taken;
  {
    std::lock_guard<std::mutex> lock(server->output_mu);
    taken.swap(server->output);
  }
  if (taken.empty()) return nullptr;
  char* copy = CopyToMalloc(taken);
  if (copy != nullptr && out_len != nullptr) *out_len = taken.size();
  return copy;
}

int dyckfix_server_get_stats(const dyckfix_server* server,
                             dyckfix_server_stats* out) {
  if (server == nullptr || out == nullptr) {
    return DYCKFIX_ERROR_INVALID_ARGUMENT;
  }
  const dyck::ServerStats stats = server->impl.Stats();
  out->requests_received = stats.requests_received;
  out->admitted = stats.admitted;
  out->served_ok = stats.served_ok;
  out->shed_overloaded = stats.shed_overloaded;
  out->protocol_errors = stats.protocol_errors;
  out->faulted = stats.faulted;
  out->cancelled = stats.cancelled;
  out->degraded_pressure = stats.degraded_pressure;
  out->queue_depth_high_water = stats.queue_depth_high_water;
  out->bytes_in = stats.bytes_in;
  out->bytes_out = stats.bytes_out;
  out->cache_hits = stats.cache_hits;
  out->cache_misses = stats.cache_misses;
  out->cache_evictions = stats.cache_evictions;
  return DYCKFIX_OK;
}

const char* dyckfix_version(void) { return "1.0.0"; }

}  // extern "C"
