// dyckfix: command-line structural repair for bracketed documents.
//
// Usage:
//   dyckfix [options] [file]        (stdin when no file is given)
//   dyckfix [options] --batch=<dir|file-list>   (batch report mode)
//
// Options:
//   --format=auto|parens|json|xml|latex|source   input interpretation
//   --metric=substitutions|deletions             allowed edits
//   --algorithm=NAME                             solver selection: auto
//                                                (cost-model planner) or
//                                                any registry name from
//                                                --list-algorithms
//   --max-approx=F                               let the planner trade
//                                                accuracy for speed: admit
//                                                solvers certifying
//                                                reported <= F * optimal
//                                                (F >= 1.0; default 1.0 =
//                                                exact answers only)
//   --list-algorithms                            print the solver registry
//                                                (name, metrics, exact/
//                                                approximate) and exit 0
//   --stats                                      print per-stage pipeline
//                                                telemetry to stderr (in
//                                                batch mode: aggregated
//                                                across all files)
//   --max-distance=N                             give up beyond N edits
//   --check                                      no output; exit status only
//   --quiet                                      repaired text only
//   --json                                       print the edit script as
//                                                JSON instead of text
//   --preserve                                   never delete content;
//                                                insert partners instead
//   --batch=PATH                                 repair every file of a
//                                                directory (or a file-list,
//                                                one path per line); prints
//                                                one line per file plus a
//                                                summary, modifies nothing
//   --replay=TRACE                               keystroke-replay mode: load
//                                                an edit trace (first content
//                                                line = initial bracket text,
//                                                then "splice POS ERASE
//                                                [INSERT]" lines, # comments
//                                                allowed) into a persistent
//                                                RepairDoc, repair after
//                                                every edit, and print one
//                                                line per edit with the
//                                                distance and cache-reuse
//                                                counters plus a summary
//   --jobs=N                                     batch worker threads
//                                                (0 = all hardware threads)
//   --timeout-ms=N                               per-document wall budget;
//                                                solvers are interrupted at
//                                                their next checkpoint
//   --batch-timeout-ms=N                         whole-batch wall budget;
//                                                unfinished files report
//                                                "cancelled"
//   --degrade=fail|greedy|approx                 on a tripped budget: fail
//                                                the document, return the
//                                                linear-time greedy repair
//                                                marked "(degraded)", or
//                                                the same fallback with an
//                                                accuracy certificate when
//                                                one can be proven (see
//                                                --stats factor=)
//   --cache-bytes=N                              content-hash repair cache
//                                                budget in bytes (0 = off,
//                                                the default); repeated
//                                                identical documents in a
//                                                batch or replay hit the
//                                                cache instead of re-running
//                                                the solver. Results are
//                                                byte-identical either way;
//                                                --stats adds a cache
//                                                hit=/miss=/evict= line
//                                                when the cache is on
//
// Exit status: 0 = already balanced, 1 = repaired (or --check found
// errors), 2 = usage/IO/parse failure. In batch mode: 0 = every file
// balanced, 1 = at least one file needed repair, 2 = any file errored.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/cache/repair_cache.h"
#include "src/core/doc.h"
#include "src/core/dyck.h"
#include "src/core/solver.h"
#include "src/server/wire.h"
#include "src/util/io.h"
#include "src/pipeline/telemetry.h"
#include "src/runtime/batch_engine.h"
#include "src/simd/simd.h"
#include "src/textio/bracket_tokenizer.h"
#include "src/textio/document_repair.h"
#include "src/textio/json_tokenizer.h"
#include "src/textio/latex_tokenizer.h"
#include "src/textio/source_tokenizer.h"
#include "src/textio/xml_tokenizer.h"

namespace {

enum class Format { kAuto, kParens, kJson, kXml, kLatex, kSource };

struct CliOptions {
  Format format = Format::kAuto;
  dyck::Options repair;
  bool check_only = false;
  bool quiet = false;
  bool json = false;
  bool stats = false;
  bool list_algorithms = false;
  int jobs = 1;
  long long batch_timeout_ms = -1;  // whole-batch deadline; -1 = unlimited
  std::string batch;   // empty = single-document mode
  std::string replay;  // empty = no keystroke-replay mode
  std::string path;    // empty = stdin
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dyckfix [--format=auto|parens|json|xml|latex|source]"
               " [--metric=substitutions|deletions]"
               " [--algorithm=NAME] [--list-algorithms] [--max-distance=N]"
               " [--max-approx=F]"
               " [--check] [--quiet] [--preserve] [--json] [--stats]"
               " [--timeout-ms=N] [--batch-timeout-ms=N]"
               " [--degrade=fail|greedy|approx] [--cache-bytes=N]"
               " [--batch=<dir|file-list>] [--replay=TRACE] [--jobs=N]"
               " [file]\n");
  return 2;
}

// --list-algorithms: one row per registry entry plus the planner pseudo-
// entry, so scripts can discover what --algorithm accepts.
int ListAlgorithms() {
  std::printf("%-18s %-26s %-12s %s\n", "NAME", "METRICS", "KIND",
              "DESCRIPTION");
  std::printf("%-18s %-26s %-12s %s\n", "auto", "all", "planner",
              "cost-model planner picks the cheapest admissible solver");
  for (const dyck::Solver* solver :
       dyck::SolverRegistry::Global().solvers()) {
    const dyck::SolverCaps& caps = solver->caps();
    const char* metrics = caps.deletions && caps.substitutions
                              ? "deletions+substitutions"
                          : caps.deletions ? "deletions"
                                           : "substitutions";
    // KIND names the accuracy contract: exact, a certified factor
    // ("<=2.0x" means reported <= 2 * optimal, proven per document), or
    // heuristic (no guarantee at all — greedy).
    char kind[16];
    if (caps.approximation_factor == 1.0) {
      std::snprintf(kind, sizeof(kind), "exact");
    } else if (std::isfinite(caps.approximation_factor)) {
      std::snprintf(kind, sizeof(kind), "<=%.1fx",
                    caps.approximation_factor);
    } else {
      std::snprintf(kind, sizeof(kind), "heuristic");
    }
    std::printf("%-18s %-26s %-12s%s\n", solver->name(), metrics, kind,
                caps.needs_reduced ? " (reduced input)" : "");
  }
  return 0;
}

// Reports a bad flag value and returns false so the caller can bail to
// Usage(). Keeps "why it failed" next to "what is accepted".
bool BadFlagValue(const char* flag, const std::string& value,
                  const char* expected) {
  std::fprintf(stderr, "dyckfix: unknown %s value '%s' (expected %s)\n",
               flag, value.c_str(), expected);
  return false;
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--format=")) {
      const std::string v = arg.substr(9);
      if (v == "auto") {
        opts->format = Format::kAuto;
      } else if (v == "parens") {
        opts->format = Format::kParens;
      } else if (v == "json") {
        opts->format = Format::kJson;
      } else if (v == "xml" || v == "html") {
        opts->format = Format::kXml;
      } else if (v == "latex" || v == "tex") {
        opts->format = Format::kLatex;
      } else if (v == "source") {
        opts->format = Format::kSource;
      } else {
        return BadFlagValue("--format", v,
                            "auto|parens|json|xml|latex|source");
      }
    } else if (StartsWith(arg, "--metric=")) {
      const std::string v = arg.substr(9);
      if (v == "substitutions") {
        opts->repair.metric = dyck::Metric::kDeletionsAndSubstitutions;
      } else if (v == "deletions") {
        opts->repair.metric = dyck::Metric::kDeletionsOnly;
      } else {
        return BadFlagValue("--metric", v, "substitutions|deletions");
      }
    } else if (StartsWith(arg, "--algorithm=")) {
      // Passed through; main() validates it once the metric is known.
      opts->repair.solver = arg.substr(12);
    } else if (arg == "--list-algorithms") {
      opts->list_algorithms = true;
    } else if (StartsWith(arg, "--max-distance=")) {
      opts->repair.max_distance = std::atoll(arg.c_str() + 15);
    } else if (StartsWith(arg, "--max-approx=")) {
      const std::string v = arg.substr(13);
      const double f = std::atof(v.c_str());
      if (!(f >= 1.0)) {
        return BadFlagValue("--max-approx", v, "a factor >= 1.0");
      }
      opts->repair.max_approximation_factor = f;
    } else if (StartsWith(arg, "--timeout-ms=")) {
      const std::string v = arg.substr(13);
      const long long ms = std::atoll(v.c_str());
      if (ms <= 0) {
        return BadFlagValue("--timeout-ms", v,
                            "a positive integer (milliseconds)");
      }
      opts->repair.timeout_ms = ms;
    } else if (StartsWith(arg, "--batch-timeout-ms=")) {
      const std::string v = arg.substr(19);
      const long long ms = std::atoll(v.c_str());
      if (ms <= 0) {
        return BadFlagValue("--batch-timeout-ms", v,
                            "a positive integer (milliseconds)");
      }
      opts->batch_timeout_ms = ms;
    } else if (StartsWith(arg, "--degrade=")) {
      const std::string v = arg.substr(10);
      if (v == "fail") {
        opts->repair.on_budget_exceeded = dyck::DegradePolicy::kFail;
      } else if (v == "greedy") {
        opts->repair.on_budget_exceeded = dyck::DegradePolicy::kGreedy;
      } else if (v == "approx") {
        opts->repair.on_budget_exceeded = dyck::DegradePolicy::kApproximate;
      } else {
        return BadFlagValue("--degrade", v, "fail|greedy|approx");
      }
    } else if (StartsWith(arg, "--cache-bytes=")) {
      const std::string v = arg.substr(14);
      const long long bytes = std::atoll(v.c_str());
      if (bytes < 0) {
        return BadFlagValue("--cache-bytes", v,
                            "a byte budget >= 0 (0 disables the cache)");
      }
      opts->repair.cache_bytes = bytes;
    } else if (StartsWith(arg, "--jobs=")) {
      opts->jobs = std::atoi(arg.c_str() + 7);
      if (opts->jobs < 0) return false;
    } else if (StartsWith(arg, "--batch=")) {
      opts->batch = arg.substr(8);
      if (opts->batch.empty()) return false;
    } else if (arg == "--batch") {
      if (i + 1 >= argc) return false;
      opts->batch = argv[++i];
    } else if (StartsWith(arg, "--replay=")) {
      opts->replay = arg.substr(9);
      if (opts->replay.empty()) return false;
    } else if (arg == "--check") {
      opts->check_only = true;
    } else if (arg == "--quiet") {
      opts->quiet = true;
    } else if (arg == "--json") {
      opts->json = true;
    } else if (arg == "--stats") {
      opts->stats = true;
    } else if (arg == "--preserve") {
      opts->repair.style = dyck::RepairStyle::kPreserveContent;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "dyckfix: unknown option '%s'\n", arg.c_str());
      return false;
    } else if (opts->path.empty()) {
      opts->path = arg;
    } else {
      return false;
    }
  }
  return true;
}

// --stats companion line for the content-hash repair cache: printed only
// when a cache is active (--cache-bytes > 0), so cache-off runs keep their
// exact historical stats output. All CLI modes share the process-wide
// cache, so these are the totals for this invocation.
void MaybePrintCacheStats(const CliOptions& opts) {
  if (!opts.stats || opts.repair.cache_bytes <= 0) return;
  const dyck::cache::RepairCacheStats cache_stats =
      dyck::cache::RepairCache::Shared(opts.repair.cache_bytes)->Stats();
  std::fprintf(stderr,
               "dyckfix: stats: cache hit=%lld miss=%lld evict=%lld"
               " entries=%lld bytes=%lld\n",
               static_cast<long long>(cache_stats.hits),
               static_cast<long long>(cache_stats.misses),
               static_cast<long long>(cache_stats.evictions),
               static_cast<long long>(cache_stats.entries),
               static_cast<long long>(cache_stats.bytes));
}

Format DetectFormat(const std::string& path) {
  if (EndsWith(path, ".json")) return Format::kJson;
  if (EndsWith(path, ".xml") || EndsWith(path, ".html") ||
      EndsWith(path, ".htm")) {
    return Format::kXml;
  }
  if (EndsWith(path, ".tex")) return Format::kLatex;
  for (const char* ext : {".c", ".cc", ".cpp", ".h", ".hpp", ".java",
                          ".js", ".ts", ".rs", ".go"}) {
    if (EndsWith(path, ext)) return Format::kSource;
  }
  return Format::kParens;
}

struct TokenizedInput {
  dyck::textio::TokenizedDocument doc;
  dyck::textio::TokenRenderer renderer;
};

// Tokenizes per format; kParens repairs raw bracket text directly.
dyck::StatusOr<TokenizedInput> TokenizeFor(Format format,
                                           const std::string& text) {
  TokenizedInput out;
  switch (format) {
    case Format::kJson: {
      DYCK_ASSIGN_OR_RETURN(out.doc, dyck::textio::TokenizeJson(text, {}));
      out.renderer = [](const dyck::Paren& p,
                        const std::vector<std::string>&) {
        return dyck::textio::RenderJsonToken(p);
      };
      break;
    }
    case Format::kXml: {
      DYCK_ASSIGN_OR_RETURN(out.doc, dyck::textio::TokenizeXml(text, {}));
      out.renderer = dyck::textio::RenderXmlToken;
      break;
    }
    case Format::kLatex: {
      DYCK_ASSIGN_OR_RETURN(out.doc, dyck::textio::TokenizeLatex(text, {}));
      out.renderer = dyck::textio::RenderLatexToken;
      break;
    }
    case Format::kSource: {
      DYCK_ASSIGN_OR_RETURN(out.doc, dyck::textio::TokenizeSource(text, {}));
      out.renderer = [](const dyck::Paren& p,
                        const std::vector<std::string>&) {
        return dyck::textio::RenderSourceToken(p);
      };
      break;
    }
    case Format::kParens:
    case Format::kAuto: {
      // Bracket characters only; everything else passes through untouched.
      out.doc = dyck::textio::TokenizeBrackets(
          text, dyck::ParenAlphabet::Default());
      out.renderer = [](const dyck::Paren& p,
                        const std::vector<std::string>&) {
        return dyck::textio::RenderBracketToken(p);
      };
      break;
    }
  }
  return out;
}

// EINTR-safe whole-file load (util/io.h), so a signal landing mid-batch
// cannot truncate an input. The Status message carries path and errno.
dyck::Status ReadFileToString(const std::string& path, std::string* out) {
  DYCK_ASSIGN_OR_RETURN(*out, dyck::util::ReadFileToString(path));
  return dyck::Status::OK();
}

// ---------------------------------------------------------------------------
// Batch mode: repair every listed file in parallel, report one line each.

enum class FileKind { kBalanced, kRepaired, kError, kCancelled };

struct FileOutcome {
  FileKind kind = FileKind::kError;
  long long edits = 0;
  std::string line;
  // Pipeline telemetry of the repair; only meaningful when has_telemetry.
  // Workers fill this in; the main thread aggregates after ForEach joins,
  // so no synchronization is needed.
  bool has_telemetry = false;
  dyck::RepairTelemetry telemetry;
};

dyck::StatusOr<std::vector<std::string>> CollectBatchPaths(
    const std::string& batch) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  if (fs::is_directory(batch, ec)) {
    for (const auto& entry : fs::directory_iterator(batch, ec)) {
      if (entry.is_regular_file()) paths.push_back(entry.path().string());
    }
    if (ec) {
      return dyck::Status::InvalidArgument("cannot list directory " + batch);
    }
    std::sort(paths.begin(), paths.end());
    return paths;
  }
  // Not a directory: a file-list, one path per line.
  std::ifstream in(batch);
  if (!in) {
    return dyck::Status::InvalidArgument("cannot open batch list " + batch);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) paths.push_back(line);
  }
  return paths;
}

FileOutcome ProcessBatchFile(const std::string& path,
                             const CliOptions& opts) {
  FileOutcome out;
  std::string text;
  if (const dyck::Status read = ReadFileToString(path, &text); !read.ok()) {
    out.line = path + ": error: " + read.message();
    return out;
  }
  const Format format =
      opts.format == Format::kAuto ? DetectFormat(path) : opts.format;
  auto tokenized = TokenizeFor(format, text);
  if (!tokenized.ok()) {
    out.line = path + ": error: " + tokenized.status().ToString();
    return out;
  }
  if (dyck::IsBalanced(tokenized->doc.seq)) {
    out.kind = FileKind::kBalanced;
    out.line = path + ": balanced";
    return out;
  }
  if (opts.check_only) {
    out.kind = FileKind::kRepaired;  // counted as "needs repair"
    out.line = path + ": NOT balanced";
    return out;
  }
  const auto result = dyck::textio::RepairDocument(
      text, tokenized->doc, tokenized->renderer, opts.repair);
  if (!result.ok()) {
    if (result.status().IsCancelled()) {
      out.kind = FileKind::kCancelled;
      out.line = path + ": cancelled (batch deadline)";
    } else {
      out.line = path + ": error: " + result.status().ToString();
    }
    return out;
  }
  out.kind = FileKind::kRepaired;
  out.edits = result->distance;
  out.has_telemetry = true;
  out.telemetry = result->telemetry;
  out.line = path + ": repaired distance=" +
             std::to_string(static_cast<long long>(result->distance));
  if (result->telemetry.degraded) out.line += " (degraded)";
  return out;
}

int RunBatch(const CliOptions& opts) {
  auto paths = CollectBatchPaths(opts.batch);
  if (!paths.ok()) {
    std::fprintf(stderr, "dyckfix: %s\n", paths.status().ToString().c_str());
    return 2;
  }
  const size_t count = paths->size();
  std::vector<FileOutcome> outcomes(count);

  dyck::runtime::BatchRepairEngine engine({.jobs = opts.jobs});

  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (opts.batch_timeout_ms >= 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(opts.batch_timeout_ms);
  }
  const dyck::BudgetLimits limits{opts.repair.timeout_ms,
                                  opts.repair.max_work_steps,
                                  opts.repair.max_memory_bytes};
  const bool budgeted = !limits.Unlimited() || deadline.has_value() ||
                        dyck::BudgetFaultInjectionArmed();
  dyck::CancelToken cancel;
  const auto fe =
      engine.ForEachWithDeadline(count, deadline, &cancel, [&](size_t i) {
        if (!budgeted) {
          outcomes[i] = ProcessBatchFile((*paths)[i], opts);
          return;
        }
        // Per-file budget merging --timeout-ms with --batch-timeout-ms and
        // the batch cancel token; pipeline::Run picks it up by scope.
        dyck::Budget budget(limits, &cancel);
        if (deadline.has_value()) budget.CapDeadline(*deadline);
        if (!budget.CheckNow("runtime.batch_dispatch").ok()) {
          outcomes[i].kind = FileKind::kCancelled;
          outcomes[i].line = (*paths)[i] + ": cancelled (batch deadline)";
          return;
        }
        dyck::BudgetScope scope(&budget);
        outcomes[i] = ProcessBatchFile((*paths)[i], opts);
      });
  const double wall = fe.wall_seconds;

  long long balanced = 0, repaired = 0, errors = 0, cancelled = 0,
            degraded = 0, edits = 0;
  dyck::TelemetryAggregate aggregate;
  for (size_t i = 0; i < count; ++i) {
    FileOutcome& outcome = outcomes[i];
    if (outcome.line.empty()) {
      // Dropped from the queue before its task ever ran.
      outcome.kind = FileKind::kCancelled;
      outcome.line = (*paths)[i] + ": cancelled (batch deadline)";
    }
    std::printf("%s\n", outcome.line.c_str());
    if (outcome.has_telemetry) {
      aggregate.Add(outcome.telemetry);
      if (outcome.telemetry.degraded) ++degraded;
    }
    switch (outcome.kind) {
      case FileKind::kBalanced:
        ++balanced;
        break;
      case FileKind::kRepaired:
        ++repaired;
        edits += outcome.edits;
        break;
      case FileKind::kError:
        ++errors;
        break;
      case FileKind::kCancelled:
        ++cancelled;
        break;
    }
  }
  const double docs_per_sec =
      wall > 0 ? static_cast<double>(count) / wall : 0.0;
  std::printf(
      "summary: files=%zu balanced=%lld repaired=%lld errors=%lld"
      " cancelled=%lld degraded=%lld edits=%lld jobs=%d wall=%.3fs"
      " docs_per_sec=%.0f\n",
      count, balanced, repaired, errors, cancelled, degraded, edits,
      engine.jobs(), wall, docs_per_sec);
  if (opts.stats) {
    std::fprintf(stderr, "dyckfix: stats: %s\n",
                 aggregate.ToString().c_str());
  }
  MaybePrintCacheStats(opts);
  if (errors > 0 || cancelled > 0) return 2;
  return repaired > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// Replay mode: feed an edit trace through a persistent RepairDoc, repairing
// after every edit — the live-editor workload the incremental cache exists
// for. One report line per edit shows the distance and how much of the
// chunked stage cache survived the edit.

// One parsed "splice POS ERASE [INSERT]" line.
struct ReplayEdit {
  long long pos = 0;
  long long erase_len = 0;
  std::string insert_text;
};

struct ReplayTrace {
  std::string initial_text;
  std::vector<ReplayEdit> edits;
};

// Trace format: '#' comments and blank lines are skipped; the first content
// line is the initial bracket text (an empty initial document is a line of
// non-bracket characters, e.g. "."), every following line a splice. The
// tokenizer and the "POS ERASE [INSERT]" grammar are shared with the
// serving daemon's splice verb (src/server/wire.h), so a replayable trace
// line and a wire splice argument list can never drift apart. Malformed
// lines fail with a line-numbered InvalidArgument.
dyck::Status ParseReplayTrace(const std::string& text, ReplayTrace* out) {
  std::istringstream in(text);
  std::string line;
  bool have_initial = false;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    if (!have_initial) {
      out->initial_text = line;
      have_initial = true;
      continue;
    }
    dyck::server::LineScanner scanner(line);
    std::string_view op;
    if (!scanner.NextToken(&op) || op != "splice") {
      return dyck::Status::InvalidArgument(
          "line " + std::to_string(lineno) +
          ": expected 'splice POS ERASE [INSERT]', got '" + line + "'");
    }
    dyck::server::SpliceArgs args;
    if (const dyck::Status parsed =
            dyck::server::ParseSpliceArgs(scanner.Rest(), &args);
        !parsed.ok()) {
      return dyck::Status::InvalidArgument(
          "line " + std::to_string(lineno) + ": " + parsed.message());
    }
    ReplayEdit edit;
    edit.pos = args.pos;
    edit.erase_len = args.erase_len;
    edit.insert_text = std::move(args.insert_text);
    out->edits.push_back(std::move(edit));
  }
  if (!have_initial) {
    return dyck::Status::InvalidArgument("trace has no content lines");
  }
  return dyck::Status::OK();
}

int RunReplay(const CliOptions& opts) {
  std::string trace_text;
  if (const dyck::Status read = ReadFileToString(opts.replay, &trace_text);
      !read.ok()) {
    std::fprintf(stderr, "dyckfix: %s\n", read.message().c_str());
    return 2;
  }
  ReplayTrace trace;
  if (const dyck::Status parsed = ParseReplayTrace(trace_text, &trace);
      !parsed.ok()) {
    std::fprintf(stderr, "dyckfix: %s: %s\n", opts.replay.c_str(),
                 parsed.message().c_str());
    return 2;
  }

  dyck::RepairDoc doc(dyck::textio::TokenizeBrackets(
                          trace.initial_text, dyck::ParenAlphabet::Default())
                          .seq);
  dyck::RepairResult result;
  dyck::TelemetryAggregate aggregate;
  long long last_distance = 0;

  const auto repair_and_report = [&](size_t edit_index) -> bool {
    const dyck::Status status = doc.RepairInto(opts.repair, &result);
    if (!status.ok()) {
      std::fprintf(stderr, "dyckfix: edit %zu: %s\n", edit_index,
                   status.ToString().c_str());
      return false;
    }
    const dyck::RepairTelemetry& t = result.telemetry;
    aggregate.Add(t);
    last_distance = static_cast<long long>(result.distance);
    if (!opts.quiet) {
      std::printf(
          "edit %zu: tokens=%lld distance=%lld incremental=%d"
          " chunks=%lldr/%lldc%s\n",
          edit_index, static_cast<long long>(doc.size()), last_distance,
          t.incremental ? 1 : 0, static_cast<long long>(t.chunks_reused),
          static_cast<long long>(t.chunks_recomputed),
          t.degraded ? " (degraded)" : "");
    }
    return true;
  };

  const auto start = std::chrono::steady_clock::now();
  if (!repair_and_report(0)) return 2;
  for (size_t i = 0; i < trace.edits.size(); ++i) {
    const ReplayEdit& edit = trace.edits[i];
    if (edit.pos > doc.size() || edit.erase_len > doc.size() - edit.pos) {
      std::fprintf(stderr,
                   "dyckfix: edit %zu: splice [%lld, %lld) out of bounds"
                   " for %lld tokens\n",
                   i + 1, edit.pos, edit.pos + edit.erase_len,
                   static_cast<long long>(doc.size()));
      return 2;
    }
    doc.Splice(edit.pos, edit.erase_len,
               dyck::textio::TokenizeBrackets(edit.insert_text,
                                              dyck::ParenAlphabet::Default())
                   .seq);
    if (!repair_and_report(i + 1)) return 2;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf(
      "summary: edits=%zu tokens=%lld distance=%lld incremental=%lld/%zu"
      " chunks=%lldr/%lldc wall=%.3fs\n",
      trace.edits.size(), static_cast<long long>(doc.size()), last_distance,
      static_cast<long long>(aggregate.incremental_documents),
      trace.edits.size() + 1, static_cast<long long>(aggregate.chunks_reused),
      static_cast<long long>(aggregate.chunks_recomputed), wall);
  if (opts.stats) {
    std::fprintf(stderr, "dyckfix: stats: %s\n",
                 aggregate.ToString().c_str());
  }
  MaybePrintCacheStats(opts);
  return last_distance > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Diagnose a bad DYCKFIX_SIMD override up front; a typo must fail
  // loudly, not silently fall back to the scalar kernels.
  if (std::string env_error; !dyck::simd::CheckEnv(&env_error)) {
    std::fprintf(stderr, "dyckfix: %s\n", env_error.c_str());
    return 2;
  }
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return Usage();
  if (opts.list_algorithms) return ListAlgorithms();
  // The resolver Repair itself runs, applied up front: a balanced input
  // never reaches Repair, and a bad name should fail every mode alike.
  if (const auto solver = dyck::ResolveSolver(opts.repair); !solver.ok()) {
    std::fprintf(stderr, "dyckfix: %s (see --list-algorithms)\n",
                 solver.status().message().c_str());
    return 2;
  }
  if (!opts.batch.empty() && !opts.replay.empty()) return Usage();
  if (!opts.replay.empty()) {
    if (!opts.path.empty()) return Usage();  // the trace IS the input
    return RunReplay(opts);
  }
  if (!opts.batch.empty()) {
    if (!opts.path.empty()) return Usage();  // batch and file are exclusive
    return RunBatch(opts);
  }

  std::string text;
  if (opts.path.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else if (const dyck::Status read = ReadFileToString(opts.path, &text);
             !read.ok()) {
    std::fprintf(stderr, "dyckfix: %s\n", read.message().c_str());
    return 2;
  }

  Format format = opts.format;
  if (format == Format::kAuto) format = DetectFormat(opts.path);

  auto tokenized = TokenizeFor(format, text);
  if (!tokenized.ok()) {
    std::fprintf(stderr, "dyckfix: %s\n",
                 tokenized.status().ToString().c_str());
    return 2;
  }
  const dyck::textio::TokenizedDocument& doc = tokenized->doc;

  if (dyck::IsBalanced(doc.seq)) {
    if (!opts.check_only && !opts.quiet) {
      std::fprintf(stderr, "dyckfix: %zu token(s), already balanced\n",
                   doc.seq.size());
    }
    if (opts.stats) {
      // The balanced pre-check skips RepairDocument, so run the pipeline
      // once just to report its stage breakdown (distance is 0 either way).
      const auto r = dyck::Repair(doc.seq, opts.repair);
      if (r.ok()) {
        std::fprintf(stderr, "dyckfix: stats: %s\n",
                     r->telemetry.ToString().c_str());
      }
      MaybePrintCacheStats(opts);
    }
    if (opts.json) {
      std::printf("%s\n", dyck::EditScript{}.ToJson().c_str());
    } else if (!opts.check_only) {
      std::fwrite(text.data(), 1, text.size(), stdout);
    }
    return 0;
  }
  if (opts.check_only) {
    std::fprintf(stderr, "dyckfix: structure is NOT balanced\n");
    return 1;
  }

  auto result = dyck::textio::RepairDocument(text, doc, tokenized->renderer,
                                             opts.repair);
  if (!result.ok()) {
    std::fprintf(stderr, "dyckfix: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  if (!opts.quiet) {
    std::fprintf(stderr, "dyckfix: repaired with %lld edit(s)%s: %s\n",
                 static_cast<long long>(result->distance),
                 result->telemetry.degraded ? " (degraded)" : "",
                 result->script.ToString().c_str());
  }
  if (opts.stats) {
    std::fprintf(stderr, "dyckfix: stats: %s\n",
                 result->telemetry.ToString().c_str());
  }
  MaybePrintCacheStats(opts);
  if (opts.json) {
    std::printf("%s\n", result->script.ToJson().c_str());
  } else {
    std::fwrite(result->repaired_text.data(), 1,
                result->repaired_text.size(), stdout);
  }
  return 1;
}
