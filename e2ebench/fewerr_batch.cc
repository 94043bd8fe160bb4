// fewerr-batch: the nearly-correct offline corpus Theorem 26 targets,
// repaired through BatchRepairEngine with jobs = 2, no cache, deletion
// metric. Documents are unique, log-uniform in size (so p99 sits on no
// size class boundary) and carry 0 to 3 mixed corruptions.
//
// Timed phase: batches of about `batch_tokens` tokens are generated
// (untimed), repaired with RepairAll (timed), and checked against the
// branching oracle (untimed), until `seconds` of repair time are measured.
// The traced run repairs a fixed document set twice, once with RepairAll
// and once through ForEach + RepairInto with one root span per document,
// then replays Solve's layers on each document's Reduced.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "src/gen/workload.h"
#include "src/profile/reduce.h"
#include "src/runtime/batch_engine.h"

namespace e2e {
namespace {

using dyck::Options;
using dyck::ParenSeq;
using dyck::RepairResult;
using dyck::RepairTelemetry;
using dyck::StatusOr;

constexpr uint64_t kCorpusStream = 1;
constexpr uint64_t kWarmupStream = 2;

struct Corpus {
  int64_t min_log2 = 0;
  int64_t max_log2 = 0;
  int32_t types = 0;
  int64_t max_corruptions = 0;
  uint64_t seed = 0;

  struct Doc {
    uint64_t seed;
    int64_t length;
    int64_t corruptions;
  };

  // Sizes are drawn before contents so a batch's membership is known
  // before the (parallel) generation.
  Doc Draw(uint64_t stream, uint64_t index) const {
    Rng rng(SubSeed(seed, stream, index));
    const double log2_len =
        static_cast<double>(min_log2) +
        static_cast<double>(max_log2 - min_log2) * rng.Uniform();
    return {rng.Next(), static_cast<int64_t>(std::exp2(log2_len)) & ~int64_t{1},
            rng.Between(0, max_corruptions)};
  }

  ParenSeq Make(const Doc& doc) const {
    Rng rng(doc.seed);
    const ParenSeq base = dyck::gen::RandomBalanced(
        {.length = doc.length, .num_types = types}, rng.Next());
    return dyck::gen::Corrupt(base,
                              {.num_edits = doc.corruptions,
                               .kind = dyck::gen::CorruptionKind::kMixed,
                               .num_types = types},
                              rng.Next())
        .seq;
  }

  std::vector<ParenSeq> MakeAll(const std::vector<Doc>& docs) const {
    std::vector<ParenSeq> out(docs.size());
    ParallelFor(docs.size(), [&](size_t i) { out[i] = Make(docs[i]); });
    return out;
  }

  // Fixed, seed-independent sizes spread over the whole range, so setup
  // time does not depend on which sizes a seed happens to draw.
  std::vector<ParenSeq> Warmup(int64_t count) const {
    std::vector<Doc> docs;
    for (int64_t i = 0; i < count; ++i) {
      const double log2_len =
          static_cast<double>(min_log2) +
          static_cast<double>(max_log2 - min_log2) *
              (static_cast<double>(i) + 0.5) / static_cast<double>(count);
      docs.push_back({SubSeed(seed, kWarmupStream, i),
                      static_cast<int64_t>(std::exp2(log2_len)) & ~int64_t{1},
                      i % (max_corruptions + 1)});
    }
    return MakeAll(docs);
  }
};

// Streams the corpus in batches of about `batch_tokens` tokens.
class BatchSource {
 public:
  BatchSource(const Corpus& corpus, int64_t batch_tokens)
      : corpus_(corpus), batch_tokens_(batch_tokens) {}

  std::vector<ParenSeq> Next() {
    std::vector<Corpus::Doc> docs;
    int64_t tokens = 0;
    while (tokens < batch_tokens_) {
      docs.push_back(corpus_.Draw(kCorpusStream, next_++));
      tokens += docs.back().length;
    }
    return corpus_.MakeAll(docs);
  }

 private:
  const Corpus& corpus_;
  int64_t batch_tokens_;
  uint64_t next_ = 0;
};

// Checks every document's answer (untimed, in parallel); returns the
// number of failed (non-OK) documents. Wrong answers go to the report.
int64_t CheckResults(const std::vector<ParenSeq>& docs,
                     std::vector<StatusOr<RepairResult>>* results,
                     bool tamper, Report* report) {
  if (tamper) {
    for (auto& result : *results) {
      if (result.ok() && !result->repaired.empty()) {
        result->repaired[0].type ^= 1;
        break;
      }
    }
  }
  std::atomic<int64_t> failed{0};
  ParallelFor(docs.size(), [&](size_t i) {
    const StatusOr<RepairResult>& result = (*results)[i];
    if (!result.ok()) {
      failed.fetch_add(1);
      return;
    }
    const std::string wrong =
        CheckAnswer(docs[i], result->distance, result->script,
                    result->repaired, /*allow_substitutions=*/false);
    if (!wrong.empty()) report->Wrong("fewerr-batch doc: " + wrong);
  });
  return failed.load();
}

}  // namespace

void RunFewerrBatch(const RunConfig& config, Report* report) {
  const Params& p = config.params;
  Corpus corpus;
  corpus.min_log2 = p.Int("min_log2_tokens");
  corpus.max_log2 = p.Int("max_log2_tokens");
  corpus.types = static_cast<int32_t>(p.Int("types"));
  corpus.max_corruptions = p.Int("max_corruptions");
  corpus.seed = config.seed;
  const int jobs = static_cast<int>(p.Int("jobs"));
  const int64_t batch_tokens = p.Int("batch_tokens");
  const int64_t warmup_docs = p.Int("warmup_docs");
  const int64_t setup_repeats = p.Int("setup_repeats");
  const int64_t trace_docs = p.Int("trace_docs");
  p.CheckAllUsed();

  Options options;
  options.metric = dyck::Metric::kDeletionsOnly;

  // Setup: engine construction (pool threads, their contexts and arenas,
  // the solver registry and SIMD dispatch on first use) plus a warm-up
  // batch. Repeated; the median is reported and the last engine is kept.
  // The warm-up corpus is freed before the timed phase.
  std::unique_ptr<dyck::runtime::BatchRepairEngine> engine;
  std::vector<double> setups;
  {
    const std::vector<ParenSeq> warmup = corpus.Warmup(warmup_docs);
    for (int64_t r = 0; r < setup_repeats; ++r) {
      engine.reset();
      ReleaseFreedMemory();
      const Clock::time_point start = Clock::now();
      engine = std::make_unique<dyck::runtime::BatchRepairEngine>(
          dyck::runtime::BatchOptions{.jobs = jobs});
      dyck::runtime::BatchRepairOutcome out =
          engine->RepairAll(warmup, options);
      setups.push_back(SecondsBetween(start, Clock::now()));
      if (CheckResults(warmup, &out.results, false, report) > 0) {
        report->Wrong("fewerr-batch warm-up document failed");
      }
    }
  }

  BatchSource source(corpus, batch_tokens);
  report->NoteInputs(
      InputsFingerprint(BatchSource(corpus, batch_tokens).Next()));
  if (!config.trace) {
    double timed = 0;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<double> service_ms;
    bool tampered = false;
    while (timed < config.seconds) {
      const std::vector<ParenSeq> docs = source.Next();
      const Clock::time_point start = Clock::now();
      dyck::runtime::BatchRepairOutcome out = engine->RepairAll(docs, options);
      timed += SecondsBetween(start, Clock::now());
      failed += CheckResults(docs, &out.results, config.tamper && !tampered,
                             report);
      tampered = true;
      attempted += static_cast<int64_t>(docs.size());
      for (const auto& result : out.results) {
        if (result.ok()) {
          service_ms.push_back(result->telemetry.TotalSeconds() * 1e3);
        }
      }
    }
    EndToEnd figures;
    figures.peak_rss_mb = PeakRssMib();
    figures.ops_per_s = static_cast<double>(attempted) / timed;
    figures.latency_ms = std::move(service_ms);
    // A closed loop's highest sustainable rate is its throughput.
    figures.max_rate_rps = figures.ops_per_s;
    figures.setup_s = setups;
    figures.attempted = attempted;
    figures.failed = failed;
    ReportEndToEnd(figures, report);
    return;
  }

  // Traced run over a fixed document set, so counters repeat exactly.
  Tracer tracer;
  PipelineTotals totals;
  double untraced_wall = 0;
  double traced_wall = 0;
  double service_total = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  uint64_t op = 0;
  while (attempted < trace_docs) {
    const std::vector<ParenSeq> docs = source.Next();
    Clock::time_point start = Clock::now();
    dyck::runtime::BatchRepairOutcome plain = engine->RepairAll(docs, options);
    untraced_wall += SecondsBetween(start, Clock::now());
    for (const auto& result : plain.results) {
      if (result.ok()) service_total += result->telemetry.TotalSeconds();
    }

    std::vector<RepairResult> traced(docs.size());
    std::vector<dyck::Status> statuses(docs.size());
    const uint64_t first_op = op;
    start = Clock::now();
    engine->ForEach(docs.size(), [&](size_t i) {
      const int64_t begin = tracer.Now();
      statuses[i] = dyck::RepairInto(docs[i], options, nullptr, &traced[i]);
      const int64_t end = tracer.Now();
      tracer.Root(first_op + i, "batch.doc", begin, end);
      tracer.Stages(first_op + i, traced[i].telemetry, begin);
    });
    traced_wall += SecondsBetween(start, Clock::now());

    std::vector<StatusOr<RepairResult>> checked;
    for (size_t i = 0; i < docs.size(); ++i) {
      if (statuses[i].ok()) {
        checked.emplace_back(std::move(traced[i]));
      } else {
        checked.emplace_back(statuses[i]);
      }
    }
    failed += CheckResults(docs, &checked, false, report);
    for (size_t i = 0; i < docs.size(); ++i) {
      if (!checked[i].ok()) continue;
      const RepairTelemetry& t = checked[i]->telemetry;
      totals.Add(t);
      if (t.solver_name == "fpt-deletion" && t.solve_bound >= 0 &&
          !ReplaySolve(dyck::Reduce(docs[i]), /*allow_substitutions=*/false,
                       static_cast<int32_t>(t.solve_bound),
                       checked[i]->distance, first_op + i, &tracer)) {
        report->Wrong("fewerr-batch Solve replay disagrees with the answer");
      }
    }
    op += docs.size();
    attempted += static_cast<int64_t>(docs.size());
  }
  report->CountOps(attempted, failed);

  report->Metric("runtime.busy_share",
                 service_total / (static_cast<double>(jobs) * untraced_wall),
                 "fraction");
  totals.Report(tracer, report);
  // Root time of RepairInto that its stage times do not cover.
  report->Metric("trace.unattributed_share",
                 tracer.UnattributedShare(StageSpanNames()), "fraction");
  report->Metric("trace.overhead_share", traced_wall / untraced_wall - 1.0,
                 "fraction");
  if (!config.trace_out.empty()) tracer.Write(config.trace_out);
}

}  // namespace e2e
