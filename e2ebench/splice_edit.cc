// splice-edit: the interactive path. One RepairDoc at a time over a
// 2^16-token document at deletion distance 3, deletion metric, and an explicit
// cache::RepairCache passed through Options::cache (how dyckfixd
// --cache-bytes treats doc repairs), sized so whole-document entries fit
// a shard. A single thread replays a seeded typing trace: a local cursor
// walk, brackets typed as pairs (open, then its close), and about 10%
// backspaces, each undoing the keystroke before it. One op is Splice +
// RepairInto. The timed phase is cut into sessions of a fixed number of
// keystrokes, each on a freshly set-up editor over one of a small pool of
// seeded documents, so the document does not grow through the run and a
// run's cost does not hang on one document draw.
//
// The chunk cache in core keeps the per-token work incremental; the
// repair cache is used write-heavy (a whole-document hash and an insert
// on every new state, hits only on undo), unlike zipf-serve's read-heavy
// use.
//
// Every op's answer is recorded (script ops and a fingerprint of the
// repaired output) and checked after the timed phase, on a shadow copy
// of the document rebuilt from the recorded edits.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "src/cache/repair_cache.h"
#include "src/core/doc.h"
#include "src/core/edit_script.h"
#include "src/gen/workload.h"
#include "src/profile/reduce.h"

namespace e2e {
namespace {

using dyck::Options;
using dyck::Paren;
using dyck::ParenSeq;
using dyck::RepairResult;

constexpr uint64_t kDocStream = 20;
constexpr uint64_t kTraceStream = 21;
constexpr uint64_t kWarmupStream = 22;

// One keystroke: insert `token` at `pos`, or (backspace) erase the token
// before `pos`.
struct Edit {
  int64_t pos = 0;
  bool backspace = false;
  Paren token;
};

// Seeded typing trace over a document of `size` tokens. Each new bracket
// pair is typed a short random walk away from the last one, or, with
// probability `jump_share`, anywhere in the document: the cost of a repair
// depends on where the edit lands relative to the document's errors, so
// the trace visits many regions instead of the one a seed starts in.
class Typist {
 public:
  Typist(uint64_t seed, int64_t size, int32_t types, double backspace_share,
         int64_t walk, double jump_share)
      : rng_(seed),
        size_(size),
        types_(types),
        walk_(walk),
        jump_share_(jump_share) {
    // Backspaces only follow keystrokes, so a share b of all ops needs a
    // per-keystroke probability of b / (1 - b).
    backspace_after_type_ = backspace_share / (1.0 - backspace_share);
    cursor_ = rng_.Between(0, size_);
  }

  Edit Next() {
    Edit edit;
    if (last_typed_.has_value() && rng_.Uniform() < backspace_after_type_) {
      // Undo the last keystroke: its pair state goes back too.
      edit.pos = cursor_;
      edit.backspace = true;
      const Paren undone = *last_typed_;
      pending_ = undone.is_open ? std::nullopt : std::optional<Paren>(undone);
      last_typed_.reset();
      --cursor_;
      --size_;
      return edit;
    }
    if (pending_.has_value()) {
      edit.token = *pending_;
      pending_.reset();
    } else {
      cursor_ = rng_.Uniform() < jump_share_
                    ? rng_.Between(0, size_)
                    : std::clamp<int64_t>(cursor_ + rng_.Between(-walk_, walk_),
                                          0, size_);
      const int32_t type = static_cast<int32_t>(rng_.Between(0, types_ - 1));
      edit.token = Paren::Open(type);
      pending_ = Paren::Close(type);
    }
    edit.pos = cursor_;
    last_typed_ = edit.token;
    ++cursor_;
    ++size_;
    return edit;
  }

  /// True while an open bracket waits for its close.
  bool pair_open() const { return pending_.has_value(); }

 private:
  Rng rng_;
  int64_t size_;
  int32_t types_;
  int64_t walk_;
  double jump_share_;
  double backspace_after_type_ = 0;
  int64_t cursor_ = 0;
  std::optional<Paren> pending_;
  std::optional<Paren> last_typed_;
};

void ApplyEdit(const Edit& edit, ParenSeq* seq) {
  if (edit.backspace) {
    seq->erase(seq->begin() + (edit.pos - 1));
  } else {
    seq->insert(seq->begin() + edit.pos, edit.token);
  }
}

void SpliceDoc(const Edit& edit, dyck::RepairDoc* doc) {
  if (edit.backspace) {
    doc->Splice(edit.pos - 1, 1, dyck::ParenSpan());
  } else {
    doc->Splice(edit.pos, 0, dyck::ParenSpan(&edit.token, 1));
  }
}

// What the timed phase keeps of each answer for the untimed check.
struct Answer {
  bool ok = false;
  int64_t distance = 0;
  std::vector<dyck::EditOp> ops;
  uint64_t fingerprint = 0;
};

Answer Record(const dyck::Status& status, const RepairResult& out) {
  Answer answer;
  answer.ok = status.ok();
  if (!answer.ok) return answer;
  answer.distance = out.distance;
  answer.ops = out.script.ops;
  answer.fingerprint = Fingerprint(out.repaired);
  return answer;
}

// Rebuilds every document state from `initial` and the edits, and checks
// the answer recorded for it. answers[i] belongs to the state after
// edits[0, i]; answers.front() may also be the initial repair (offset 1).
int64_t CheckAnswers(const ParenSeq& initial, const std::vector<Edit>& edits,
                     const std::vector<Answer>& answers, Report* report) {
  constexpr size_t kBlock = 48;  // states materialized at once
  ParenSeq shadow = initial;
  int64_t failed = 0;
  const size_t offset = answers.size() - edits.size();
  for (size_t begin = 0; begin < answers.size(); begin += kBlock) {
    const size_t end = std::min(answers.size(), begin + kBlock);
    std::vector<ParenSeq> states;
    for (size_t i = begin; i < end; ++i) {
      if (i >= offset) ApplyEdit(edits[i - offset], &shadow);
      states.push_back(shadow);
    }
    ParallelFor(states.size(), [&](size_t k) {
      const Answer& answer = answers[begin + k];
      if (!answer.ok) return;
      dyck::EditScript script;
      script.ops = answer.ops;
      const ParenSeq repaired = dyck::ApplyScript(states[k], script);
      std::string wrong =
          Fingerprint(repaired) != answer.fingerprint
              ? "repaired output differs from the script applied to the input"
              : CheckAnswer(states[k], answer.distance, script, repaired,
                            /*allow_substitutions=*/false);
      if (!wrong.empty()) report->Wrong("splice-edit op: " + wrong);
    });
    for (size_t i = begin; i < end; ++i) failed += answers[i].ok ? 0 : 1;
  }
  return failed;
}

// One document of the pool: the drawn tokens, its warm-up keystrokes,
// and the state they leave.
struct Document {
  ParenSeq initial;
  std::vector<Edit> warmup;
  ParenSeq warmed;
};

// A cache + document in the state setup leaves them.
struct Editor {
  std::unique_ptr<dyck::cache::RepairCache> cache;
  std::unique_ptr<dyck::RepairDoc> doc;
  Options options;
};

// The keystrokes of one editing session and the answers recorded for
// them; every session starts from the set-up state.
struct Session {
  std::vector<Edit> edits;
  std::vector<Answer> answers;
};

}  // namespace

void RunSpliceEdit(const RunConfig& config, Report* report) {
  const Params& p = config.params;
  const int64_t doc_tokens = p.Int("doc_tokens");
  const int32_t types = static_cast<int32_t>(p.Int("types"));
  const int64_t corruptions = p.Int("corruptions");
  const int64_t distance = p.Int("distance");
  const int64_t reduced_tokens = p.Int("reduced_tokens");
  const int64_t target_subproblems = p.Int("subproblems");
  const int64_t cache_bytes = p.Int("cache_bytes");
  const double backspace_share = p.Double("backspace_share");
  const int64_t cursor_walk = p.Int("cursor_walk");
  const double jump_share = p.Double("jump_share");
  const int64_t warmup_ops = p.Int("warmup_ops");
  const int64_t documents = p.Int("documents");
  const int64_t session_ops = p.Int("session_ops");
  const int64_t trace_ops = p.Int("trace_ops");
  p.CheckAllUsed();

  const auto typist = [&](uint64_t stream, uint64_t index, size_t size) {
    return Typist(SubSeed(config.seed, stream, index),
                  static_cast<int64_t>(size), types, backspace_share,
                  cursor_walk, jump_share);
  };
  // Solver cost grows steeply with d and follows the reduced (Property-19)
  // length and the memo subproblems the search solves, so every document
  // is drawn, by rejection, at the same starting distance, with a reduced
  // length within 10% of `reduced_tokens` and a first repair that solves
  // within 20% of `subproblems` subproblems. The warm-up ends on a closed
  // pair, so every session starts at the drawn distance.
  const auto draw = [&](uint64_t k) {
    Options metric;
    metric.metric = dyck::Metric::kDeletionsOnly;
    Rng rng(SubSeed(config.seed, kDocStream, k));
    Document doc;
    for (int attempt = 0;; ++attempt) {
      if (attempt == 100000) {
        throw std::runtime_error("splice-edit: no document meets the targets");
      }
      doc.initial = dyck::gen::Corrupt(
                        dyck::gen::RandomBalanced(
                            {.length = doc_tokens, .num_types = types},
                            rng.Next()),
                        {.num_edits = corruptions,
                         .kind = dyck::gen::CorruptionKind::kMixed,
                         .num_types = types},
                        rng.Next())
                        .seq;
      const int64_t reduced =
          static_cast<int64_t>(dyck::Reduce(doc.initial).seq.size());
      if (std::abs(reduced - reduced_tokens) * 10 > reduced_tokens) continue;
      const RepairResult first = dyck::Repair(doc.initial, metric).value();
      if (first.distance == distance &&
          std::abs(first.telemetry.subproblems - target_subproblems) * 5 <=
              target_subproblems) {
        break;
      }
    }
    Typist keys = typist(kWarmupStream, k, doc.initial.size());
    while (static_cast<int64_t>(doc.warmup.size()) < warmup_ops ||
           keys.pair_open()) {
      doc.warmup.push_back(keys.Next());
    }
    doc.warmed = doc.initial;
    for (const Edit& edit : doc.warmup) ApplyEdit(edit, &doc.warmed);
    return doc;
  };
  // Several documents, so a run's cost does not hang on one draw; session
  // s edits document s mod `documents` with typing trace s.
  std::vector<Document> docs(documents);
  ParallelFor(docs.size(), [&](size_t k) { docs[k] = draw(k); });
  std::vector<uint64_t> fingerprints;
  for (const Document& doc : docs) {
    fingerprints.push_back(Fingerprint(doc.initial));
    fingerprints.push_back(Fingerprint(doc.warmed));
  }
  report->NoteInputs(InputsFingerprint(fingerprints));
  const auto doc_of = [&](size_t session) -> const Document& {
    return docs[session % docs.size()];
  };
  const auto session_typist = [&](size_t session) {
    return typist(kTraceStream, session, doc_of(session).warmed.size());
  };

  // Setup: cache + document construction, the first (full) repair, and
  // the warm-up keystrokes, for session `session`'s document. Timed into
  // `setups`. A document's set-up answers are the same on every set-up;
  // the first ones are kept for the final check.
  RepairResult out;
  Editor editor;
  std::vector<double> setups;
  std::vector<std::vector<Answer>> setup_answers(docs.size());
  const auto set_up = [&](size_t session) {
    const Document& doc = doc_of(session);
    editor = Editor{};
    ReleaseFreedMemory();
    const Clock::time_point start = Clock::now();
    editor.cache = std::make_unique<dyck::cache::RepairCache>(cache_bytes);
    editor.options.metric = dyck::Metric::kDeletionsOnly;
    editor.options.cache = editor.cache.get();
    editor.doc = std::make_unique<dyck::RepairDoc>(doc.initial);
    std::vector<Answer> answers;
    answers.push_back(
        Record(editor.doc->RepairInto(editor.options, &out), out));
    for (const Edit& edit : doc.warmup) {
      SpliceDoc(edit, editor.doc.get());
      answers.push_back(
          Record(editor.doc->RepairInto(editor.options, &out), out));
    }
    setups.push_back(SecondsBetween(start, Clock::now()));
    std::vector<Answer>& kept = setup_answers[session % docs.size()];
    if (kept.empty()) kept = std::move(answers);
  };
  const auto check_setups = [&] {
    for (size_t k = 0; k < docs.size(); ++k) {
      if (!setup_answers[k].empty() &&
          CheckAnswers(docs[k].initial, docs[k].warmup, setup_answers[k],
                       report) > 0) {
        report->Wrong("splice-edit set-up repair failed");
      }
    }
  };
  set_up(0);

  // One keystroke: Splice + RepairInto. Returns its seconds.
  const auto keystroke = [&](const Edit& edit, Session* session) {
    const Clock::time_point start = Clock::now();
    SpliceDoc(edit, editor.doc.get());
    const dyck::Status status = editor.doc->RepairInto(editor.options, &out);
    const double seconds = SecondsBetween(start, Clock::now());
    session->edits.push_back(edit);
    session->answers.push_back(Record(status, out));
    return seconds;
  };

  if (!config.trace) {
    // Each keystroke pair grows the document, and the whole-document hash
    // and cache insert grow with it, so the timed phase is cut into
    // sessions of `session_ops` keystrokes, each on a freshly set-up
    // editor: the document stays within a few percent of its set-up
    // length, and every set-up adds a setup_s sample.
    std::vector<Session> sessions(1);
    Typist keys = session_typist(0);
    std::vector<double> latency;
    double timed = 0;
    while (timed < config.seconds) {
      if (static_cast<int64_t>(sessions.back().edits.size()) == session_ops) {
        set_up(sessions.size());
        keys = session_typist(sessions.size());
        sessions.emplace_back();
      }
      const double seconds = keystroke(keys.Next(), &sessions.back());
      timed += seconds;
      latency.push_back(seconds * 1e3);
    }
    EndToEnd figures;
    figures.peak_rss_mb = PeakRssMib();
    check_setups();
    if (config.tamper) sessions.back().answers.back().fingerprint ^= 1;
    for (size_t k = 0; k < sessions.size(); ++k) {
      figures.failed += CheckAnswers(doc_of(k).warmed, sessions[k].edits,
                                     sessions[k].answers, report);
    }
    figures.attempted = static_cast<int64_t>(latency.size());
    figures.ops_per_s = static_cast<double>(figures.attempted) / timed;
    figures.latency_ms = std::move(latency);
    // A closed loop's highest sustainable rate is its throughput.
    figures.max_rate_rps = figures.ops_per_s;
    figures.setup_s = setups;
    ReportEndToEnd(figures, report);
    const dyck::cache::RepairCacheStats stats = editor.cache->Stats();
    report->Note("sessions=" + std::to_string(sessions.size()) +
                 " last session: cache hits=" + std::to_string(stats.hits) +
                 " misses=" + std::to_string(stats.misses) +
                 " bypasses=" + std::to_string(stats.bypasses));
    return;
  }

  // Traced run: one session of trace_ops keystrokes, first untraced, then
  // the same keystrokes traced on a freshly set-up editor, so the counters
  // repeat exactly and the two latency medians compare like for like.
  Session plain;
  std::vector<double> plain_latency;
  {
    Typist keys = session_typist(0);
    for (int64_t i = 0; i < trace_ops; ++i) {
      plain_latency.push_back(keystroke(keys.Next(), &plain));
    }
  }
  int64_t failed =
      CheckAnswers(doc_of(0).warmed, plain.edits, plain.answers, report);

  set_up(0);
  // A mirror cache replays each op's whole-document lookup and insert on
  // the same inputs; it sees the same sequence of keys as the real one.
  dyck::cache::RepairCache mirror(cache_bytes);
  const dyck::cache::OptionsKey key =
      dyck::cache::OptionsKey::From(editor.options);
  const dyck::cache::RepairCacheStats before = editor.cache->Stats();
  Tracer tracer;
  Session traced;
  std::vector<double> traced_latency;
  int64_t hashed_tokens = 0;
  int64_t recomputed = 0, reused = 0, interned = 0, rebuilds = 0;
  PipelineTotals totals;
  for (int64_t i = 0; i < trace_ops; ++i) {
    const Edit& edit = plain.edits[i];
    const uint64_t op = static_cast<uint64_t>(i);
    const int64_t t0 = tracer.Now();
    SpliceDoc(edit, editor.doc.get());
    const int64_t t1 = tracer.Now();
    const dyck::Status status = editor.doc->RepairInto(editor.options, &out);
    const int64_t t2 = tracer.Now();
    tracer.Root(op, "edit.op", t0, t2);
    tracer.Child(op, "doc.splice", t0, t1);
    tracer.Child(op, "doc.repair", t1, t2);
    tracer.Stages(op, out.telemetry, t1);
    traced_latency.push_back((t2 - t0) / 1e9);
    traced.edits.push_back(edit);
    traced.answers.push_back(Record(status, out));
    if (!status.ok()) continue;

    const dyck::RepairTelemetry& t = out.telemetry;
    const dyck::ParenSeq& tokens = editor.doc->tokens();
    // Derived, not counted by the library: RepairInto hashes the whole
    // buffer once for its cache consult.
    hashed_tokens += static_cast<int64_t>(tokens.size());
    recomputed += t.chunks_recomputed;
    reused += t.chunks_reused;
    interned += t.interned_chunks;
    rebuilds += (!t.incremental && !t.cache_hit) ? 1 : 0;
    totals.Add(t);

    Clock::time_point start = Clock::now();
    const uint64_t hash = dyck::cache::HashSequence(tokens, key);
    RepairResult mirrored;
    const bool hit = mirror.Lookup(hash, tokens, key, &mirrored);
    tracer.Replay(op, "cache.lookup", SecondsBetween(start, Clock::now()));
    if (!hit) {
      start = Clock::now();
      mirror.Insert(hash, tokens, key, out);
      tracer.Replay(op, "cache.insert", SecondsBetween(start, Clock::now()));
    }
    if (t.cache_hit || t.solver_name != "fpt-deletion" || t.solve_bound < 0) {
      continue;
    }
    // RepairDoc hands the solver a Reduced without the zero-cost pairs
    // and assembles the alignment itself, so the replay omits them too.
    dyck::Reduced reduced = dyck::Reduce(tokens);
    reduced.matched_pairs.clear();
    if (!ReplaySolve(reduced, /*allow_substitutions=*/false,
                     static_cast<int32_t>(t.solve_bound), out.distance, op,
                     &tracer)) {
      report->Wrong("splice-edit Solve replay disagrees with the answer");
    }
  }
  const dyck::cache::RepairCacheStats after = editor.cache->Stats();
  check_setups();
  if (config.tamper) traced.answers.back().fingerprint ^= 1;
  failed +=
      CheckAnswers(doc_of(0).warmed, traced.edits, traced.answers, report);
  report->CountOps(trace_ops, failed);

  totals.Report(tracer, report);
  ReportCache(before, after, hashed_tokens, tracer, report);
  report->Metric("doc.splice_us", tracer.MeanMicros("doc.splice"), "us",
                 trace_ops);
  report->Metric("doc.repair_us", tracer.MeanMicros("doc.repair"), "us",
                 trace_ops);
  report->Metric("doc.chunks_recomputed", static_cast<double>(recomputed),
                 "count");
  report->Metric("doc.chunks_reused", static_cast<double>(reused), "count");
  report->Metric("doc.interned_chunks", static_cast<double>(interned),
                 "count");
  report->Metric("doc.full_rebuilds", static_cast<double>(rebuilds), "count");
  // Root time that Splice and RepairInto's stage times do not cover; the
  // doc.repair span itself only frames the stages.
  std::vector<std::string> layers = StageSpanNames();
  layers.push_back("doc.splice");
  report->Metric("trace.unattributed_share", tracer.UnattributedShare(layers),
                 "fraction");
  report->Metric("trace.overhead_share",
                 Median(traced_latency) / Median(plain_latency) - 1.0,
                 "fraction");
  if (!config.trace_out.empty()) tracer.Write(config.trace_out);
}

}  // namespace e2e
