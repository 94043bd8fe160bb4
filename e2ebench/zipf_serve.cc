// zipf-serve: the read-heavy serving path. One in-process server::Session
// (one dyckfixd process serves one connection) on a Server with 2 workers,
// a server cache, and the library-default substitution metric. The
// calling thread is the session's reader and the only load generator: it
// feeds an open-loop, seeded Poisson schedule of repair requests drawn
// zipf(s) from a seeded set of documents.
//
// The cache budget sits below the working set, so after warm-up most
// requests hit: p50 then measures only the hit path (wire, tokenize, hash,
// lookup, rewrite) and p99 only the miss path (admission, pool, FPT
// substitution search). Latency is taken from each request's due time, so
// a stall delays every request scheduled behind it.
//
// Phases after setup: the nominal rate (latency metrics), interleaved
// with a binary search over a fixed geometric rate ladder for
// max_rate_rps.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.h"
#include "src/alphabet/parse.h"
#include "src/cache/repair_cache.h"
#include "src/core/context.h"
#include "src/core/edit_script.h"
#include "src/gen/workload.h"
#include "src/profile/reduce.h"
#include "src/server/server.h"
#include "src/textio/bracket_tokenizer.h"
#include "src/textio/document_repair.h"

namespace e2e {
namespace {

using dyck::Options;
using dyck::ParenSeq;

constexpr uint64_t kDocStream = 10;
constexpr uint64_t kWarmupStream = 11;
constexpr uint64_t kNominalStream = 12;
constexpr uint64_t kRankStream = 14;
constexpr uint64_t kRungStream = 100;

// Warm-up requests in flight at once: few enough that the queue never
// reaches the degrade or shed depth.
constexpr int64_t kWarmupWindow = 4;
// Share of an untraced run spent at the nominal rate; the rest goes to
// the rate-ladder probes.
constexpr double kNominalShare = 0.5;

std::string RenderToken(const dyck::Paren& paren,
                        const std::vector<std::string>&) {
  return dyck::textio::RenderBracketToken(paren);
}

// One document of the serving set with its checked reference answer.
// Only the text is kept, not its tokens, so the harness adds little to
// the process's peak RSS beyond what it sends and compares.
struct Document {
  std::string text;
  int64_t tokens = 0;
  uint64_t fingerprint = 0;
  int64_t distance = 0;
  std::string repaired;
};

ParenSeq Tokens(const Document& doc) {
  return dyck::textio::TokenizeBrackets(doc.text,
                                        dyck::ParenAlphabet::Default())
      .seq;
}

// Outcome of one request, written once by the sink before it bumps the
// phase's completion counter (release), read after the phase drains.
struct Request {
  int32_t doc = 0;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t feed_end_ns = 0;
  int64_t arrival_ns = -1;
  bool ok = false;
  bool hit = false;
};

struct Phase {
  std::vector<Request> requests;
  uint64_t first_id = 0;
  std::atomic<int64_t> completed{0};
  // Backlog (sent - completed) sampled on the schedule's clock.
  std::vector<int64_t> backlog;
};

// Draws document indices zipf(s) over [0, n) by inverse CDF; popularity
// ranks map to documents through a seeded permutation, so popularity is
// independent of the stratified corruption counts.
class Zipf {
 public:
  Zipf(int64_t n, double s, uint64_t seed) {
    double sum = 0;
    for (int64_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(sum);
      doc_of_rank_.push_back(static_cast<int32_t>(k));
    }
    for (double& c : cdf_) c /= sum;
    Rng rng(seed);
    for (int64_t k = n - 1; k > 0; --k) {
      std::swap(doc_of_rank_[k], doc_of_rank_[rng.Between(0, k)]);
    }
  }
  int32_t Draw(Rng* rng) const {
    const double u = rng->Uniform();
    const size_t rank = std::min<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        cdf_.size() - 1);
    return doc_of_rank_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int32_t> doc_of_rank_;
};

struct PhaseResult {
  std::vector<double> latency_ms;  // failed requests count as +inf
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> lag_ms;
  int64_t attempted = 0;
  int64_t failed = 0;  // shed (overloaded) or err
  bool backlog_grows = false;
  double wall = 0;
  double p99_ms = 0;

  // Pools another phase at the same rate into this one.
  void Add(const PhaseResult& other) {
    const auto append = [](std::vector<double>* to,
                           const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&latency_ms, other.latency_ms);
    append(&hit_ms, other.hit_ms);
    append(&miss_ms, other.miss_ms);
    append(&lag_ms, other.lag_ms);
    attempted += other.attempted;
    failed += other.failed;
    backlog_grows = backlog_grows || other.backlog_grows;
    wall += other.wall;
  }
};

class Client {
 public:
  Client(const std::vector<Document>* docs, Report* report, bool tamper)
      : docs_(docs), report_(report), tamper_(tamper) {}

  // Opens a fresh server + session; setup time covers this call and the
  // warm-up that follows.
  void Open(const dyck::server::ServerOptions& options) {
    session_.reset();
    server_.reset();
    server_ = std::make_unique<dyck::server::Server>(options);
    session_ = server_->OpenSession(
        [this](std::string_view bytes) { OnResponse(bytes); });
  }

  dyck::server::Server& server() { return *server_; }

  // Closed-loop warm-up with at most kWarmupWindow requests in flight.
  void WarmUp(const Zipf& zipf, uint64_t seed, int64_t count) {
    Phase phase;
    Rng rng(seed);
    phase.requests.resize(count);
    Begin(&phase);
    for (int64_t j = 0; j < count; ++j) {
      while (static_cast<int64_t>(j) - phase.completed.load() >=
             kWarmupWindow) {
        std::this_thread::yield();
      }
      phase.requests[j].doc = zipf.Draw(&rng);
      Send(&phase, j, false);
    }
    End(&phase);
  }

  // Open loop: Poisson arrivals at `rate` for `seconds`. One seed gives
  // the same request sequence at every rate, only compressed in time, so
  // ladder rungs differ in rate alone.
  PhaseResult RunOpenLoop(const Zipf& zipf, uint64_t seed, double rate,
                          double seconds, Tracer* tracer) {
    Phase phase;
    Rng rng(seed);
    double at = 0;
    std::vector<double> offsets;
    while (true) {
      at += rng.Exponential(rate);
      if (at >= seconds) break;
      offsets.push_back(at);
      phase.requests.emplace_back();
      phase.requests.back().doc = zipf.Draw(&rng);
    }

    const int64_t start = Now() + 1000000;  // 1 ms to get going
    constexpr int64_t kSampleNs = 100000000;  // backlog sample period
    int64_t next_sample = start + kSampleNs;
    Begin(&phase);
    for (size_t j = 0; j < offsets.size(); ++j) {
      const int64_t due = start + static_cast<int64_t>(offsets[j] * 1e9);
      WaitUntil(due);
      while (due >= next_sample) {
        phase.backlog.push_back(static_cast<int64_t>(j) -
                                phase.completed.load());
        next_sample += kSampleNs;
      }
      phase.requests[j].due_ns = due;
      Send(&phase, j, tracer != nullptr);
    }
    End(&phase);

    PhaseResult result;
    int64_t last_arrival = start;
    for (const Request& r : phase.requests) {
      ++result.attempted;
      last_arrival = std::max(last_arrival, r.arrival_ns);
      result.lag_ms.push_back((r.send_ns - r.due_ns) / 1e6);
      if (!r.ok) {
        ++result.failed;
        result.latency_ms.push_back(INFINITY);
        continue;
      }
      const double ms = (r.arrival_ns - r.due_ns) / 1e6;
      result.latency_ms.push_back(ms);
      (r.hit ? result.hit_ms : result.miss_ms).push_back(ms);
    }
    if (tracer != nullptr) {
      // The root spans the harness's call into Session::Feed until the
      // response arrives; the generator's lateness before it is its own
      // span.
      for (size_t j = 0; j < phase.requests.size(); ++j) {
        const Request& r = phase.requests[j];
        const uint64_t op = phase.first_id + j;
        tracer->Root(op, "serve.request", r.send_ns, r.arrival_ns);
        tracer->Child(op, "gen.lag", r.due_ns, r.send_ns);
        tracer->Child(op, "server.feed", r.send_ns, r.feed_end_ns);
      }
    }
    result.wall = (last_arrival - start) / 1e9;
    result.p99_ms = Quantile(result.latency_ms, 0.99);
    result.backlog_grows = BacklogGrows(phase.backlog);
    last_phase_requests_ = std::move(phase.requests);
    last_phase_first_id_ = phase.first_id;
    return result;
  }

  const std::vector<Request>& last_requests() const {
    return last_phase_requests_;
  }
  uint64_t last_first_id() const { return last_phase_first_id_; }

  void Close() {
    session_.reset();
    server_.reset();
  }

 private:
  static int64_t Now() { return NowNs(); }

  // Spins rather than sleeps: on a shared host a sleeping thread's wake-up
  // can overshoot by milliseconds, which would show up as generator lag.
  static void WaitUntil(int64_t due) {
    while (Now() < due) {
    }
  }

  // The backlog grows when its median over the last quarter of the phase
  // exceeds the first quarter's by more than the pool can absorb at once.
  static bool BacklogGrows(const std::vector<int64_t>& samples) {
    if (samples.size() < 8) return false;
    const size_t q = samples.size() / 4;
    std::vector<double> head(samples.begin(), samples.begin() + q);
    std::vector<double> tail(samples.end() - q, samples.end());
    return Median(tail) > Median(head) + 16;
  }

  void Begin(Phase* phase) {
    phase->first_id = next_id_;
    next_id_ += phase->requests.size();
    phase_.store(phase, std::memory_order_release);
  }

  // Waits for every response of the phase.
  void End(Phase* phase) {
    const int64_t total = static_cast<int64_t>(phase->requests.size());
    const Clock::time_point limit = Clock::now() + std::chrono::seconds(60);
    while (phase->completed.load(std::memory_order_acquire) < total) {
      if (Clock::now() > limit) {
        throw std::runtime_error("zipf-serve: responses missing after 60 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    phase_.store(nullptr, std::memory_order_release);
  }

  void Send(Phase* phase, size_t j, bool trace) {
    Request& r = phase->requests[j];
    const Document& doc = (*docs_)[r.doc];
    frame_.assign("dyckfix/1 ");
    frame_.append(std::to_string(phase->first_id + j));
    frame_.append(" repair len=");
    frame_.append(std::to_string(doc.text.size()));
    frame_.push_back('\n');
    frame_.append(doc.text);
    frame_.push_back('\n');
    r.send_ns = Now();
    session_->Feed(frame_);
    if (trace) r.feed_end_ns = Now();
  }

  // The session's sink: one complete response per call (header line plus
  // payload line), from a worker or from the Feed thread for cache hits.
  void OnResponse(std::string_view bytes) {
    const int64_t arrival = Now();
    while (!bytes.empty()) {
      const size_t eol = bytes.find('\n');
      if (eol == std::string_view::npos) break;
      std::string_view header = bytes.substr(0, eol);
      bytes.remove_prefix(eol + 1);
      dyck::server::LineScanner scan(header);
      std::string_view magic, id_text, status;
      uint64_t id = 0;
      if (!scan.NextToken(&magic) || !scan.NextToken(&id_text) ||
          !scan.NextToken(&status) ||
          !dyck::server::ParseDecimalU64(id_text, &id)) {
        report_->Wrong("zipf-serve: unparsable response header");
        return;
      }
      int64_t distance = -1;
      int64_t payload_len = -1;
      bool hit = false;
      bool exact = false;
      std::string_view token;
      while (scan.NextToken(&token)) {
        if (token.starts_with("msg=")) break;
        if (token.starts_with("distance=")) {
          dyck::server::ParseDecimal(token.substr(9), &distance);
        } else if (token.starts_with("len=")) {
          dyck::server::ParseDecimal(token.substr(4), &payload_len);
        } else if (token == "cache=1") {
          hit = true;
        } else if (token == "pressure=exact") {
          exact = true;
        }
      }
      std::string_view payload;
      if (payload_len >= 0) {
        payload = bytes.substr(0, static_cast<size_t>(payload_len));
        bytes.remove_prefix(std::min(bytes.size(),
                                     static_cast<size_t>(payload_len) + 1));
      }
      Phase* phase = phase_.load(std::memory_order_acquire);
      if (phase == nullptr || id < phase->first_id ||
          id >= phase->first_id + phase->requests.size()) {
        report_->Wrong("zipf-serve: response for an unknown request id");
        return;
      }
      Request& r = phase->requests[id - phase->first_id];
      r.arrival_ns = arrival;
      r.hit = hit;
      if (status == "ok") {
        r.ok = true;
        Check(r, distance, payload, exact);
      }
      phase->completed.fetch_add(1, std::memory_order_release);
    }
  }

  // Exact-tier answers must equal the checked reference byte for byte;
  // pressure-degraded answers must be balanced and cost at least the exact
  // distance.
  void Check(const Request& r, int64_t distance, std::string_view payload,
             bool exact) {
    const Document& doc = (*docs_)[r.doc];
    if (tamper_ && !tampered_.exchange(true)) distance += 1;
    if (exact) {
      if (distance != doc.distance || payload != doc.repaired) {
        report_->Wrong("zipf-serve: answer differs from the checked reference");
      }
      return;
    }
    const dyck::textio::TokenizedDocument repaired =
        dyck::textio::TokenizeBrackets(payload,
                                       dyck::ParenAlphabet::Default());
    if (!dyck::IsBalanced(repaired.seq) || distance < doc.distance) {
      report_->Wrong("zipf-serve: degraded answer is not a valid repair");
    }
  }

  const std::vector<Document>* docs_;
  Report* report_;
  bool tamper_;
  std::atomic<bool> tampered_{false};
  std::unique_ptr<dyck::server::Server> server_;
  std::unique_ptr<dyck::server::Session> session_;
  std::atomic<Phase*> phase_{nullptr};
  uint64_t next_id_ = 1;
  std::string frame_;
  std::vector<Request> last_phase_requests_;
  uint64_t last_phase_first_id_ = 0;
};

// The documents' miss costs set p99, so the mix is fixed across seeds:
// document i carries k = i mod (max_corruptions + 1) corruptions, is drawn
// (by rejection) at distance exactly k, and its reduced (Property-19)
// length, which the solve cost follows, lies within 15% of
// k * reduced_per_error.
ParenSeq MakeDocumentTokens(uint64_t seed, int64_t tokens, int32_t types,
                            int64_t corruptions, int64_t reduced_per_error,
                            const Options& options) {
  Rng rng(seed);
  const int64_t target = corruptions * reduced_per_error;
  for (int attempt = 0; attempt < 100000; ++attempt) {
    ParenSeq seq = dyck::gen::Corrupt(
                       dyck::gen::RandomBalanced(
                           {.length = tokens, .num_types = types}, rng.Next()),
                       {.num_edits = corruptions,
                        .kind = dyck::gen::CorruptionKind::kMixed,
                        .num_types = types},
                       rng.Next())
                       .seq;
    const int64_t reduced = static_cast<int64_t>(dyck::Reduce(seq).seq.size());
    if (std::abs(reduced - target) * 100 > target * 15) continue;
    if (dyck::Distance(seq, options).value() == corruptions) return seq;
  }
  throw std::runtime_error("zipf-serve: no document meets the targets");
}

std::vector<Document> MakeDocuments(uint64_t seed, int64_t count,
                                    int64_t tokens, int32_t types,
                                    int64_t max_corruptions,
                                    int64_t reduced_per_error,
                                    const Options& options, Report* report) {
  std::vector<Document> docs(count);
  ParallelFor(docs.size(), [&](size_t i) {
    const ParenSeq seq = MakeDocumentTokens(
        SubSeed(seed, kDocStream, i), tokens, types,
        static_cast<int64_t>(i) % (max_corruptions + 1), reduced_per_error,
        options);
    Document& doc = docs[i];
    doc.text = dyck::ParenAlphabet::Default().Render(seq).value();
    const ParenSeq doc_tokens = Tokens(doc);
    doc.tokens = static_cast<int64_t>(doc_tokens.size());
    doc.fingerprint = Fingerprint(doc_tokens);
    const auto repaired = dyck::textio::RepairDocument(
        doc.text,
        dyck::textio::TokenizeBrackets(doc.text,
                                       dyck::ParenAlphabet::Default()),
        RenderToken, options);
    if (!repaired.ok()) {
      report->Wrong("zipf-serve reference repair failed: " +
                    repaired.status().ToString());
      return;
    }
    doc.distance = repaired->distance;
    doc.repaired = repaired->repaired_text;
    const ParenSeq applied = dyck::ApplyScript(doc_tokens, repaired->script);
    std::string wrong = CheckAnswer(doc_tokens, doc.distance,
                                    repaired->script, applied,
                                    /*allow_substitutions=*/true);
    if (wrong.empty() &&
        dyck::textio::TokenizeBrackets(doc.repaired,
                                       dyck::ParenAlphabet::Default())
                .seq != applied) {
      wrong = "repaired text does not match the script";
    }
    if (!wrong.empty()) report->Wrong("zipf-serve reference: " + wrong);
  });
  return docs;
}

// Replays a sample of the traced phase's hits and misses through the
// lower-layer public calls they exercise.
struct Replayer {
  Options options;
  dyck::cache::RepairCache* server_cache;
  Tracer* tracer;
  Report* report;
  dyck::RepairContext context;
  dyck::cache::RepairCache insert_cache;
  PipelineTotals totals;

  Replayer(const Options& options, dyck::cache::RepairCache* server_cache,
           int64_t cache_bytes, Tracer* tracer, Report* report)
      : options(options),
        server_cache(server_cache),
        tracer(tracer),
        report(report),
        insert_cache(cache_bytes) {}

  // Hit path: TokenizeBrackets -> HashSequence + Lookup ->
  // ApplyScriptToDocument.
  void Hit(uint64_t op, const Document& doc) {
    const dyck::cache::OptionsKey key = dyck::cache::OptionsKey::From(options);
    Clock::time_point t0 = Clock::now();
    const dyck::textio::TokenizedDocument tokenized =
        dyck::textio::TokenizeBrackets(doc.text,
                                       dyck::ParenAlphabet::Default());
    Clock::time_point t1 = Clock::now();
    dyck::RepairResult cached;
    const bool found = server_cache->Lookup(
        dyck::cache::HashSequence(tokenized.seq, key), tokenized.seq, key,
        &cached, /*count_miss=*/false);
    Clock::time_point t2 = Clock::now();
    if (!found) return;  // evicted since the phase; nothing to replay
    const auto text = dyck::textio::ApplyScriptToDocument(
        doc.text, tokenized, cached.script, RenderToken);
    Clock::time_point t3 = Clock::now();
    if (!text.ok() || *text != doc.repaired) {
      report->Wrong("zipf-serve hit replay disagrees with the reference");
      return;
    }
    tracer->Replay(op, "textio.tokenize", SecondsBetween(t0, t1));
    tracer->Replay(op, "cache.lookup", SecondsBetween(t1, t2));
    tracer->Replay(op, "textio.rewrite", SecondsBetween(t2, t3));
  }

  // Miss path: the pipeline without a cache (stage times from telemetry),
  // Solve split on the Reduced, and the cache insert of the result.
  void Miss(uint64_t op, const Document& doc) {
    const ParenSeq tokens = Tokens(doc);
    dyck::RepairResult result;
    const dyck::Status status =
        dyck::RepairInto(tokens, options, &context, &result);
    if (!status.ok() || result.distance != doc.distance) {
      report->Wrong("zipf-serve miss replay disagrees with the reference");
      return;
    }
    const dyck::RepairTelemetry& t = result.telemetry;
    tracer->ReplayStages(op, t);
    totals.Add(t);

    const dyck::cache::OptionsKey key = dyck::cache::OptionsKey::From(options);
    const uint64_t hash = dyck::cache::HashSequence(tokens, key);
    Clock::time_point start = Clock::now();
    insert_cache.Insert(hash, tokens, key, result);
    tracer->Replay(op, "cache.insert", SecondsBetween(start, Clock::now()));

    if (t.solver_name == "fpt-substitution" && t.solve_bound >= 0 &&
        !ReplaySolve(dyck::Reduce(tokens), /*allow_substitutions=*/true,
                     static_cast<int32_t>(t.solve_bound), doc.distance, op,
                     tracer)) {
      report->Wrong("zipf-serve Solve replay disagrees with the reference");
    }
  }
};

}  // namespace

void RunZipfServe(const RunConfig& config, Report* report) {
  const Params& p = config.params;
  const int workers = static_cast<int>(p.Int("workers"));
  const int64_t max_queue_depth = p.Int("max_queue_depth");
  const int64_t doc_count = p.Int("docs");
  const int64_t doc_tokens = p.Int("doc_tokens");
  const int32_t types = static_cast<int32_t>(p.Int("types"));
  const int64_t max_corruptions = p.Int("max_corruptions");
  const int64_t reduced_per_error = p.Int("reduced_per_error");
  const double zipf_s = p.Double("zipf_s");
  const int64_t cache_bytes = p.Int("cache_bytes");
  const int64_t warmup_requests = p.Int("warmup_requests");
  const int64_t setup_repeats = p.Int("setup_repeats");
  const double nominal_rate = p.Double("nominal_rate_rps");
  const double ladder_anchor = p.Double("ladder_anchor_rps");
  const double ladder_step = p.Double("ladder_step");
  const int64_t ladder_rungs = p.Int("ladder_rungs");
  const double p99_limit_ms = p.Double("p99_limit_ms");
  const int64_t replay_hits = p.Int("replay_hits");
  const int64_t replay_misses = p.Int("replay_misses");
  p.CheckAllUsed();

  dyck::server::ServerOptions server_options;
  server_options.workers = workers;
  server_options.max_queue_depth = max_queue_depth;
  server_options.cache_bytes = cache_bytes;
  const Options& options = server_options.base_options;

  const std::vector<Document> docs =
      MakeDocuments(config.seed, doc_count, doc_tokens, types,
                    max_corruptions, reduced_per_error, options, report);
  std::vector<uint64_t> fingerprints;
  for (const Document& doc : docs) fingerprints.push_back(doc.fingerprint);
  report->NoteInputs(InputsFingerprint(fingerprints));
  const Zipf zipf(doc_count, zipf_s, SubSeed(config.seed, kRankStream, 0));
  Client client(&docs, report, config.tamper);

  // Setup: server + session construction and the cache fill on a fresh
  // server. Returns its time.
  const auto set_up = [&] {
    client.Close();
    ReleaseFreedMemory();
    const Clock::time_point start = Clock::now();
    client.Open(server_options);
    client.WarmUp(zipf, SubSeed(config.seed, kWarmupStream, 0),
                  warmup_requests);
    return SecondsBetween(start, Clock::now());
  };
  // Repeated; the median is reported and the last server is kept.
  std::vector<double> setups;
  for (int64_t r = 0; r < setup_repeats; ++r) setups.push_back(set_up());

  const double nominal_seconds = config.seconds * kNominalShare;
  if (!config.trace) {
    // Rate ladder: rung k offers ladder_anchor * (1 + step)^k requests/s.
    // Binary search for the highest passing rung (pass: p99 from due time
    // within the limit, no sheds, no pressure-degraded answers, no growing
    // backlog). The nominal-rate phase is cut into segments interleaved
    // with the probes, so it samples the host over the whole run.
    const int probes = static_cast<int>(
        std::ceil(std::log2(static_cast<double>(ladder_rungs) + 1)));
    const double rung_seconds =
        config.seconds * (1.0 - kNominalShare) / probes;
    PhaseResult nominal;
    int64_t lo = -1;
    int64_t hi = ladder_rungs;
    double best_achieved = 0;
    for (int segment = 0; segment <= probes; ++segment) {
      nominal.Add(client.RunOpenLoop(
          zipf, SubSeed(config.seed, kNominalStream, segment), nominal_rate,
          nominal_seconds / (probes + 1), nullptr));
      if (nominal.backlog_grows) {
        throw std::runtime_error(
            "invalid run: the backlog grew at the nominal rate");
      }
      if (hi - lo <= 1) continue;
      const int64_t mid = (lo + hi) / 2;
      const double rate =
          ladder_anchor * std::pow(1.0 + ladder_step, static_cast<double>(mid));
      const dyck::ServerStats before = client.server().Stats();
      const PhaseResult rung = client.RunOpenLoop(
          zipf, SubSeed(config.seed, kRungStream, 0), rate, rung_seconds,
          nullptr);
      const dyck::ServerStats after = client.server().Stats();
      const int64_t degraded =
          after.degraded_pressure - before.degraded_pressure;
      const bool pass = rung.p99_ms <= p99_limit_ms && rung.failed == 0 &&
                        degraded == 0 && !rung.backlog_grows;
      report->Note("rung " + std::to_string(mid) + " rate=" +
                   std::to_string(rate) + " p99_ms=" +
                   std::to_string(rung.p99_ms) + " failed=" +
                   std::to_string(rung.failed) + " degraded=" +
                   std::to_string(degraded) + " backlog_grows=" +
                   std::to_string(rung.backlog_grows) + " " +
                   (pass ? "pass" : "fail"));
      if (pass) best_achieved = (rung.attempted - rung.failed) / rung.wall;
      (pass ? lo : hi) = mid;
    }
    EndToEnd figures;
    figures.peak_rss_mb = PeakRssMib();
    figures.ops_per_s =
        static_cast<double>(nominal.attempted - nominal.failed) / nominal.wall;
    figures.latency_ms = nominal.latency_ms;
    // The throughput achieved on the highest passing rung: its offered rate
    // within Poisson noise, as measured.
    figures.max_rate_rps = best_achieved;
    figures.setup_s = setups;
    figures.attempted = nominal.attempted;
    figures.failed = nominal.failed;
    ReportEndToEnd(figures, report);
    report->Note("nominal hits=" + std::to_string(nominal.hit_ms.size()) +
                 " misses=" + std::to_string(nominal.miss_ms.size()) +
                 " gen_lag_p99_ms=" +
                 std::to_string(Quantile(nominal.lag_ms, 0.99)));
    client.Close();
    return;
  }

  // Traced run: one nominal-rate stream untraced, then the same stream
  // traced on a server set up afresh, so both phases start from the same
  // cache state and see the same requests; then the replays.
  const PhaseResult plain = client.RunOpenLoop(
      zipf, SubSeed(config.seed, kNominalStream, 0), nominal_rate,
      nominal_seconds, nullptr);
  set_up();
  Tracer tracer;
  const dyck::ServerStats stats_before = client.server().Stats();
  const dyck::cache::RepairCacheStats cache_before =
      client.server().repair_cache()->Stats();
  const PhaseResult traced = client.RunOpenLoop(
      zipf, SubSeed(config.seed, kNominalStream, 0), nominal_rate,
      nominal_seconds, &tracer);
  const dyck::ServerStats stats_after = client.server().Stats();
  const dyck::cache::RepairCacheStats cache_after =
      client.server().repair_cache()->Stats();
  if (plain.backlog_grows || traced.backlog_grows) {
    throw std::runtime_error(
        "invalid run: the backlog grew at the nominal rate");
  }
  report->CountOps(traced.attempted, traced.failed);

  int64_t hashed_tokens = 0;
  Replayer replayer(options, client.server().repair_cache(),
                    cache_bytes, &tracer, report);
  int64_t hits_replayed = 0;
  int64_t misses_replayed = 0;
  const std::vector<Request>& requests = client.last_requests();
  for (size_t j = 0; j < requests.size(); ++j) {
    const Request& r = requests[j];
    const Document& doc = docs[r.doc];
    // Derived, not counted by the library: the pre-admission lookup hashes
    // every request's tokens; a miss hashes them again in the pipeline's
    // cache consult.
    hashed_tokens += r.hit ? doc.tokens : 2 * doc.tokens;
    const uint64_t op = client.last_first_id() + j;
    if (r.hit && hits_replayed < replay_hits) {
      replayer.Hit(op, doc);
      ++hits_replayed;
    } else if (!r.hit && r.ok && misses_replayed < replay_misses) {
      replayer.Miss(op, doc);
      ++misses_replayed;
    }
  }

  replayer.totals.Report(tracer, report);
  ReportCache(cache_before, cache_after, hashed_tokens, tracer, report);
  report->Metric("server.feed_us", tracer.MeanMicros("server.feed"), "us");
  report->Metric("server.hit_latency_p50_ms", Quantile(traced.hit_ms, 0.5),
                 "ms", static_cast<int64_t>(traced.hit_ms.size()));
  report->Metric("server.miss_latency_p50_ms", Quantile(traced.miss_ms, 0.5),
                 "ms", static_cast<int64_t>(traced.miss_ms.size()));
  report->Metric("server.miss_latency_p99_ms", Quantile(traced.miss_ms, 0.99),
                 "ms", static_cast<int64_t>(traced.miss_ms.size()));
  report->Metric("server.queue_depth_hw",
                 static_cast<double>(stats_after.queue_depth_high_water),
                 "count");
  report->Metric("server.admitted",
                 static_cast<double>(stats_after.admitted -
                                     stats_before.admitted),
                 "count");
  report->Metric("server.shed",
                 static_cast<double>(stats_after.shed_overloaded -
                                     stats_before.shed_overloaded),
                 "count");
  report->Metric("server.degraded_pressure",
                 static_cast<double>(stats_after.degraded_pressure -
                                     stats_before.degraded_pressure),
                 "count");
  report->Metric("server.protocol_errors",
                 static_cast<double>(stats_after.protocol_errors -
                                     stats_before.protocol_errors),
                 "count");
  report->Metric("textio.tokenize_us", tracer.MeanMicros("textio.tokenize"),
                 "us");
  report->Metric("textio.rewrite_us", tracer.MeanMicros("textio.rewrite"),
                 "us");
  report->Metric("gen.lag_p99_ms", Quantile(traced.lag_ms, 0.99), "ms",
                 traced.attempted);
  // Over the replayed requests: root time that the replayed layers (hit:
  // tokenize, lookup, rewrite; miss: the pipeline stages and the insert)
  // do not explain. Wire framing, admission, the pool queue and response
  // delivery remain.
  std::vector<std::string> layers = StageSpanNames();
  for (const char* name :
       {"textio.tokenize", "cache.lookup", "textio.rewrite", "cache.insert"}) {
    layers.push_back(name);
  }
  report->Metric("trace.unattributed_share", tracer.UnattributedShare(layers),
                 "fraction");
  report->Metric("trace.overhead_share",
                 Quantile(traced.latency_ms, 0.5) /
                         Quantile(plain.latency_ms, 0.5) -
                     1.0,
                 "fraction");
  if (!config.trace_out.empty()) tracer.Write(config.trace_out);
  client.Close();
}

}  // namespace e2e
