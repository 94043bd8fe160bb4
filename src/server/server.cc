#include "src/server/server.h"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "src/alphabet/paren.h"
#include "src/cache/repair_cache.h"
#include "src/textio/bracket_tokenizer.h"
#include "src/textio/document_repair.h"
#include "src/util/budget.h"

namespace dyck {
namespace server {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

int ResolveWorkers(int workers) {
  if (workers > 0) return workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

AdmissionConfig MakeAdmissionConfig(const ServerOptions& options) {
  AdmissionConfig config;
  config.max_queue_depth = options.max_queue_depth;
  config.exact_depth_limit = options.exact_depth_limit;
  config.approx_depth_limit = options.approx_depth_limit;
  config.workers = ResolveWorkers(options.workers);
  return config;
}

std::string RenderSeq(const ParenSeq& seq) {
  std::string out;
  out.reserve(seq.size());
  for (const Paren& paren : seq) {
    out.append(textio::RenderBracketToken(paren));
  }
  return out;
}

/// Rejects fields outside the verb's vocabulary, so a typo'd client
/// option fails loudly instead of being silently ignored.
Status CheckKnownFields(const Frame& frame,
                        std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : frame.fields) {
    bool recognized = false;
    for (const std::string_view candidate : known) {
      if (key == candidate) {
        recognized = true;
        break;
      }
    }
    if (!recognized) {
      return Status::InvalidArgument("unknown field '" + key +
                                     "' for verb '" + frame.verb + "'");
    }
  }
  return Status::OK();
}

const std::initializer_list<std::string_view> kRepairFields = {
    "doc",    "timeout_ms", "max_steps", "degrade",
    "factor", "solver",     "metric"};

}  // namespace

// The block a Session shares with its pooled tasks. Workers hold a strong
// reference for the whole completion path (Respond + FinishRequest), so
// none of this can be freed out from under them even when the owner
// destroys the Session the moment the sink delivers the last response.
// The Server itself is guaranteed alive for that path by its own
// outstanding_ count: it is decremented (NoteFinished) strictly after the
// session-level bookkeeping, and ~Server drains before joining the pool.
struct SessionState {
  SessionState(Server* server, Server::Sink sink)
      : server(server), sink(std::move(sink)) {}

  Server* const server;
  const Server::Sink sink;

  std::mutex out_mu;  // serializes sink calls and bytes_out accounting

  std::mutex mu;  // guards inflight / outstanding
  std::condition_variable idle;
  std::set<uint64_t> inflight;  // pooled request ids awaiting response
  int64_t outstanding = 0;      // pooled requests queued or running
};

// ---------------------------------------------------------------------------
// Server.

Server::Server(const ServerOptions& options)
    : options_(options),
      admission_(MakeAdmissionConfig(options)),
      cache_(options.cache_bytes > 0
                 ? std::make_unique<cache::RepairCache>(options.cache_bytes)
                 : nullptr),
      pool_(ResolveWorkers(options.workers)) {}

Server::~Server() { Drain(); }

ServerStats Server::Stats() const {
  ServerStats stats = counters_.Snapshot();
  if (cache_ != nullptr) {
    const cache::RepairCacheStats cs = cache_->Stats();
    stats.cache_active = true;
    stats.cache_hits = cs.hits;
    stats.cache_misses = cs.misses;
    stats.cache_evictions = cs.evictions;
  }
  return stats;
}

std::unique_ptr<Session> Server::OpenSession(Sink sink) {
  const uint64_t tag = next_session_tag_.fetch_add(1, kRelaxed);
  return std::unique_ptr<Session>(new Session(this, std::move(sink), tag));
}

void Server::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return outstanding_ == 0; });
}

void Server::Shutdown() {
  BeginShutdown();
  Drain();
}

void Server::NoteSubmitted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++outstanding_;
}

void Server::NoteFinished(int64_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  outstanding_ -= n;
  if (outstanding_ == 0) idle_.notify_all();
}

// ---------------------------------------------------------------------------
// Session.

Session::Session(Server* server, Server::Sink sink, uint64_t tag)
    : server_(server),
      tag_(tag),
      parser_(FrameParser::Limits{server->options_.max_doc_bytes}),
      state_(std::make_shared<SessionState>(server, std::move(sink))) {}

Session::~Session() { Close(); }

void Session::Close() {
  if (closed_) return;
  closed_ = true;
  // Queued-but-unstarted requests are dropped (their client is gone);
  // running ones finish — their responses go to a sink that may discard.
  const int64_t dropped =
      static_cast<int64_t>(server_->pool_.CancelPending(tag_));
  if (dropped > 0) server_->counters_.cancelled.fetch_add(dropped, kRelaxed);
  {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->outstanding -= dropped;
    SessionState* state = state_.get();
    state_->idle.wait(lock, [state] { return state->outstanding == 0; });
    state_->inflight.clear();
  }
  server_->NoteFinished(dropped);
  docs_.clear();
}

bool Session::Feed(std::string_view bytes) {
  server_->counters_.bytes_in.fetch_add(static_cast<int64_t>(bytes.size()),
                                        kRelaxed);
  parser_.Feed(bytes);
  for (;;) {
    FrameParser::Event event = parser_.Next();
    if (event.kind == FrameParser::EventKind::kNeedMore) break;
    if (event.kind == FrameParser::EventKind::kError) {
      server_->counters_.protocol_errors.fetch_add(1, kRelaxed);
      Respond(ErrorResponse(event.id, event.error));
      continue;
    }
    HandleFrame(std::move(event.frame));
  }
  return !server_->shutting_down();
}

void Session::Respond(SessionState& state, std::string_view bytes) {
  std::lock_guard<std::mutex> lock(state.out_mu);
  state.server->counters_.bytes_out.fetch_add(
      static_cast<int64_t>(bytes.size()), kRelaxed);
  if (state.sink) state.sink(bytes);
}

void Session::Respond(std::string_view bytes) { Respond(*state_, bytes); }

void Session::FinishRequest(SessionState& state, uint64_t id) {
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.inflight.erase(id);
    if (--state.outstanding == 0) state.idle.notify_all();
  }
  state.server->NoteFinished(1);
}

StatusOr<Options> Session::RequestOptions(const Frame& frame) const {
  Options options = server_->options_.base_options;
  if (options.timeout_ms < 0) {
    options.timeout_ms = server_->options_.default_timeout_ms;
  }
  DYCK_ASSIGN_OR_RETURN(options.timeout_ms,
                        frame.IntField("timeout_ms", options.timeout_ms));
  DYCK_ASSIGN_OR_RETURN(options.max_work_steps,
                        frame.IntField("max_steps", options.max_work_steps));
  if (const std::string* degrade = frame.Find("degrade")) {
    if (*degrade == "fail") {
      options.on_budget_exceeded = DegradePolicy::kFail;
    } else if (*degrade == "greedy") {
      options.on_budget_exceeded = DegradePolicy::kGreedy;
    } else if (*degrade == "approx") {
      options.on_budget_exceeded = DegradePolicy::kApproximate;
    } else {
      return Status::InvalidArgument(
          "degrade must be fail, greedy, or approx; got '" + *degrade + "'");
    }
  }
  if (const std::string* factor = frame.Find("factor")) {
    char* end = nullptr;
    const double value = std::strtod(factor->c_str(), &end);
    // !(value >= 0) also refuses "nan", which strtod accepts.
    if (end == factor->c_str() || *end != '\0' || !(value >= 0)) {
      return Status::InvalidArgument(
          "factor must be a non-negative decimal; got '" + *factor + "'");
    }
    options.max_approximation_factor = value;
  }
  if (const std::string* solver = frame.Find("solver")) {
    options.solver = *solver;
  }
  if (const std::string* metric = frame.Find("metric")) {
    if (*metric == "deletions") {
      options.metric = Metric::kDeletionsOnly;
    } else if (*metric == "substitutions") {
      options.metric = Metric::kDeletionsAndSubstitutions;
    } else {
      return Status::InvalidArgument(
          "metric must be deletions or substitutions; got '" + *metric +
          "'");
    }
  }
  return options;
}

void Session::HandleFrame(Frame frame) {
  ServerCounters& counters = server_->counters_;
  counters.requests_received.fetch_add(1, kRelaxed);
  if (server_->shutting_down()) {
    counters.cancelled.fetch_add(1, kRelaxed);
    Respond(ErrorResponse(frame.id,
                          Status::Cancelled("server is shutting down")));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->inflight.count(frame.id) > 0) {
      counters.protocol_errors.fetch_add(1, kRelaxed);
      Respond(ErrorResponse(
          frame.id, Status::InvalidArgument(
                        "request id " + std::to_string(frame.id) +
                        " is already in flight on this session")));
      return;
    }
  }
  const Status admit = FaultInjectCheck("server.admit");
  if (!admit.ok()) {
    counters.faulted.fetch_add(1, kRelaxed);
    Respond(ErrorResponse(frame.id, admit));
    return;
  }

  if (frame.verb == "repair") {
    HandleRepair(std::move(frame));
    return;
  }
  if (frame.verb == "open" || frame.verb == "splice" ||
      frame.verb == "close") {
    HandleDocVerb(frame);
    return;
  }
  if (frame.verb == "ping") {
    counters.served_ok.fetch_add(1, kRelaxed);
    Respond(ResponseWriter(frame.id, kStatusOk).Finish());
    return;
  }
  if (frame.verb == "stats") {
    counters.served_ok.fetch_add(1, kRelaxed);
    Respond(ResponseWriter(frame.id, kStatusOk)
                .Msg(server_->Stats().ToString())
                .Finish());
    return;
  }
  if (frame.verb == "shutdown") {
    server_->BeginShutdown();
    counters.served_ok.fetch_add(1, kRelaxed);
    Respond(ResponseWriter(frame.id, kStatusBye).Finish());
    return;
  }
  counters.protocol_errors.fetch_add(1, kRelaxed);
  Respond(ErrorResponse(frame.id, Status::InvalidArgument(
                                      "unknown verb '" + frame.verb + "'")));
}

void Session::HandleRepair(Frame frame) {
  ServerCounters& counters = server_->counters_;
  const auto protocol_error = [&](Status status) {
    counters.protocol_errors.fetch_add(1, kRelaxed);
    Respond(ErrorResponse(frame.id, std::move(status)));
  };
  if (const Status known = CheckKnownFields(frame, kRepairFields);
      !known.ok()) {
    protocol_error(known);
    return;
  }
  StatusOr<Options> parsed = RequestOptions(frame);
  if (!parsed.ok()) {
    protocol_error(parsed.status());
    return;
  }
  const std::string* doc_id = frame.Find("doc");
  if (doc_id == nullptr && !frame.has_payload) {
    protocol_error(Status::InvalidArgument(
        "repair requires a len= payload or a doc= field"));
    return;
  }
  if (doc_id != nullptr && frame.has_payload) {
    protocol_error(Status::InvalidArgument(
        "repair doc= takes no payload (splice mutates the doc)"));
    return;
  }

  Options options = std::move(parsed).value();
  // Server cache: payload requests consult it *before* admission control,
  // keyed on the pre-tier options (entries are created at exact tier, so
  // repeats keep hitting — and stay servable — no matter how deep the
  // queue is). A hit costs a tokenize + hash + text rewrite on the Feed
  // thread: linear, solver-free work that cannot pile up in the pool.
  if (doc_id == nullptr && server_->cache_ != nullptr) {
    const textio::TokenizedDocument tokenized =
        textio::TokenizeBrackets(frame.payload, ParenAlphabet::Default());
    const cache::OptionsKey key = cache::OptionsKey::From(options);
    const uint64_t hash = cache::HashSequence(tokenized.seq, key);
    RepairResult cached;
    // count_miss=false: the pooled run's own consult counts this request's
    // miss exactly once.
    if (server_->cache_->Lookup(hash, tokenized.seq, key, &cached,
                                /*count_miss=*/false)) {
      // Reconstruct the exact response text from the original payload +
      // the cached script, preserving non-bracket bytes.
      StatusOr<std::string> repaired_text = textio::ApplyScriptToDocument(
          frame.payload, tokenized, cached.script,
          [](const Paren& paren, const std::vector<std::string>&) {
            return textio::RenderBracketToken(paren);
          });
      if (repaired_text.ok()) {
        counters.served_ok.fetch_add(1, kRelaxed);
        const RepairTelemetry& t = cached.telemetry;
        Respond(ResponseWriter(frame.id, kStatusOk)
                    .Field("distance", cached.distance)
                    .Field("degraded", 0)
                    .FieldF2("factor", t.certified_factor)
                    .Field("solver", t.solver_name.empty()
                                         ? std::string_view("-")
                                         : std::string_view(t.solver_name))
                    .Field("pressure",
                           PressureTierName(PressureTier::kExact))
                    .Field("cache", 1)
                    .Payload(repaired_text.value())
                    .Finish());
        return;
      }
      // Rewrite failure (internal bug only): fall through to a full run.
    }
  }

  const AdmissionController::Decision decision = server_->admission_.Decide(
      static_cast<int64_t>(server_->pool_.QueueDepth()));
  counters.NoteQueueDepth(decision.queue_depth);
  if (decision.tier == PressureTier::kShed) {
    counters.shed_overloaded.fetch_add(1, kRelaxed);
    Respond(ResponseWriter(frame.id, kStatusOverloaded)
                .Field("retry_after_ms", decision.retry_after_ms)
                .Field("queue_depth", decision.queue_depth)
                .Finish());
    return;
  }
  AdmissionController::ApplyTier(decision.tier, &options);
  // Misses (and doc repairs) populate the server cache through the
  // pipeline / RepairDoc consult paths.
  if (server_->cache_ != nullptr) options.cache = server_->cache_.get();
  counters.admitted.fetch_add(1, kRelaxed);

  if (doc_id != nullptr) {
    // Doc-handle repair runs inline on the Feed thread: it shares mutable
    // RepairDoc state with splice, and inline execution serializes them
    // without a per-doc lock.
    auto it = docs_.find(*doc_id);
    if (it == docs_.end()) {
      protocol_error(
          Status::InvalidArgument("doc '" + *doc_id + "' is not open"));
      return;
    }
    RepairResult result;
    Status status;
    try {
      status = it->second->RepairInto(options, &result);
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("solver fault: ") + e.what());
    } catch (...) {
      status = Status::Internal("solver fault: unknown exception");
    }
    if (!status.ok()) {
      counters.faulted.fetch_add(1, kRelaxed);
      Respond(ErrorResponse(frame.id, status));
      return;
    }
    counters.served_ok.fetch_add(1, kRelaxed);
    if (decision.tier != PressureTier::kExact) {
      counters.degraded_pressure.fetch_add(1, kRelaxed);
    }
    const RepairTelemetry& t = result.telemetry;
    Respond(ResponseWriter(frame.id, kStatusOk)
                .Field("distance", result.distance)
                .Field("degraded", result.degraded ? 1 : 0)
                .FieldF2("factor", t.certified_factor)
                .Field("solver", t.solver_name.empty()
                                     ? std::string_view("-")
                                     : std::string_view(t.solver_name))
                .Field("pressure", PressureTierName(decision.tier))
                .Field("incremental", t.incremental ? 1 : 0)
                .Payload(RenderSeq(result.repaired))
                .Finish());
    return;
  }

  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->inflight.insert(frame.id);
    ++state_->outstanding;
  }
  server_->NoteSubmitted();
  // The lambda co-owns the state block, not the Session: the owner may
  // destroy the Session as soon as the response hits the sink.
  server_->pool_.Submit(
      [state = state_, id = frame.id, text = std::move(frame.payload),
       options, tier = decision.tier]() mutable {
        RunPooledRepair(std::move(state), id, std::move(text),
                        std::move(options), tier);
      },
      tag_);
}

void Session::RunPooledRepair(std::shared_ptr<SessionState> state, uint64_t id,
                              std::string text, Options options,
                              PressureTier tier) {
  Server* const server = state->server;
  ServerCounters& counters = server->counters_;
  std::string response;
  const Status dispatch = FaultInjectCheck("server.dispatch");
  if (!dispatch.ok()) {
    counters.faulted.fetch_add(1, kRelaxed);
    response = ErrorResponse(id, dispatch);
  } else {
    const auto start = std::chrono::steady_clock::now();
    // The catch-alls are the isolation boundary: whatever a solver throws
    // (BudgetExceededError is converted below the pipeline, but a future
    // bug may not be) becomes this request's err response, never the
    // process's crash.
    StatusOr<textio::DocumentRepairResult> result =
        [&]() -> StatusOr<textio::DocumentRepairResult> {
      try {
        return textio::RepairDocument(
            text,
            textio::TokenizeBrackets(text, ParenAlphabet::Default()),
            [](const Paren& paren, const std::vector<std::string>&) {
              return textio::RenderBracketToken(paren);
            },
            options);
      } catch (const std::exception& e) {
        return Status::Internal(std::string("solver fault: ") + e.what());
      } catch (...) {
        return Status::Internal("solver fault: unknown exception");
      }
    }();
    server->admission_.RecordLatency(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    if (!result.ok()) {
      counters.faulted.fetch_add(1, kRelaxed);
      response = ErrorResponse(id, result.status());
    } else {
      const textio::DocumentRepairResult& repair = result.value();
      counters.served_ok.fetch_add(1, kRelaxed);
      if (tier != PressureTier::kExact) {
        counters.degraded_pressure.fetch_add(1, kRelaxed);
      }
      const RepairTelemetry& t = repair.telemetry;
      response = ResponseWriter(id, kStatusOk)
                     .Field("distance", repair.distance)
                     .Field("degraded", t.degraded ? 1 : 0)
                     .FieldF2("factor", t.certified_factor)
                     .Field("solver", t.solver_name.empty()
                                          ? std::string_view("-")
                                          : std::string_view(t.solver_name))
                     .Field("pressure", PressureTierName(tier))
                     .Payload(repair.repaired_text)
                     .Finish();
    }
  }
  const Status respond = FaultInjectCheck("server.respond");
  if (!respond.ok()) {
    counters.faulted.fetch_add(1, kRelaxed);
    response = ErrorResponse(id, respond);
  }
  Respond(*state, response);
  FinishRequest(*state, id);
}

void Session::HandleDocVerb(const Frame& frame) {
  ServerCounters& counters = server_->counters_;
  const auto protocol_error = [&](Status status) {
    counters.protocol_errors.fetch_add(1, kRelaxed);
    Respond(ErrorResponse(frame.id, std::move(status)));
  };
  const std::string* doc_id = frame.Find("doc");
  if (doc_id == nullptr || doc_id->empty()) {
    protocol_error(Status::InvalidArgument("verb '" + frame.verb +
                                           "' requires a doc= field"));
    return;
  }

  if (frame.verb == "open") {
    if (const Status known = CheckKnownFields(frame, {"doc"}); !known.ok()) {
      protocol_error(known);
      return;
    }
    if (static_cast<int64_t>(docs_.size()) >=
        server_->options_.max_docs_per_session) {
      counters.faulted.fetch_add(1, kRelaxed);
      Respond(ErrorResponse(
          frame.id,
          Status::ResourceExhausted(
              "session already holds " + std::to_string(docs_.size()) +
              " open docs (max_docs_per_session)")));
      return;
    }
    if (docs_.count(*doc_id) > 0) {
      protocol_error(
          Status::InvalidArgument("doc '" + *doc_id + "' is already open"));
      return;
    }
    auto doc = std::make_unique<RepairDoc>(
        textio::TokenizeBrackets(frame.payload, ParenAlphabet::Default())
            .seq);
    const int64_t tokens = doc->size();
    docs_.emplace(*doc_id, std::move(doc));
    counters.served_ok.fetch_add(1, kRelaxed);
    Respond(ResponseWriter(frame.id, kStatusOk)
                .Field("tokens", tokens)
                .Finish());
    return;
  }

  auto it = docs_.find(*doc_id);
  if (it == docs_.end()) {
    protocol_error(
        Status::InvalidArgument("doc '" + *doc_id + "' is not open"));
    return;
  }

  if (frame.verb == "close") {
    if (const Status known = CheckKnownFields(frame, {"doc"}); !known.ok()) {
      protocol_error(known);
      return;
    }
    docs_.erase(it);
    counters.served_ok.fetch_add(1, kRelaxed);
    Respond(ResponseWriter(frame.id, kStatusOk).Finish());
    return;
  }

  // splice
  if (const Status known = CheckKnownFields(frame, {"doc", "pos", "erase"});
      !known.ok()) {
    protocol_error(known);
    return;
  }
  const StatusOr<int64_t> pos = frame.IntField("pos", -1);
  const StatusOr<int64_t> erase = frame.IntField("erase", -1);
  if (!pos.ok() || !erase.ok()) {
    protocol_error(pos.ok() ? erase.status() : pos.status());
    return;
  }
  if (pos.value() < 0 || erase.value() < 0) {
    protocol_error(
        Status::InvalidArgument("splice requires pos= and erase= fields"));
    return;
  }
  RepairDoc& doc = *it->second;
  if (pos.value() > doc.size() || erase.value() > doc.size() - pos.value()) {
    protocol_error(Status::InvalidArgument(
        "splice [" + std::to_string(pos.value()) + ", " +
        std::to_string(pos.value() + erase.value()) +
        ") out of bounds for " + std::to_string(doc.size()) + " tokens"));
    return;
  }
  doc.Splice(pos.value(), erase.value(),
             textio::TokenizeBrackets(frame.payload,
                                      ParenAlphabet::Default())
                 .seq);
  counters.served_ok.fetch_add(1, kRelaxed);
  Respond(ResponseWriter(frame.id, kStatusOk)
              .Field("tokens", doc.size())
              .Finish());
}

}  // namespace server
}  // namespace dyck
