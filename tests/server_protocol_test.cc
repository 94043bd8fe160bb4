// Protocol adversity tests for the serving stack (src/server): the frame
// grammar, per-request error isolation, admission control, the pressure
// degrade ladder, doc-handle sessions, fault injection, and the dyckfixd
// binary's signal/EOF behaviour.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/server/admission.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/util/budget.h"

#ifndef DYCKFIXD_PATH
#error "DYCKFIXD_PATH must be defined by the build"
#endif

namespace dyck {
namespace server {
namespace {

// ---------------------------------------------------------------------------
// Response parsing for assertions.

struct Response {
  uint64_t id = 0;
  std::string status;
  std::map<std::string, std::string> fields;
  std::string msg;
  std::string payload;
};

std::vector<Response> ParseResponses(const std::string& text) {
  std::vector<Response> responses;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    EXPECT_NE(nl, std::string::npos) << "unterminated response line";
    if (nl == std::string::npos) break;  // NOLINT: helper must return
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    Response response;
    LineScanner scanner(line);
    std::string_view token;
    EXPECT_TRUE(scanner.NextToken(&token)) << line;
    EXPECT_EQ(token, kProtocolMagic) << line;
    EXPECT_TRUE(scanner.NextToken(&token)) << line;
    EXPECT_TRUE(ParseDecimalU64(token, &response.id)) << line;
    EXPECT_TRUE(scanner.NextToken(&token)) << line;
    response.status = std::string(token);
    while (scanner.NextToken(&token)) {
      const size_t eq = token.find('=');
      EXPECT_NE(eq, std::string_view::npos) << line;
      if (eq == std::string_view::npos) break;
      const std::string key(token.substr(0, eq));
      if (key == "msg") {
        response.msg = std::string(token.substr(eq + 1));
        const std::string_view rest = scanner.Rest();
        if (!rest.empty()) {
          response.msg += " ";
          response.msg += std::string(rest);
        }
        break;
      }
      response.fields[key] = std::string(token.substr(eq + 1));
    }
    const auto len = response.fields.find("len");
    if (len != response.fields.end()) {
      const size_t n = static_cast<size_t>(std::stoll(len->second));
      EXPECT_LE(pos + n, text.size()) << "truncated payload";
      if (pos + n > text.size()) break;
      response.payload = text.substr(pos, n);
      pos += n + 1;  // payload + LF
    }
    responses.push_back(std::move(response));
  }
  return responses;
}

const Response* FindResponse(const std::vector<Response>& responses,
                             uint64_t id) {
  for (const Response& response : responses) {
    if (response.id == id) return &response;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// In-process harness: one Server + one Session with a buffering sink.

class TestServer {
 public:
  explicit TestServer(ServerOptions options = {}) : server_(options) {
    session_ = server_.OpenSession([this](std::string_view bytes) {
      std::lock_guard<std::mutex> lock(mu_);
      output_.append(bytes.data(), bytes.size());
    });
  }

  bool Feed(std::string_view bytes) { return session_->Feed(bytes); }

  /// Drains in-flight work and takes everything responded so far.
  std::vector<Response> DrainResponses() {
    server_.Drain();
    std::string taken;
    {
      std::lock_guard<std::mutex> lock(mu_);
      taken.swap(output_);
    }
    return ParseResponses(taken);
  }

  Server& server() { return server_; }
  Session& session() { return *session_; }

 private:
  Server server_;
  std::mutex mu_;
  std::string output_;
  std::unique_ptr<Session> session_;
};

// ---------------------------------------------------------------------------
// Wire grammar units.

TEST(ProtocolWireTest, LineScannerTokenizesAndExposesRest) {
  LineScanner scanner("splice 3  4 ( [ )");
  std::string_view token;
  ASSERT_TRUE(scanner.NextToken(&token));
  EXPECT_EQ(token, "splice");
  ASSERT_TRUE(scanner.NextToken(&token));
  EXPECT_EQ(token, "3");
  ASSERT_TRUE(scanner.NextToken(&token));
  EXPECT_EQ(token, "4");
  EXPECT_EQ(scanner.Rest(), "( [ )");
  EXPECT_FALSE(scanner.AtEnd());

  LineScanner empty("   ");
  EXPECT_FALSE(empty.NextToken(&token));
  EXPECT_TRUE(empty.AtEnd());
}

TEST(ProtocolWireTest, ParseDecimalRejectsJunk) {
  int64_t value = 0;
  EXPECT_TRUE(ParseDecimal("0", &value));
  EXPECT_EQ(value, 0);
  EXPECT_TRUE(ParseDecimal("123456789", &value));
  EXPECT_EQ(value, 123456789);
  EXPECT_FALSE(ParseDecimal("", &value));
  EXPECT_FALSE(ParseDecimal("-3", &value));
  EXPECT_FALSE(ParseDecimal("12x", &value));
  EXPECT_FALSE(ParseDecimal("1 2", &value));
  EXPECT_FALSE(ParseDecimal("99999999999999999999", &value));  // overflow
}

TEST(ProtocolWireTest, ParseSpliceArgsSharedGrammar) {
  SpliceArgs args;
  ASSERT_TRUE(ParseSpliceArgs("3 2 ([", &args).ok());
  EXPECT_EQ(args.pos, 3);
  EXPECT_EQ(args.erase_len, 2);
  EXPECT_EQ(args.insert_text, "([");

  ASSERT_TRUE(ParseSpliceArgs("0 0", &args).ok());
  EXPECT_EQ(args.insert_text, "");

  EXPECT_TRUE(ParseSpliceArgs("x 2", &args).IsInvalidArgument());
  EXPECT_TRUE(ParseSpliceArgs("3", &args).IsInvalidArgument());
  EXPECT_TRUE(ParseSpliceArgs("-1 2", &args).IsInvalidArgument());
}

TEST(ProtocolFrameTest, ParsesHeaderOnlyAndPayloadFrames) {
  FrameParser parser;
  parser.Feed("dyckfix/1 7 ping\ndyckfix/1 8 repair len=4\n(](\x28\n");
  FrameParser::Event event = parser.Next();
  ASSERT_EQ(event.kind, FrameParser::EventKind::kFrame);
  EXPECT_EQ(event.frame.id, 7u);
  EXPECT_EQ(event.frame.verb, "ping");
  EXPECT_FALSE(event.frame.has_payload);

  event = parser.Next();
  ASSERT_EQ(event.kind, FrameParser::EventKind::kFrame);
  EXPECT_EQ(event.frame.id, 8u);
  EXPECT_EQ(event.frame.verb, "repair");
  EXPECT_TRUE(event.frame.has_payload);
  EXPECT_EQ(event.frame.payload, "(]((");

  EXPECT_EQ(parser.Next().kind, FrameParser::EventKind::kNeedMore);
}

TEST(ProtocolFrameTest, ReassemblesByteAtATime) {
  const std::string wire = "dyckfix/1 12 repair len=3 timeout_ms=50\n()(\n";
  FrameParser parser;
  int frames = 0;
  for (const char byte : wire) {
    parser.Feed(std::string_view(&byte, 1));
    FrameParser::Event event = parser.Next();
    if (event.kind == FrameParser::EventKind::kFrame) {
      ++frames;
      EXPECT_EQ(event.frame.id, 12u);
      EXPECT_EQ(event.frame.payload, "()(");
      const std::string* timeout = event.frame.Find("timeout_ms");
      ASSERT_NE(timeout, nullptr);
      EXPECT_EQ(*timeout, "50");
    } else {
      EXPECT_EQ(event.kind, FrameParser::EventKind::kNeedMore);
    }
  }
  EXPECT_EQ(frames, 1);
}

TEST(ProtocolFrameTest, GarbageResyncsAtNextNewline) {
  FrameParser parser;
  parser.Feed("total garbage here\ndyckfix/1 3 ping\n");
  FrameParser::Event event = parser.Next();
  ASSERT_EQ(event.kind, FrameParser::EventKind::kError);
  EXPECT_EQ(event.id, 0u);
  EXPECT_TRUE(event.error.IsInvalidArgument());

  event = parser.Next();
  ASSERT_EQ(event.kind, FrameParser::EventKind::kFrame);
  EXPECT_EQ(event.frame.id, 3u);
}

TEST(ProtocolFrameTest, MalformedHeadersReportParsedId) {
  struct Case {
    const char* wire;
    uint64_t id;
  };
  const Case cases[] = {
      {"dyckfix/1 0 ping\n", 0},              // id must be positive
      {"dyckfix/1 9 PING\n", 9},              // verb must be lowercase
      {"dyckfix/1 9 ping junk\n", 9},         // field without '='
      {"dyckfix/1 9 ping K=v\n", 9},          // bad key charset
      {"dyckfix/1 9 ping a=1 a=2\n", 9},      // duplicate field
      {"dyckfix/1 9 ping len=2 len=2\n", 9},  // duplicate len
      {"dyckfix/1 nine ping\n", 0},           // id not a number
  };
  for (const Case& c : cases) {
    FrameParser parser;
    parser.Feed(c.wire);
    FrameParser::Event event = parser.Next();
    ASSERT_EQ(event.kind, FrameParser::EventKind::kError) << c.wire;
    EXPECT_EQ(event.id, c.id) << c.wire;
    EXPECT_TRUE(event.error.IsInvalidArgument()) << c.wire;
    EXPECT_EQ(parser.Next().kind, FrameParser::EventKind::kNeedMore);
  }
}

TEST(ProtocolFrameTest, OversizedPayloadSkippedExactly) {
  FrameParser::Limits limits;
  limits.max_doc_bytes = 8;
  FrameParser parser(limits);
  const std::string big(32, '(');
  parser.Feed("dyckfix/1 4 repair len=32\n" + big +
              "\ndyckfix/1 5 ping\n");
  FrameParser::Event event = parser.Next();
  ASSERT_EQ(event.kind, FrameParser::EventKind::kError);
  EXPECT_EQ(event.id, 4u);
  EXPECT_TRUE(event.error.IsResourceExhausted());

  // The payload's 32 bytes must not be misread as headers.
  event = parser.Next();
  ASSERT_EQ(event.kind, FrameParser::EventKind::kFrame);
  EXPECT_EQ(event.frame.id, 5u);
}

TEST(ProtocolFrameTest, AbsurdLengthResyncsInsteadOfSkipping) {
  // A length beyond kMaxSkippableBytes is not skipped byte-for-byte; the
  // parser resyncs at the next newline (whatever payload prefix the client
  // did send is discarded as one garbage line).
  FrameParser parser;
  parser.Feed(
      "dyckfix/1 4 repair len=99999999999\n"
      "whatever payload prefix arrived\n"
      "dyckfix/1 5 ping\n");
  FrameParser::Event event = parser.Next();
  ASSERT_EQ(event.kind, FrameParser::EventKind::kError);
  EXPECT_TRUE(event.error.IsResourceExhausted());
  event = parser.Next();
  ASSERT_EQ(event.kind, FrameParser::EventKind::kFrame);
  EXPECT_EQ(event.frame.id, 5u);
}

TEST(ProtocolFrameTest, PayloadMissingTerminatorIsolatedToFrame) {
  FrameParser parser;
  parser.Feed("dyckfix/1 6 repair len=2\n()XXXX\ndyckfix/1 7 ping\n");
  FrameParser::Event event = parser.Next();
  ASSERT_EQ(event.kind, FrameParser::EventKind::kError);
  EXPECT_EQ(event.id, 6u);
  EXPECT_TRUE(event.error.IsInvalidArgument());
  event = parser.Next();
  ASSERT_EQ(event.kind, FrameParser::EventKind::kFrame);
  EXPECT_EQ(event.frame.id, 7u);
}

TEST(ProtocolFrameTest, OverlongHeaderLineRejected) {
  FrameParser parser;
  parser.Feed("dyckfix/1 9 ping " + std::string(kMaxHeaderBytes, 'a') +
              "=b\ndyckfix/1 10 ping\n");
  FrameParser::Event event = parser.Next();
  ASSERT_EQ(event.kind, FrameParser::EventKind::kError);
  EXPECT_TRUE(event.error.IsInvalidArgument());
  event = parser.Next();
  ASSERT_EQ(event.kind, FrameParser::EventKind::kFrame);
  EXPECT_EQ(event.frame.id, 10u);
}

TEST(ProtocolFrameTest, ResponseWriterRoundTrips) {
  const std::string ok = ResponseWriter(3, kStatusOk)
                             .Field("distance", int64_t{2})
                             .FieldF2("factor", 1.0)
                             .Payload("()")
                             .Finish();
  EXPECT_EQ(ok, "dyckfix/1 3 ok distance=2 factor=1.00 len=2\n()\n");

  const std::string err =
      ErrorResponse(9, Status::InvalidArgument("multi\nline reason"));
  EXPECT_EQ(err,
            "dyckfix/1 9 err code=InvalidArgument msg=multi line reason\n");
}

// ---------------------------------------------------------------------------
// Admission ladder units.

TEST(ServerShedTest, AdmissionLadderTiersByDepth) {
  AdmissionConfig config;
  config.max_queue_depth = 8;  // derived: exact <= 4, approx <= 6
  config.workers = 2;
  AdmissionController controller(config);
  EXPECT_EQ(controller.Decide(0).tier, PressureTier::kExact);
  EXPECT_EQ(controller.Decide(4).tier, PressureTier::kExact);
  EXPECT_EQ(controller.Decide(5).tier, PressureTier::kApproximate);
  EXPECT_EQ(controller.Decide(6).tier, PressureTier::kApproximate);
  EXPECT_EQ(controller.Decide(7).tier, PressureTier::kGreedy);
  EXPECT_EQ(controller.Decide(8).tier, PressureTier::kShed);
  EXPECT_GE(controller.Decide(8).retry_after_ms, 1);

  controller.RecordLatency(0.050);  // 50ms EWMA seed
  EXPECT_GE(controller.Decide(8).retry_after_ms, 100);  // 50ms * 8 / 2
}

TEST(ServerShedTest, ApplyTierWalksDegradeLadder) {
  Options exact;
  AdmissionController::ApplyTier(PressureTier::kExact, &exact);
  EXPECT_EQ(exact.solver, "");
  EXPECT_EQ(exact.max_approximation_factor, 1.0);

  Options approx;
  AdmissionController::ApplyTier(PressureTier::kApproximate, &approx);
  EXPECT_EQ(approx.solver, "");
  EXPECT_EQ(approx.max_approximation_factor, 3.0);
  EXPECT_EQ(approx.on_budget_exceeded, DegradePolicy::kApproximate);

  Options greedy;
  AdmissionController::ApplyTier(PressureTier::kGreedy, &greedy);
  EXPECT_EQ(greedy.solver, "greedy");
}

// ---------------------------------------------------------------------------
// End-to-end server behaviour.

ServerOptions SmallServer(int workers = 2) {
  ServerOptions options;
  options.workers = workers;
  return options;
}

TEST(ServerTest, RepairsAndReportsTelemetryFields) {
  TestServer server(SmallServer());
  server.Feed("dyckfix/1 1 repair len=4\n(]((\n");
  const std::vector<Response> responses = server.DrainResponses();
  const Response* response = FindResponse(responses, 1);
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(response->status, "ok");
  EXPECT_EQ(response->fields.at("distance"), "2");
  EXPECT_EQ(response->fields.at("degraded"), "0");
  EXPECT_EQ(response->fields.at("factor"), "1.00");
  EXPECT_EQ(response->fields.at("pressure"), "exact");
  EXPECT_EQ(response->payload, "()()");

  const ServerStats stats = server.server().Stats();
  EXPECT_EQ(stats.requests_received, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.served_ok, 1);
  EXPECT_EQ(stats.shed_overloaded, 0);
}

TEST(ServerTest, NonBracketBytesPreservedInPayload) {
  TestServer server(SmallServer());
  server.Feed("dyckfix/1 1 repair len=9\nfoo(bar]!\n");
  const std::vector<Response> responses = server.DrainResponses();
  const Response* response = FindResponse(responses, 1);
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(response->status, "ok");
  // edit2 retypes ']' to ')'; all other bytes survive verbatim.
  EXPECT_EQ(response->payload, "foo(bar)!");
}

TEST(ServerProtocolTest, MalformedFramesAnswerTypedErrAndStreamContinues) {
  TestServer server(SmallServer());
  server.Feed("how about no\n");
  server.Feed("dyckfix/1 2 frobnicate\n");
  server.Feed("dyckfix/1 3 repair\n");            // no payload, no doc
  server.Feed("dyckfix/1 4 repair len=2 x=1\n()\n");  // unknown field
  server.Feed("dyckfix/1 5 repair len=2\n()\n");  // fine
  const std::vector<Response> responses = server.DrainResponses();
  ASSERT_EQ(responses.size(), 5u);

  const Response* garbage = FindResponse(responses, 0);
  ASSERT_NE(garbage, nullptr);
  EXPECT_EQ(garbage->status, "err");
  EXPECT_EQ(garbage->fields.at("code"), "InvalidArgument");

  EXPECT_EQ(FindResponse(responses, 2)->status, "err");
  EXPECT_EQ(FindResponse(responses, 3)->status, "err");
  EXPECT_EQ(FindResponse(responses, 4)->status, "err");
  const Response* good = FindResponse(responses, 5);
  ASSERT_NE(good, nullptr);
  EXPECT_EQ(good->status, "ok");
  EXPECT_EQ(good->fields.at("distance"), "0");

  const ServerStats stats = server.server().Stats();
  EXPECT_EQ(stats.protocol_errors, 4);
  EXPECT_EQ(stats.served_ok, 1);
}

TEST(ServerProtocolTest, OversizedPayloadGetsResourceExhausted) {
  ServerOptions options = SmallServer();
  options.max_doc_bytes = 16;
  TestServer server(options);
  const std::string big(64, '(');
  server.Feed("dyckfix/1 1 repair len=64\n" + big +
              "\ndyckfix/1 2 repair len=2\n()\n");
  const std::vector<Response> responses = server.DrainResponses();
  const Response* rejected = FindResponse(responses, 1);
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->status, "err");
  EXPECT_EQ(rejected->fields.at("code"), "ResourceExhausted");
  const Response* good = FindResponse(responses, 2);
  ASSERT_NE(good, nullptr);
  EXPECT_EQ(good->status, "ok");
}

TEST(ServerProtocolTest, DuplicateInFlightIdRejected) {
  // One worker chewing a deliberately slow exact solve keeps request 1 in
  // flight while its duplicate arrives on the Feed thread.
  ServerOptions options = SmallServer(/*workers=*/1);
  TestServer server(options);
  const std::string slow(600, '(');
  server.Feed("dyckfix/1 1 repair solver=cubic len=600\n" + slow + "\n");
  server.Feed("dyckfix/1 1 repair len=2\n()\n");
  const std::vector<Response> responses = server.DrainResponses();
  ASSERT_EQ(responses.size(), 2u);
  int ok = 0, err = 0;
  for (const Response& response : responses) {
    EXPECT_EQ(response.id, 1u);
    if (response.status == "ok") ++ok;
    if (response.status == "err") {
      ++err;
      EXPECT_EQ(response.fields.at("code"), "InvalidArgument");
    }
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(err, 1);
}

TEST(ServerProtocolTest, PerRequestBudgetMapsToTypedError) {
  TestServer server(SmallServer());
  const std::string hard(200, '(');
  server.Feed("dyckfix/1 1 repair max_steps=5 degrade=fail len=200\n" +
              hard + "\n");
  server.Feed("dyckfix/1 2 repair max_steps=5 degrade=greedy len=200\n" +
              hard + "\n");
  const std::vector<Response> responses = server.DrainResponses();
  const Response* failed = FindResponse(responses, 1);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->status, "err");
  EXPECT_EQ(failed->fields.at("code"), "ResourceExhausted");

  const Response* degraded = FindResponse(responses, 2);
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(degraded->status, "ok");
  EXPECT_EQ(degraded->fields.at("degraded"), "1");

  const ServerStats stats = server.server().Stats();
  EXPECT_EQ(stats.faulted, 1);
  EXPECT_EQ(stats.served_ok, 1);
}

// strtod accepts "nan", and a NaN factor compares false against every
// bound: it must be refused at the wire, before it keys a cache lookup.
TEST(ServerProtocolTest, NanFactorIsInvalidArgument) {
  ServerOptions options = SmallServer();
  options.cache_bytes = 1 << 20;
  TestServer server(options);
  for (int id = 1; id <= 3; ++id) {
    server.Feed("dyckfix/1 " + std::to_string(id) +
                " repair factor=nan len=4\n(()(\n");
  }
  const std::vector<Response> responses = server.DrainResponses();
  ASSERT_EQ(responses.size(), 3u);
  for (const Response& response : responses) {
    EXPECT_EQ(response.status, "err");
    EXPECT_EQ(response.fields.at("code"), "InvalidArgument");
    EXPECT_NE(response.msg.find("factor"), std::string::npos)
        << response.msg;
  }
  const ServerStats stats = server.server().Stats();
  EXPECT_EQ(stats.protocol_errors, 3);
  EXPECT_EQ(stats.cache_misses, 0);
}

TEST(ServerShedTest, SaturatedQueueShedsWithRetryAfter) {
  ServerOptions options = SmallServer(/*workers=*/1);
  options.max_queue_depth = 2;
  TestServer server(options);
  // One slow request occupies the worker; the rest pile into the bounded
  // queue and the tail must shed.
  const std::string slow(600, '(');
  std::string burst = "dyckfix/1 1 repair solver=cubic len=600\n" + slow +
                      "\n";
  for (int i = 2; i <= 8; ++i) {
    burst += "dyckfix/1 " + std::to_string(i) +
             " repair solver=cubic len=600\n" + slow + "\n";
  }
  server.Feed(burst);
  const std::vector<Response> responses = server.DrainResponses();
  ASSERT_EQ(responses.size(), 8u);
  int ok = 0, shed = 0;
  for (const Response& response : responses) {
    if (response.status == "ok") ++ok;
    if (response.status == "overloaded") {
      ++shed;
      EXPECT_GE(std::stoll(response.fields.at("retry_after_ms")), 1);
      EXPECT_GE(std::stoll(response.fields.at("queue_depth")), 2);
    }
  }
  EXPECT_GE(shed, 1);
  EXPECT_GE(ok, 1);
  EXPECT_EQ(ok + shed, 8);

  const ServerStats stats = server.server().Stats();
  EXPECT_EQ(stats.shed_overloaded, shed);
  EXPECT_GE(stats.queue_depth_high_water, 2);
}

TEST(ServerShedTest, PressureDegradesBeforeShedding) {
  ServerOptions options = SmallServer(/*workers=*/1);
  options.max_queue_depth = 64;
  options.exact_depth_limit = 1;
  options.approx_depth_limit = 2;
  TestServer server(options);
  const std::string slow(600, '(');
  std::string burst;
  for (int i = 1; i <= 6; ++i) {
    burst += "dyckfix/1 " + std::to_string(i) +
             " repair solver=cubic len=600\n" + slow + "\n";
  }
  server.Feed(burst);
  const std::vector<Response> responses = server.DrainResponses();
  ASSERT_EQ(responses.size(), 6u);
  std::map<std::string, int> tiers;
  for (const Response& response : responses) {
    ASSERT_EQ(response.status, "ok");
    ++tiers[response.fields.at("pressure")];
  }
  // The first request sees an empty queue (exact); deeper arrivals must
  // have walked the ladder instead of shedding.
  EXPECT_GE(tiers["exact"], 1);
  EXPECT_GE(tiers["greedy"], 1);
  EXPECT_EQ(server.server().Stats().shed_overloaded, 0);
  EXPECT_EQ(server.server().Stats().degraded_pressure,
            6 - tiers["exact"]);
}

TEST(ServerTest, DocSessionOpenSpliceRepairClose) {
  TestServer server(SmallServer());
  server.Feed("dyckfix/1 1 open doc=a len=4\n(]((\n");
  server.Feed("dyckfix/1 2 repair doc=a\n");
  server.Feed("dyckfix/1 3 splice doc=a pos=4 erase=0 len=2\n))\n");
  server.Feed("dyckfix/1 4 repair doc=a\n");
  server.Feed("dyckfix/1 5 close doc=a\n");
  server.Feed("dyckfix/1 6 repair doc=a\n");  // after close: unknown doc
  const std::vector<Response> responses = server.DrainResponses();
  ASSERT_EQ(responses.size(), 6u);
  EXPECT_EQ(FindResponse(responses, 1)->fields.at("tokens"), "4");
  const Response* first = FindResponse(responses, 2);
  EXPECT_EQ(first->status, "ok");
  EXPECT_EQ(first->fields.at("distance"), "2");
  EXPECT_EQ(FindResponse(responses, 3)->fields.at("tokens"), "6");
  const Response* second = FindResponse(responses, 4);
  EXPECT_EQ(second->status, "ok");
  // "(](())" needs only the ']' retyped once the splice closed the opens.
  EXPECT_EQ(second->fields.at("distance"), "1");
  EXPECT_EQ(second->payload, "()(())");
  EXPECT_EQ(FindResponse(responses, 5)->status, "ok");
  const Response* gone = FindResponse(responses, 6);
  EXPECT_EQ(gone->status, "err");
  EXPECT_EQ(gone->fields.at("code"), "InvalidArgument");
}

TEST(ServerProtocolTest, DocAdversity) {
  ServerOptions options = SmallServer();
  options.max_docs_per_session = 2;
  TestServer server(options);
  server.Feed("dyckfix/1 1 open doc=a len=2\n()\n");
  server.Feed("dyckfix/1 2 open doc=a len=2\n()\n");  // duplicate open
  server.Feed("dyckfix/1 3 splice doc=a pos=9 erase=1 len=0\n\n");  // OOB
  server.Feed("dyckfix/1 4 splice doc=a pos=0\n");   // missing erase=
  server.Feed("dyckfix/1 5 splice doc=zz pos=0 erase=0\n");  // unknown doc
  server.Feed("dyckfix/1 6 open doc=b len=2\n()\n");
  server.Feed("dyckfix/1 7 open doc=c len=2\n()\n");  // over the doc cap
  const std::vector<Response> responses = server.DrainResponses();
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_EQ(FindResponse(responses, 1)->status, "ok");
  EXPECT_EQ(FindResponse(responses, 2)->status, "err");
  const Response* oob = FindResponse(responses, 3);
  EXPECT_EQ(oob->status, "err");
  EXPECT_NE(oob->msg.find("out of bounds"), std::string::npos);
  EXPECT_EQ(FindResponse(responses, 4)->status, "err");
  EXPECT_EQ(FindResponse(responses, 5)->status, "err");
  EXPECT_EQ(FindResponse(responses, 6)->status, "ok");
  const Response* capped = FindResponse(responses, 7);
  EXPECT_EQ(capped->status, "err");
  EXPECT_EQ(capped->fields.at("code"), "ResourceExhausted");
}

TEST(ServerTest, FaultInjectionStormYieldsTypedErrorsNotCrashes) {
  {
    TestServer server(SmallServer(/*workers=*/1));
    ::setenv("DYCKFIX_FAULT_INJECT", "server.admit:1", 1);
    server.Feed("dyckfix/1 1 repair len=2\n()\n");
    std::vector<Response> responses = server.DrainResponses();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, "err");
    EXPECT_EQ(responses[0].fields.at("code"), "DeadlineExceeded");
    ::unsetenv("DYCKFIX_FAULT_INJECT");
  }
  {
    TestServer server(SmallServer(/*workers=*/1));
    ::setenv("DYCKFIX_FAULT_INJECT", "server.dispatch:1:resource", 1);
    server.Feed("dyckfix/1 2 repair len=2\n()\n");
    std::vector<Response> responses = server.DrainResponses();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, "err");
    EXPECT_EQ(responses[0].fields.at("code"), "ResourceExhausted");
    ::unsetenv("DYCKFIX_FAULT_INJECT");
    // The fault is transient: the very next request is served.
    server.Feed("dyckfix/1 3 repair len=2\n()\n");
    responses = server.DrainResponses();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, "ok");
    EXPECT_EQ(server.server().Stats().faulted, 1);
  }
  {
    TestServer server(SmallServer(/*workers=*/1));
    ::setenv("DYCKFIX_FAULT_INJECT", "server.respond:1:cancelled", 1);
    server.Feed("dyckfix/1 4 repair len=2\n()\n");
    std::vector<Response> responses = server.DrainResponses();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, "err");
    EXPECT_EQ(responses[0].fields.at("code"), "Cancelled");
    ::unsetenv("DYCKFIX_FAULT_INJECT");
  }
}

TEST(ServerTest, ShutdownVerbSaysByeAndCancelsLaterRequests) {
  TestServer server(SmallServer());
  EXPECT_TRUE(server.Feed("dyckfix/1 1 ping\n"));
  EXPECT_FALSE(server.Feed("dyckfix/1 2 shutdown\n"));
  EXPECT_FALSE(server.Feed("dyckfix/1 3 repair len=2\n()\n"));
  const std::vector<Response> responses = server.DrainResponses();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(FindResponse(responses, 1)->status, "ok");
  EXPECT_EQ(FindResponse(responses, 2)->status, "bye");
  const Response* cancelled = FindResponse(responses, 3);
  EXPECT_EQ(cancelled->status, "err");
  EXPECT_EQ(cancelled->fields.at("code"), "Cancelled");
  EXPECT_EQ(server.server().Stats().cancelled, 1);
}

TEST(ServerTest, StatsVerbRendersCounters) {
  TestServer server(SmallServer());
  server.Feed("dyckfix/1 1 repair len=2\n)(\n");
  server.server().Drain();
  server.Feed("dyckfix/1 2 stats\n");
  const std::vector<Response> responses = server.DrainResponses();
  const Response* stats = FindResponse(responses, 2);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->status, "ok");
  EXPECT_NE(stats->msg.find("admitted=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The dyckfixd binary: EOF drain, shutdown verb, SIGTERM, poison storms.

struct DaemonRun {
  int exit_code = -1;
  std::string output;
};

DaemonRun RunDaemon(const std::string& args, const std::string& input) {
  const std::string in_path =
      ::testing::TempDir() + "/dyckfixd_in_" +
      std::to_string(reinterpret_cast<uintptr_t>(&args)) + ".txt";
  {
    FILE* out = std::fopen(in_path.c_str(), "wb");
    EXPECT_NE(out, nullptr);
    std::fwrite(input.data(), 1, input.size(), out);
    std::fclose(out);
  }
  const std::string command = std::string(DYCKFIXD_PATH) + " " + args +
                              " < " + in_path + " 2>/dev/null";
  DaemonRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  size_t read = 0;
  while ((read = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, read);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::remove(in_path.c_str());
  return run;
}

TEST(ServerDaemonTest, EofDrainsAndExitsZero) {
  const DaemonRun run = RunDaemon(
      "--workers=2", "dyckfix/1 1 repair len=4\n(]((\n"
                     "dyckfix/1 2 ping\n");
  EXPECT_EQ(run.exit_code, 0);
  const std::vector<Response> responses = ParseResponses(run.output);
  EXPECT_EQ(responses.size(), 2u);
  EXPECT_NE(FindResponse(responses, 1), nullptr);
  EXPECT_NE(FindResponse(responses, 2), nullptr);
}

TEST(ServerDaemonTest, ShutdownVerbExitsZero) {
  const DaemonRun run = RunDaemon(
      "", "dyckfix/1 1 repair len=2\n)(\ndyckfix/1 2 shutdown\n");
  EXPECT_EQ(run.exit_code, 0);
  const std::vector<Response> responses = ParseResponses(run.output);
  const Response* bye = FindResponse(responses, 2);
  ASSERT_NE(bye, nullptr);
  EXPECT_EQ(bye->status, "bye");
  EXPECT_EQ(FindResponse(responses, 1)->status, "ok");
}

TEST(ServerDaemonTest, PoisonStormLeavesWellFormedRequestsServed) {
  std::string storm;
  for (int i = 1; i <= 20; ++i) {
    storm += "complete garbage " + std::to_string(i) + "\n";
    // Absurd length: the parser resyncs, eating the next line as the
    // poison payload's prefix.
    storm += "dyckfix/1 " + std::to_string(100 + i) +
             " repair len=99999999999\npoison payload prefix\n";
    storm += "dyckfix/1 " + std::to_string(i) + " repair len=4\n(]((\n";
  }
  const DaemonRun run = RunDaemon("--workers=2", storm);
  EXPECT_EQ(run.exit_code, 0);
  const std::vector<Response> responses = ParseResponses(run.output);
  int ok = 0;
  for (int i = 1; i <= 20; ++i) {
    const Response* response = FindResponse(responses, i);
    ASSERT_NE(response, nullptr) << "request " << i << " unanswered";
    if (response->status == "ok") ++ok;
  }
  EXPECT_EQ(ok, 20);
}

TEST(ServerDaemonTest, SigtermDrainsInFlightAndExitsZero) {
  int to_child[2], from_child[2];
  ASSERT_EQ(::pipe(to_child), 0);
  ASSERT_EQ(::pipe(from_child), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execl(DYCKFIXD_PATH, "dyckfixd", "--workers=1",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);

  const std::string request = "dyckfix/1 1 repair len=4\n(]((\n";
  // Deliver a request and wait for its response, proving the daemon is
  // mid-conversation when the signal lands.
  ASSERT_EQ(::write(to_child[1], request.data(), request.size() - 2),
            static_cast<ssize_t>(request.size() - 2));
  ASSERT_EQ(::write(to_child[1], request.data() + request.size() - 2, 2),
            2);
  std::string output;
  char buffer[4096];
  while (output.find("dyckfix/1 1 ") == std::string::npos) {
    const ssize_t n = ::read(from_child[0], buffer, sizeof(buffer));
    ASSERT_GT(n, 0) << "daemon closed stream before responding";
    output.append(buffer, static_cast<size_t>(n));
  }

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  for (;;) {
    const ssize_t n = ::read(from_child[0], buffer, sizeof(buffer));
    if (n <= 0) break;  // EOF: daemon drained and exited
    output.append(buffer, static_cast<size_t>(n));
  }
  ::close(to_child[1]);
  ::close(from_child[0]);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const std::vector<Response> responses = ParseResponses(output);
  const Response* response = FindResponse(responses, 1);
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(response->status, "ok");
}

}  // namespace
}  // namespace server
}  // namespace dyck
