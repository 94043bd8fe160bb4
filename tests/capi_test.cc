// Exercises the C API exactly as an FFI consumer would.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>

#include "include/dyckfix.h"

namespace {

TEST(CapiTest, IsBalanced) {
  EXPECT_EQ(dyckfix_is_balanced("([]{})"), 1);
  EXPECT_EQ(dyckfix_is_balanced("func(a[0]) { body(); }"), 1);
  EXPECT_EQ(dyckfix_is_balanced("(]"), 0);
  EXPECT_EQ(dyckfix_is_balanced(""), 1);
  EXPECT_EQ(dyckfix_is_balanced(nullptr), 0);
}

TEST(CapiTest, Distance) {
  long long distance = -1;
  ASSERT_EQ(dyckfix_distance("((", DYCKFIX_METRIC_DELETIONS, &distance),
            DYCKFIX_OK);
  EXPECT_EQ(distance, 2);
  ASSERT_EQ(
      dyckfix_distance("((", DYCKFIX_METRIC_SUBSTITUTIONS, &distance),
      DYCKFIX_OK);
  EXPECT_EQ(distance, 1);
  EXPECT_EQ(dyckfix_distance(nullptr, DYCKFIX_METRIC_DELETIONS, &distance),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(dyckfix_distance("(", DYCKFIX_METRIC_DELETIONS, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
}

TEST(CapiTest, RepairMinimal) {
  char* out = nullptr;
  long long distance = -1;
  ASSERT_EQ(dyckfix_repair("a(b[c)d", DYCKFIX_METRIC_DELETIONS,
                           DYCKFIX_STYLE_MINIMAL, &out, &distance),
            DYCKFIX_OK);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(distance, 1);
  EXPECT_EQ(std::string(out), "a(bc)d");
  dyckfix_string_free(out);
}

TEST(CapiTest, RepairPreserve) {
  char* out = nullptr;
  long long distance = -1;
  ASSERT_EQ(dyckfix_repair("{\"a\": [1, 2}", DYCKFIX_METRIC_SUBSTITUTIONS,
                           DYCKFIX_STYLE_PRESERVE, &out, &distance),
            DYCKFIX_OK);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(std::string(out), "{\"a\": [1, 2]}");
  EXPECT_EQ(distance, 1);
  dyckfix_string_free(out);
}

TEST(CapiTest, RepairBalancedIsIdentity) {
  char* out = nullptr;
  long long distance = -1;
  ASSERT_EQ(dyckfix_repair("nothing to fix ()", DYCKFIX_METRIC_DELETIONS,
                           DYCKFIX_STYLE_MINIMAL, &out, &distance),
            DYCKFIX_OK);
  EXPECT_EQ(std::string(out), "nothing to fix ()");
  EXPECT_EQ(distance, 0);
  dyckfix_string_free(out);
}

TEST(CapiTest, NullDistanceOutIsOptionalForRepair) {
  char* out = nullptr;
  ASSERT_EQ(dyckfix_repair("(", DYCKFIX_METRIC_DELETIONS,
                           DYCKFIX_STYLE_MINIMAL, &out, nullptr),
            DYCKFIX_OK);
  dyckfix_string_free(out);
}

TEST(CapiTest, FreeNullIsNoop) { dyckfix_string_free(nullptr); }

TEST(CapiTest, RepairEmptyString) {
  // The documented contract excludes embedded NULs, not the empty
  // document: "" is balanced and must round-trip unchanged.
  char* out = nullptr;
  long long distance = -1;
  ASSERT_EQ(dyckfix_repair("", DYCKFIX_METRIC_SUBSTITUTIONS,
                           DYCKFIX_STYLE_MINIMAL, &out, &distance),
            DYCKFIX_OK);
  ASSERT_NE(out, nullptr);
  EXPECT_STREQ(out, "");
  EXPECT_EQ(distance, 0);
  dyckfix_string_free(out);
  EXPECT_EQ(dyckfix_distance("", DYCKFIX_METRIC_DELETIONS, &distance),
            DYCKFIX_OK);
  EXPECT_EQ(distance, 0);
}

TEST(CapiTest, RepairNullOutParams) {
  char* out = nullptr;
  EXPECT_EQ(dyckfix_repair(nullptr, DYCKFIX_METRIC_DELETIONS,
                           DYCKFIX_STYLE_MINIMAL, &out, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(out, nullptr);
  EXPECT_EQ(dyckfix_repair("(", DYCKFIX_METRIC_DELETIONS,
                           DYCKFIX_STYLE_MINIMAL, nullptr, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
}

TEST(CapiTest, LastTelemetryReflectsLastRepairOnThisThread) {
  EXPECT_EQ(dyckfix_last_telemetry(nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  /* A thread that never repaired has no snapshot. */
  std::thread([] {
    dyckfix_telemetry fresh;
    EXPECT_EQ(dyckfix_last_telemetry(&fresh), DYCKFIX_ERROR_NO_TELEMETRY);
  }).join();

  char* out = nullptr;
  long long distance = -1;
  ASSERT_EQ(dyckfix_repair("a(b[c)d", DYCKFIX_METRIC_DELETIONS,
                           DYCKFIX_STYLE_MINIMAL, &out, &distance),
            DYCKFIX_OK);
  dyckfix_string_free(out);

  dyckfix_telemetry t;
  ASSERT_EQ(dyckfix_last_telemetry(&t), DYCKFIX_OK);
  EXPECT_EQ(t.input_length, 3); /* "(", "[", ")" */
  EXPECT_EQ(t.algorithm, DYCKFIX_ALGORITHM_FPT);
  EXPECT_EQ(t.balanced_fast_path, 0);
  EXPECT_EQ(t.seq_copies, 0);
  EXPECT_GE(t.doubling_iterations, 1);
  EXPECT_GE(t.solve_bound, 1);
  EXPECT_GE(t.normalize_seconds, 0.0);
  EXPECT_GE(t.solve_seconds, 0.0);

  /* A balanced repair overwrites the snapshot with the fast-path shape. */
  ASSERT_EQ(dyckfix_repair("()", DYCKFIX_METRIC_DELETIONS,
                           DYCKFIX_STYLE_MINIMAL, &out, &distance),
            DYCKFIX_OK);
  dyckfix_string_free(out);
  ASSERT_EQ(dyckfix_last_telemetry(&t), DYCKFIX_OK);
  EXPECT_EQ(t.balanced_fast_path, 1);
  EXPECT_EQ(t.algorithm, DYCKFIX_ALGORITHM_AUTO);
  EXPECT_EQ(t.input_length, 2);
}

TEST(CapiTest, BatchRepairBasic) {
  const char* texts[] = {"a(b[c)d", "()", nullptr, "(("};
  char** out_texts = nullptr;
  int* out_codes = nullptr;
  long long* out_distances = nullptr;
  ASSERT_EQ(dyckfix_repair_batch(texts, 4, DYCKFIX_METRIC_DELETIONS,
                                 DYCKFIX_STYLE_MINIMAL, /*jobs=*/2,
                                 &out_texts, &out_codes, &out_distances),
            DYCKFIX_OK);
  ASSERT_NE(out_texts, nullptr);
  ASSERT_NE(out_codes, nullptr);
  ASSERT_NE(out_distances, nullptr);

  EXPECT_EQ(out_codes[0], DYCKFIX_OK);
  EXPECT_STREQ(out_texts[0], "a(bc)d");
  EXPECT_EQ(out_distances[0], 1);

  EXPECT_EQ(out_codes[1], DYCKFIX_OK);
  EXPECT_STREQ(out_texts[1], "()");
  EXPECT_EQ(out_distances[1], 0);

  /* The NULL document fails alone; the batch and its neighbours survive. */
  EXPECT_EQ(out_codes[2], DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(out_texts[2], nullptr);
  EXPECT_EQ(out_distances[2], -1);

  EXPECT_EQ(out_codes[3], DYCKFIX_OK);
  EXPECT_STREQ(out_texts[3], "");
  EXPECT_EQ(out_distances[3], 2);

  dyckfix_batch_free(out_texts, out_codes, out_distances, 4);
}

TEST(CapiTest, BatchRepairMatchesSerial) {
  const char* texts[] = {"((",     "{\"a\": [1, 2}", "([)](",
                         "<p>ok",  "nothing here",   "",
                         "[[[]]",  "f(x[0]) {"};
  const size_t count = sizeof(texts) / sizeof(texts[0]);
  char** out_texts = nullptr;
  int* out_codes = nullptr;
  long long* out_distances = nullptr;
  ASSERT_EQ(dyckfix_repair_batch(texts, count, DYCKFIX_METRIC_SUBSTITUTIONS,
                                 DYCKFIX_STYLE_PRESERVE, /*jobs=*/0,
                                 &out_texts, &out_codes, &out_distances),
            DYCKFIX_OK);
  for (size_t i = 0; i < count; ++i) {
    char* serial = nullptr;
    long long serial_distance = -1;
    ASSERT_EQ(dyckfix_repair(texts[i], DYCKFIX_METRIC_SUBSTITUTIONS,
                             DYCKFIX_STYLE_PRESERVE, &serial,
                             &serial_distance),
              DYCKFIX_OK);
    EXPECT_EQ(out_codes[i], DYCKFIX_OK) << "doc " << i;
    EXPECT_STREQ(out_texts[i], serial) << "doc " << i;
    EXPECT_EQ(out_distances[i], serial_distance) << "doc " << i;
    dyckfix_string_free(serial);
  }
  dyckfix_batch_free(out_texts, out_codes, out_distances, count);
}

TEST(CapiTest, BatchRepairArgumentValidation) {
  const char* texts[] = {"()"};
  char** out_texts = nullptr;
  int* out_codes = nullptr;
  EXPECT_EQ(dyckfix_repair_batch(nullptr, 1, DYCKFIX_METRIC_DELETIONS,
                                 DYCKFIX_STYLE_MINIMAL, 1, &out_texts,
                                 &out_codes, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(dyckfix_repair_batch(texts, 1, DYCKFIX_METRIC_DELETIONS,
                                 DYCKFIX_STYLE_MINIMAL, 1, nullptr,
                                 &out_codes, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(dyckfix_repair_batch(texts, 1, DYCKFIX_METRIC_DELETIONS,
                                 DYCKFIX_STYLE_MINIMAL, 1, &out_texts,
                                 nullptr, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(dyckfix_repair_batch(texts, 1, DYCKFIX_METRIC_DELETIONS,
                                 DYCKFIX_STYLE_MINIMAL, /*jobs=*/-1,
                                 &out_texts, &out_codes, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(out_texts, nullptr);
  EXPECT_EQ(out_codes, nullptr);
}

TEST(CapiTest, BatchRepairCountZero) {
  char** out_texts = reinterpret_cast<char**>(0x1);
  int* out_codes = reinterpret_cast<int*>(0x1);
  long long* out_distances = reinterpret_cast<long long*>(0x1);
  ASSERT_EQ(dyckfix_repair_batch(nullptr, 0, DYCKFIX_METRIC_DELETIONS,
                                 DYCKFIX_STYLE_MINIMAL, 1, &out_texts,
                                 &out_codes, &out_distances),
            DYCKFIX_OK);
  EXPECT_EQ(out_texts, nullptr);
  EXPECT_EQ(out_codes, nullptr);
  EXPECT_EQ(out_distances, nullptr);
  dyckfix_batch_free(out_texts, out_codes, out_distances, 0);
}

TEST(CapiTest, BatchRepairNullDistancesIsOptional) {
  const char* texts[] = {"(("};
  char** out_texts = nullptr;
  int* out_codes = nullptr;
  ASSERT_EQ(dyckfix_repair_batch(texts, 1, DYCKFIX_METRIC_DELETIONS,
                                 DYCKFIX_STYLE_MINIMAL, 1, &out_texts,
                                 &out_codes, nullptr),
            DYCKFIX_OK);
  EXPECT_EQ(out_codes[0], DYCKFIX_OK);
  EXPECT_STREQ(out_texts[0], "");
  dyckfix_batch_free(out_texts, out_codes, nullptr, 1);
}

TEST(CapiTest, BatchFreeNullIsNoop) {
  dyckfix_batch_free(nullptr, nullptr, nullptr, 3);
}

TEST(CapiTest, Version) {
  EXPECT_STREQ(dyckfix_version(), "1.0.0");
}

/* The text form of gen::ManyValleys(32, 16): every symbol needs an edit
 * (edit2 = 512), so the doubling driver climbs far beyond any test-scale
 * budget. Used to force budget trips through the C surface. */
std::string SlowText() {
  std::string text;
  for (int v = 0; v < 32; ++v) {
    text.append(16, '(');
    text.append(16, ']');
  }
  return text;
}

TEST(CapiOptionsTest, InitFillsTheDocumentedDefaults) {
  dyckfix_options opts;
  std::memset(&opts, 0x5a, sizeof(opts));
  dyckfix_options_init(&opts);
  EXPECT_EQ(opts.metric, DYCKFIX_METRIC_SUBSTITUTIONS);
  EXPECT_EQ(opts.style, DYCKFIX_STYLE_MINIMAL);
  EXPECT_EQ(opts.max_distance, 0);
  EXPECT_EQ(opts.timeout_ms, 0);
  EXPECT_EQ(opts.max_work_steps, 0);
  EXPECT_EQ(opts.degrade, DYCKFIX_DEGRADE_FAIL);
  EXPECT_EQ(opts.algorithm, nullptr);
  dyckfix_options_init(nullptr); /* documented no-op */
}

TEST(CapiOptionsTest, AlgorithmSelectsForcedSolversByName) {
  /* "auto" and forced registry names repair identically. */
  const char* text = "(()(";
  for (const char* algorithm :
       {"auto", "fpt", "fpt-deletion", "cubic", "branching"}) {
    dyckfix_options opts;
    dyckfix_options_init(&opts);
    opts.metric = DYCKFIX_METRIC_DELETIONS;
    opts.algorithm = algorithm;
    char* out = nullptr;
    long long distance = -1;
    ASSERT_EQ(dyckfix_repair_opts(text, &opts, &out, &distance, nullptr),
              DYCKFIX_OK)
        << algorithm << ": " << dyckfix_last_error();
    EXPECT_EQ(distance, 2) << algorithm;  /* edit1("(()(") = 2 */
    dyckfix_string_free(out);
  }
}

TEST(CapiOptionsTest, LastSolverAndTelemetryNameTheSolverThatRan) {
  dyckfix_options opts;
  dyckfix_options_init(&opts);
  opts.metric = DYCKFIX_METRIC_DELETIONS;
  opts.algorithm = "cubic";
  char* out = nullptr;
  long long distance = -1;
  ASSERT_EQ(dyckfix_repair_opts("(()(", &opts, &out, &distance, nullptr),
            DYCKFIX_OK);
  dyckfix_string_free(out);
  EXPECT_STREQ(dyckfix_last_solver(), "cubic");
  dyckfix_telemetry telemetry;
  ASSERT_EQ(dyckfix_last_telemetry(&telemetry), DYCKFIX_OK);
  EXPECT_STREQ(telemetry.solver, "cubic");
  EXPECT_EQ(telemetry.algorithm, DYCKFIX_ALGORITHM_CUBIC);

  /* The balanced fast path runs no solver. */
  opts.algorithm = nullptr;
  ASSERT_EQ(dyckfix_repair_opts("()", &opts, &out, &distance, nullptr),
            DYCKFIX_OK)
      << dyckfix_last_error();
  dyckfix_string_free(out);
  EXPECT_STREQ(dyckfix_last_solver(), "");

  /* Under the planner, the telemetry names whatever it picked. */
  ASSERT_EQ(dyckfix_repair_opts("(()(", &opts, &out, &distance, nullptr),
            DYCKFIX_OK);
  dyckfix_string_free(out);
  EXPECT_STRNE(dyckfix_last_solver(), "");
}

TEST(CapiOptionsTest, UnsupportedSolverMetricComboSurfacesVerbatim) {
  /* banded is deletions-only: forcing it under the substitution metric
   * must fail with the registry's exact capability message. */
  dyckfix_options opts;
  dyckfix_options_init(&opts);
  opts.metric = DYCKFIX_METRIC_SUBSTITUTIONS;
  opts.algorithm = "banded";
  char* out = nullptr;
  long long distance = -1;
  EXPECT_EQ(dyckfix_repair_opts("(()(", &opts, &out, &distance, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_STREQ(dyckfix_last_error(),
               "InvalidArgument: solver 'banded' does not support the "
               "deletions+substitutions metric (capability: deletions-only)");

  opts.algorithm = "no-such-solver";
  EXPECT_EQ(dyckfix_repair_opts("(()(", &opts, &out, &distance, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_STREQ(dyckfix_last_error(),
               "InvalidArgument: unknown solver 'no-such-solver'");
}

TEST(CapiOptionsTest, ContextLastSolverTracksTheContext) {
  dyckfix_context* ctx = dyckfix_context_create();
  ASSERT_NE(ctx, nullptr);
  EXPECT_STREQ(dyckfix_context_last_solver(nullptr), "");
  EXPECT_STREQ(dyckfix_context_last_solver(ctx), "");
  dyckfix_options opts;
  dyckfix_options_init(&opts);
  opts.metric = DYCKFIX_METRIC_DELETIONS;
  opts.algorithm = "fpt-deletion";
  char* out = nullptr;
  long long distance = -1;
  ASSERT_EQ(
      dyckfix_context_repair(ctx, "(()(", &opts, &out, &distance, nullptr),
      DYCKFIX_OK);
  dyckfix_string_free(out);
  EXPECT_STREQ(dyckfix_context_last_solver(ctx), "fpt-deletion");
  dyckfix_telemetry telemetry;
  ASSERT_EQ(dyckfix_context_telemetry(ctx, &telemetry), DYCKFIX_OK);
  EXPECT_STREQ(telemetry.solver, "fpt-deletion");
  dyckfix_context_free(ctx);
}

TEST(CapiOptionsTest, RepairOptsDefaultsMatchPlainRepair) {
  const char* text = "{\"a\": [1, 2}";
  char* plain = nullptr;
  long long plain_distance = -1;
  ASSERT_EQ(dyckfix_repair(text, DYCKFIX_METRIC_SUBSTITUTIONS,
                           DYCKFIX_STYLE_MINIMAL, &plain, &plain_distance),
            DYCKFIX_OK);

  dyckfix_options opts;
  dyckfix_options_init(&opts);
  char* out = nullptr;
  long long distance = -1;
  int degraded = -1;
  ASSERT_EQ(dyckfix_repair_opts(text, &opts, &out, &distance, &degraded),
            DYCKFIX_OK);
  EXPECT_STREQ(out, plain);
  EXPECT_EQ(distance, plain_distance);
  EXPECT_EQ(distance, 1);
  EXPECT_EQ(degraded, 0);
  EXPECT_STREQ(dyckfix_last_error(), "");
  dyckfix_string_free(plain);
  dyckfix_string_free(out);
}

TEST(CapiOptionsTest, TinyStepBudgetDegradesUnderGreedy) {
  dyckfix_options opts;
  dyckfix_options_init(&opts);
  opts.max_work_steps = 1;
  opts.degrade = DYCKFIX_DEGRADE_GREEDY;
  char* out = nullptr;
  long long distance = -1;
  int degraded = -1;
  ASSERT_EQ(dyckfix_repair_opts("(((([[[[", &opts, &out, &distance,
                                &degraded),
            DYCKFIX_OK);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(degraded, 1);
  EXPECT_GE(distance, 4); /* exact edit2 of "(((([[[[" is 4 */
  EXPECT_EQ(dyckfix_is_balanced(out), 1);
  dyckfix_string_free(out);

  dyckfix_telemetry t;
  ASSERT_EQ(dyckfix_last_telemetry(&t), DYCKFIX_OK);
  EXPECT_EQ(t.degraded, 1);
  EXPECT_GT(t.budget_steps, 0);
}

TEST(CapiOptionsTest, TinyStepBudgetFailsUnderFailPolicy) {
  dyckfix_options opts;
  dyckfix_options_init(&opts);
  opts.max_work_steps = 1; /* degrade stays DYCKFIX_DEGRADE_FAIL */
  char* out = nullptr;
  long long distance = -1;
  int degraded = -1;
  EXPECT_EQ(dyckfix_repair_opts("(((([[[[", &opts, &out, &distance,
                                &degraded),
            DYCKFIX_ERROR_RESOURCE_EXHAUSTED);
  EXPECT_EQ(out, nullptr);
  EXPECT_NE(std::string(dyckfix_last_error()).find("work-step cap"),
            std::string::npos)
      << dyckfix_last_error();
}

TEST(CapiOptionsTest, InvalidValuesGetSpecificErrors) {
  char* out = nullptr;
  long long distance = -1;

  dyckfix_options opts;
  dyckfix_options_init(&opts);
  opts.timeout_ms = -5;
  EXPECT_EQ(dyckfix_repair_opts("()", &opts, &out, &distance, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(dyckfix_last_error())
                .find("timeout_ms must be >= 0 (0 = unlimited), got -5"),
            std::string::npos)
      << dyckfix_last_error();

  dyckfix_options_init(&opts);
  opts.max_work_steps = -1;
  EXPECT_EQ(dyckfix_repair_opts("()", &opts, &out, &distance, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(dyckfix_last_error()).find("max_work_steps"),
            std::string::npos);

  dyckfix_options_init(&opts);
  opts.max_distance = -3;
  EXPECT_EQ(dyckfix_repair_opts("()", &opts, &out, &distance, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(dyckfix_last_error()).find("max_distance"),
            std::string::npos);

  dyckfix_options_init(&opts);
  opts.degrade = 7;
  EXPECT_EQ(dyckfix_repair_opts("()", &opts, &out, &distance, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(dyckfix_last_error()).find("unknown degrade mode 7"),
            std::string::npos)
      << dyckfix_last_error();

  dyckfix_options_init(&opts);
  opts.metric = 9;
  EXPECT_EQ(dyckfix_repair_opts("()", &opts, &out, &distance, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(dyckfix_last_error()).find("unknown metric 9"),
            std::string::npos);

  /* NaN fails every comparison, so a range check alone would let it in. */
  dyckfix_options_init(&opts);
  opts.max_approx_factor = std::nan("");
  EXPECT_EQ(dyckfix_repair_opts("(()(", &opts, &out, &distance, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(dyckfix_last_error()).find("max_approx_factor"),
            std::string::npos)
      << dyckfix_last_error();

  /* NULL opts is invalid too. */
  EXPECT_EQ(dyckfix_repair_opts("()", nullptr, &out, &distance, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(out, nullptr);

  /* A subsequent success clears the sticky message. */
  dyckfix_options_init(&opts);
  ASSERT_EQ(dyckfix_repair_opts("()", &opts, &out, &distance, nullptr),
            DYCKFIX_OK);
  EXPECT_STREQ(dyckfix_last_error(), "");
  dyckfix_string_free(out);
}

TEST(CapiBatchOptsTest, MatchesPlainBatchWithoutBudgets) {
  const char* texts[] = {"((", "{\"a\": [1, 2}", "", "([)]("};
  const size_t count = sizeof(texts) / sizeof(texts[0]);
  dyckfix_options opts;
  dyckfix_options_init(&opts);
  char** out_texts = nullptr;
  int* out_codes = nullptr;
  long long* out_distances = nullptr;
  int* out_degraded = nullptr;
  ASSERT_EQ(dyckfix_repair_batch_opts(texts, count, &opts, /*jobs=*/2,
                                      /*batch_timeout_ms=*/0, &out_texts,
                                      &out_codes, &out_distances,
                                      &out_degraded),
            DYCKFIX_OK);
  for (size_t i = 0; i < count; ++i) {
    char* serial = nullptr;
    long long serial_distance = -1;
    ASSERT_EQ(dyckfix_repair(texts[i], DYCKFIX_METRIC_SUBSTITUTIONS,
                             DYCKFIX_STYLE_MINIMAL, &serial,
                             &serial_distance),
              DYCKFIX_OK);
    EXPECT_EQ(out_codes[i], DYCKFIX_OK) << "doc " << i;
    EXPECT_STREQ(out_texts[i], serial) << "doc " << i;
    EXPECT_EQ(out_distances[i], serial_distance) << "doc " << i;
    EXPECT_EQ(out_degraded[i], 0) << "doc " << i;
    dyckfix_string_free(serial);
  }
  dyckfix_batch_free(out_texts, out_codes, out_distances, count);
  dyckfix_batch_free(nullptr, out_degraded, nullptr, 0);
}

TEST(CapiBatchOptsTest, BatchDeadlineCancelsQueuedDocuments) {
  /* Two budget-busters pin both workers past the 100ms batch deadline;
   * the queued documents must come back DYCKFIX_ERROR_CANCELLED without
   * running. Generous code set for the busters themselves: deadline or
   * cancelled, whichever their next checkpoint observes first. */
  const std::string slow = SlowText();
  const char* texts[] = {slow.c_str(), slow.c_str(), "((", "()", "[", "{}"};
  const size_t count = sizeof(texts) / sizeof(texts[0]);
  dyckfix_options opts;
  dyckfix_options_init(&opts);
  char** out_texts = nullptr;
  int* out_codes = nullptr;
  long long* out_distances = nullptr;
  int* out_degraded = nullptr;
  ASSERT_EQ(dyckfix_repair_batch_opts(texts, count, &opts, /*jobs=*/2,
                                      /*batch_timeout_ms=*/100, &out_texts,
                                      &out_codes, &out_distances,
                                      &out_degraded),
            DYCKFIX_OK);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(out_codes[i] == DYCKFIX_ERROR_DEADLINE_EXCEEDED ||
                out_codes[i] == DYCKFIX_ERROR_CANCELLED)
        << "slow doc " << i << " code " << out_codes[i];
    EXPECT_EQ(out_texts[i], nullptr);
    EXPECT_EQ(out_distances[i], -1);
  }
  for (size_t i = 2; i < count; ++i) {
    EXPECT_EQ(out_codes[i], DYCKFIX_ERROR_CANCELLED) << "queued doc " << i;
    EXPECT_EQ(out_texts[i], nullptr);
    EXPECT_EQ(out_degraded[i], 0);
  }
  dyckfix_batch_free(out_texts, out_codes, out_distances, count);
  dyckfix_batch_free(nullptr, out_degraded, nullptr, 0);
}

TEST(CapiBatchOptsTest, DocTimeoutWithGreedyDegradesTheSlowSlot) {
  const std::string slow = SlowText();
  const char* texts[] = {"((", slow.c_str(), "{\"a\": [1, 2}"};
  const size_t count = sizeof(texts) / sizeof(texts[0]);
  dyckfix_options opts;
  dyckfix_options_init(&opts);
  opts.timeout_ms = 50;
  opts.degrade = DYCKFIX_DEGRADE_GREEDY;
  char** out_texts = nullptr;
  int* out_codes = nullptr;
  long long* out_distances = nullptr;
  int* out_degraded = nullptr;
  ASSERT_EQ(dyckfix_repair_batch_opts(texts, count, &opts, /*jobs=*/2,
                                      /*batch_timeout_ms=*/0, &out_texts,
                                      &out_codes, &out_distances,
                                      &out_degraded),
            DYCKFIX_OK);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(out_codes[i], DYCKFIX_OK) << "doc " << i;
    EXPECT_EQ(dyckfix_is_balanced(out_texts[i]), 1) << "doc " << i;
  }
  EXPECT_EQ(out_degraded[0], 0);
  EXPECT_EQ(out_degraded[1], 1);
  EXPECT_EQ(out_degraded[2], 0);
  EXPECT_GE(out_distances[1], 512); /* exact edit2 of SlowText() */
  dyckfix_batch_free(out_texts, out_codes, out_distances, count);
  dyckfix_batch_free(nullptr, out_degraded, nullptr, 0);
}

TEST(CapiBatchOptsTest, ValidatesItsArguments) {
  const char* texts[] = {"()"};
  dyckfix_options opts;
  dyckfix_options_init(&opts);
  char** out_texts = nullptr;
  int* out_codes = nullptr;
  EXPECT_EQ(dyckfix_repair_batch_opts(texts, 1, &opts, 1,
                                      /*batch_timeout_ms=*/-1, &out_texts,
                                      &out_codes, nullptr, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(dyckfix_last_error()).find("batch_timeout_ms"),
            std::string::npos)
      << dyckfix_last_error();
  EXPECT_EQ(dyckfix_repair_batch_opts(texts, 1, nullptr, 1, 0, &out_texts,
                                      &out_codes, nullptr, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  opts.degrade = 3;
  EXPECT_EQ(dyckfix_repair_batch_opts(texts, 1, &opts, 1, 0, &out_texts,
                                      &out_codes, nullptr, nullptr),
            DYCKFIX_ERROR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(dyckfix_last_error()).find("unknown degrade mode"),
            std::string::npos);
  EXPECT_EQ(out_texts, nullptr);
  EXPECT_EQ(out_codes, nullptr);
}

}  // namespace
