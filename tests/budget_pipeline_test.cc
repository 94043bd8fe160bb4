// Budget enforcement through the repair pipeline: real step-cap trips,
// deterministic fault-injection trips at every solver checkpoint, the
// kFail / kApproximate / kGreedy degradation ladder, the degraded >= exact
// differential on adversarial inputs, and the budget fields of
// RepairTelemetry.

#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>

#include "src/core/dyck.h"
#include "src/gen/adversarial.h"
#include "src/util/budget.h"

namespace dyck {
namespace {

ParenSeq Parse(const std::string& text) {
  return ParenAlphabet::Default().Parse(text).value();
}

class ScopedFaultInject {
 public:
  explicit ScopedFaultInject(const char* value) {
    ::setenv("DYCKFIX_FAULT_INJECT", value, /*overwrite=*/1);
  }
  ~ScopedFaultInject() { ::unsetenv("DYCKFIX_FAULT_INJECT"); }
};

// Eight unmatched opens: deletion distance 8, substitution distance 4.
const char* kEightOpens = "((((((((";

// --- Fault-injection coverage: one trip per instrumented checkpoint. ---

struct CheckpointCase {
  const char* checkpoint;
  Metric metric;
  const char* solver;
};

// Without a printer gtest dumps CheckpointCase as raw bytes, and the
// pointers in that dump made the discovered ctest names change on every
// build.
void PrintTo(const CheckpointCase& c, std::ostream* os) {
  *os << "checkpoint=" << c.checkpoint << " metric="
      << (c.metric == Metric::kDeletionsOnly ? "deletions" : "substitutions")
      << " solver=" << c.solver;
}

class BudgetCheckpointTest
    : public ::testing::TestWithParam<CheckpointCase> {};

TEST_P(BudgetCheckpointTest, FailPolicyReturnsTheInjectedStatus) {
  const CheckpointCase& c = GetParam();
  const std::string spec = std::string(c.checkpoint) + ":1";
  ScopedFaultInject env(spec.c_str());

  Options options;
  options.metric = c.metric;
  options.solver = c.solver;
  options.on_budget_exceeded = DegradePolicy::kFail;
  const auto result = Repair(Parse(kEightOpens), options);
  ASSERT_FALSE(result.ok()) << "checkpoint " << c.checkpoint
                            << " was never polled";
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
}

TEST_P(BudgetCheckpointTest, GreedyPolicyDegradesWithTelemetry) {
  const CheckpointCase& c = GetParam();
  const std::string spec = std::string(c.checkpoint) + ":1";
  ScopedFaultInject env(spec.c_str());

  Options options;
  options.metric = c.metric;
  options.solver = c.solver;
  options.on_budget_exceeded = DegradePolicy::kGreedy;
  const auto result = Repair(Parse(kEightOpens), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degraded);
  EXPECT_TRUE(IsBalanced(result->repaired));
  EXPECT_EQ(result->script.Cost(), result->distance);

  const RepairTelemetry& t = result->telemetry;
  EXPECT_TRUE(t.degraded);
  EXPECT_EQ(t.budget_checkpoint, c.checkpoint);
  EXPECT_EQ(t.budget_trip_code,
            static_cast<int>(StatusCode::kDeadlineExceeded));
  EXPECT_GT(t.budget_steps, 0);
  EXPECT_GE(t.exact_lower_bound, 1);
  EXPECT_GE(result->distance, t.exact_lower_bound);
}

INSTANTIATE_TEST_SUITE_P(
    AllCheckpoints, BudgetCheckpointTest,
    ::testing::Values(
        CheckpointCase{"pipeline.doubling", Metric::kDeletionsOnly, "fpt"},
        CheckpointCase{"fpt.deletion.solve", Metric::kDeletionsOnly, "fpt"},
        CheckpointCase{"fpt.substitution.solve",
                       Metric::kDeletionsAndSubstitutions, "fpt"},
        CheckpointCase{"baseline.cubic.fill", Metric::kDeletionsOnly,
                       "cubic"},
        CheckpointCase{"baseline.branching.search", Metric::kDeletionsOnly,
                       "branching"}),
    [](const ::testing::TestParamInfo<CheckpointCase>& info) {
      std::string name = info.param.checkpoint;
      for (char& ch : name) {
        if (ch == '.') ch = '_';
      }
      return name;
    });

TEST(BudgetFaultInjectTest, InjectedCancellationNeverDegrades) {
  ScopedFaultInject env("pipeline.doubling:1:cancelled");
  Options options;
  options.on_budget_exceeded = DegradePolicy::kGreedy;
  const auto result = Repair(Parse(kEightOpens), options);
  ASSERT_FALSE(result.ok()) << "kCancelled must not take the greedy path";
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
}

TEST(BudgetFaultInjectTest, InjectedResourceCodePropagates) {
  ScopedFaultInject env("pipeline.doubling:1:resource");
  Options options;
  options.on_budget_exceeded = DegradePolicy::kFail;
  const auto result = Repair(Parse(kEightOpens), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
}

TEST(BudgetFaultInjectTest, BalancedFastPathNeverPollsACheckpoint) {
  // A balanced document answers before any solver runs, so even an
  // aggressive fault spec cannot trip it.
  ScopedFaultInject env("pipeline.doubling:1");
  const auto result = Repair(Parse("([]{})"), {});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->distance, 0);
  EXPECT_FALSE(result->degraded);
}

// --- Real (non-injected) budget trips. ---

TEST(BudgetPipelineTest, StepCapTripsTheFptSolver) {
  const ParenSeq doc = gen::ManyValleys(4, 6);  // edit2 = 24: real work
  Options options;
  options.max_work_steps = 50;
  options.on_budget_exceeded = DegradePolicy::kFail;
  const auto result = Repair(doc, options);
  ASSERT_FALSE(result.ok()) << "50 steps cannot solve edit2=24";
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
}

TEST(BudgetPipelineTest, StepCapWithGreedyPolicyDegrades) {
  const ParenSeq doc = gen::ManyValleys(4, 6);
  Options options;
  options.max_work_steps = 50;
  options.on_budget_exceeded = DegradePolicy::kGreedy;
  const auto result = Repair(doc, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degraded);
  EXPECT_TRUE(IsBalanced(result->repaired));
  EXPECT_TRUE(result->telemetry.budget_trip_code ==
              static_cast<int>(StatusCode::kResourceExhausted))
      << result->telemetry.budget_trip_code;
}

// --- The kApproximate rung of the degrade ladder. ---

// On a mixed-type all-openers run the fallback's cost equals the untyped
// relaxation lower bound, so the kApproximate rung certifies the degraded
// answer as provably optimal: factor 1.0 with the proven bound attached —
// strictly more information than kGreedy's uncertified answer for the
// same budget trip.
TEST(BudgetDegradeLadderTest, ApproximateRungCertifiesTightFallbacks) {
  ScopedFaultInject env("pipeline.doubling:1");
  const ParenSeq doc = Parse("([([([([([([");  // 12 unmatched openers

  Options options;
  options.metric = Metric::kDeletionsOnly;
  options.solver = "fpt";
  options.on_budget_exceeded = DegradePolicy::kApproximate;
  const auto result = Repair(doc, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degraded);
  EXPECT_TRUE(result->telemetry.degraded);
  EXPECT_TRUE(IsBalanced(result->repaired));
  EXPECT_EQ(result->distance, 12);  // delete every opener
  EXPECT_EQ(result->telemetry.certified_factor, 1.0);
  EXPECT_EQ(result->telemetry.exact_lower_bound, 12);
  EXPECT_EQ(result->telemetry.budget_checkpoint, "pipeline.doubling");

  // Same trip under kGreedy: same repair, no certificate. The ladder's
  // whole point is that kApproximate dominates kGreedy in information.
  Options greedy = options;
  greedy.on_budget_exceeded = DegradePolicy::kGreedy;
  const auto uncertified = Repair(doc, greedy);
  ASSERT_TRUE(uncertified.ok()) << uncertified.status();
  EXPECT_TRUE(uncertified->degraded);
  EXPECT_EQ(uncertified->telemetry.certified_factor, 0.0);
  EXPECT_EQ(uncertified->distance, result->distance);
}

// When even the 3.0 ladder bound cannot be proven — type-mismatched pairs
// are untyped-balanced, so the relaxation lower bound collapses to 1 while
// the fallback pays one edit per pair — the rung falls through to exactly
// the uncertified shape kGreedy produces, never a false certificate.
TEST(BudgetDegradeLadderTest, ApproximateRungFallsThroughUncertified) {
  ScopedFaultInject env("pipeline.doubling:1");
  const ParenSeq doc = Parse("(](](](](](]");  // 6 mismatched pairs

  Options options;
  options.metric = Metric::kDeletionsAndSubstitutions;
  options.solver = "fpt";
  options.on_budget_exceeded = DegradePolicy::kApproximate;
  const auto result = Repair(doc, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degraded);
  EXPECT_TRUE(IsBalanced(result->repaired));
  EXPECT_GE(result->distance, 6);  // exact is one retype per pair; greedy
                                   // pays at least that, uncertified
  EXPECT_EQ(result->telemetry.certified_factor, 0.0);
  EXPECT_GE(result->telemetry.exact_lower_bound, 1);
  EXPECT_EQ(result->script.Cost(), result->distance);
}

// Cancellation outranks every rung, exactly as it does for kGreedy.
TEST(BudgetDegradeLadderTest, CancellationBeatsTheApproximateRung) {
  ScopedFaultInject env("pipeline.doubling:1:cancelled");
  Options options;
  options.on_budget_exceeded = DegradePolicy::kApproximate;
  const auto result = Repair(Parse(kEightOpens), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
}

TEST(BudgetPipelineTest, MemoryCapTripsTheCubicTable) {
  // The cubic DP table for n symbols is (n+1)^2 * 4 bytes; cap below it.
  const ParenSeq doc = gen::ManyValleys(4, 8);  // n = 64
  Options options;
  options.solver = "cubic";
  options.max_memory_bytes = 1000;  // 65 * 65 * 4 = 16900 > 1000
  options.on_budget_exceeded = DegradePolicy::kFail;
  const auto result = Repair(doc, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
}

TEST(BudgetPipelineTest, GenerousBudgetStaysExact) {
  const ParenSeq doc = gen::MismatchedV(12, 3, 0xBEEF);
  const auto exact = Repair(doc, {});
  ASSERT_TRUE(exact.ok());

  Options generous;
  generous.timeout_ms = 60000;
  generous.max_work_steps = 100000000;
  generous.on_budget_exceeded = DegradePolicy::kGreedy;
  const auto budgeted = Repair(doc, generous);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();
  EXPECT_FALSE(budgeted->degraded);
  EXPECT_EQ(budgeted->distance, exact->distance);
  EXPECT_EQ(budgeted->distance, 3);  // MismatchedV plants edit2 == errors
  // The budget ran (steps were counted) but never tripped.
  EXPECT_GT(budgeted->telemetry.budget_steps, 0);
  EXPECT_EQ(budgeted->telemetry.budget_trip_code, 0);
  EXPECT_TRUE(budgeted->telemetry.budget_checkpoint.empty());
  EXPECT_EQ(budgeted->telemetry.exact_lower_bound, -1);
}

TEST(BudgetPipelineTest, UnbudgetedRunReportsNoBudgetTelemetry) {
  const auto result = Repair(Parse(kEightOpens), {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->telemetry.budget_steps, 0);
  EXPECT_EQ(result->telemetry.exact_lower_bound, -1);
  EXPECT_FALSE(result->telemetry.degraded);
}

// --- Degraded >= exact differential on adversarial shapes. ---

TEST(BudgetDifferentialTest, DegradedDistanceUpperBoundsExact) {
  struct Case {
    const char* name;
    ParenSeq doc;
  };
  const Case cases[] = {
      {"many_valleys", gen::ManyValleys(5, 5)},
      {"mismatched_v", gen::MismatchedV(16, 4, 0x5EED)},
      {"greedy_trap", gen::GreedyTrap(12)},
  };
  for (const Metric metric :
       {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
    for (const Case& c : cases) {
      Options exact_options;
      exact_options.metric = metric;
      const auto exact = Repair(c.doc, exact_options);
      ASSERT_TRUE(exact.ok()) << c.name;

      // A 1-step budget trips on the second checkpoint poll, long before
      // any solver finishes, so the greedy fallback serves the answer.
      Options tiny = exact_options;
      tiny.max_work_steps = 1;
      tiny.on_budget_exceeded = DegradePolicy::kGreedy;
      const auto degraded = Repair(c.doc, tiny);
      ASSERT_TRUE(degraded.ok()) << c.name << ": " << degraded.status();
      ASSERT_TRUE(degraded->degraded) << c.name;
      EXPECT_TRUE(IsBalanced(degraded->repaired)) << c.name;
      EXPECT_EQ(degraded->script.Cost(), degraded->distance) << c.name;
      EXPECT_GE(degraded->distance, exact->distance)
          << c.name << ": a degraded answer may overshoot but never "
          << "undershoot the exact distance";
      EXPECT_GE(degraded->distance, degraded->telemetry.exact_lower_bound)
          << c.name;
    }
  }
}

TEST(BudgetDifferentialTest, DegradedPreserveContentKeepsEverySymbol) {
  const ParenSeq doc = gen::ManyValleys(3, 4);
  Options options;
  options.style = RepairStyle::kPreserveContent;
  options.max_work_steps = 1;
  options.on_budget_exceeded = DegradePolicy::kGreedy;
  const auto result = Repair(doc, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degraded);
  EXPECT_TRUE(IsBalanced(result->repaired));
  // Preserve-content never deletes: output at least as long as input.
  EXPECT_GE(result->repaired.size(), doc.size());
}

// --- Distance is fail-only. ---

TEST(BudgetDistanceTest, DistanceIgnoresTheDegradePolicy) {
  ScopedFaultInject env("pipeline.doubling:1");
  Options options;
  // Explicit kFpt: kAuto would answer single-type inputs via the Dyck-1
  // closed form without ever reaching the doubling checkpoint.
  options.solver = "fpt";
  options.on_budget_exceeded = DegradePolicy::kGreedy;  // ignored
  const auto distance = Distance(Parse(kEightOpens), options);
  ASSERT_FALSE(distance.ok()) << "Distance has no degraded channel";
  EXPECT_TRUE(distance.status().IsDeadlineExceeded()) << distance.status();
}

TEST(BudgetDistanceTest, DistanceWithinBudgetIsExact) {
  Options options;
  options.solver = "fpt";  // run the driver under the budget
  options.max_work_steps = 100000000;
  const auto distance = Distance(Parse(kEightOpens), options);
  ASSERT_TRUE(distance.ok()) << distance.status();
  EXPECT_EQ(*distance, 4);  // edit2 of eight opens
}

}  // namespace
}  // namespace dyck
