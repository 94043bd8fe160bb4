// The staged repair pipeline (src/pipeline): telemetry correctness, the
// zero-copy contract between stages, the max_distance x d-doubling
// interplay, and byte-level agreement with the cubic baseline.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/baseline/cubic.h"
#include "src/core/dyck.h"
#include "src/gen/workload.h"

namespace dyck {
namespace {

ParenSeq Parse(const std::string& text) {
  return ParenAlphabet::Default().Parse(text).value();
}

// Eight unmatched opens: deletion distance 8, substitution distance 4.
// The doubling driver probes d = 1, 2, 4, 8 (deletions) or 1, 2, 4
// (substitutions), which pins exact iteration counts.
const char* kEightOpens = "((((((((";

TEST(PipelineTelemetryTest, BalancedFastPathUnderAuto) {
  const auto result = Repair(Parse("([]{})"), {});
  ASSERT_TRUE(result.ok());
  const RepairTelemetry& t = result->telemetry;
  EXPECT_TRUE(t.balanced_fast_path);
  EXPECT_EQ(t.solver_name, "");
  EXPECT_EQ(t.doubling_iterations, 0);
  EXPECT_EQ(t.solve_bound, -1);
  EXPECT_EQ(t.input_length, 6);
  EXPECT_EQ(t.reduced_length, 0);  // balanced input reduces to empty
  EXPECT_EQ(t.subproblems, 0);
  EXPECT_EQ(t.seq_copies, 0);
  // The fast path still aligns every pair for downstream consumers.
  EXPECT_EQ(result->script.aligned_pairs.size(), 3u);
}

TEST(PipelineTelemetryTest, AutoResolvesToFptOnUnbalancedInput) {
  const auto result = Repair(Parse("(()("), {});
  ASSERT_TRUE(result.ok());
  const RepairTelemetry& t = result->telemetry;
  EXPECT_FALSE(t.balanced_fast_path);
  EXPECT_EQ(t.solver_name, "fpt-substitution");
  EXPECT_EQ(t.input_length, 4);
  // "(()(" strips its matched pair: two symbols survive Property 19.
  EXPECT_EQ(t.reduced_length, 2);
  EXPECT_EQ(t.doubling_iterations, 1);  // distance 1 -> first probe wins
  EXPECT_EQ(t.solve_bound, 1);
  EXPECT_GT(t.subproblems, 0);
}

TEST(PipelineTelemetryTest, ExplicitFptOnBalancedInputRunsTheSolver) {
  Options options;
  options.solver = "fpt";
  const auto result = Repair(Parse("(())"), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distance, 0);
  EXPECT_FALSE(result->telemetry.balanced_fast_path);
  EXPECT_EQ(result->telemetry.solver_name, "fpt");
  EXPECT_EQ(result->telemetry.doubling_iterations, 1);
  EXPECT_EQ(result->telemetry.reduced_length, 0);
}

TEST(PipelineTelemetryTest, CubicSkipsReductionAndDoubling) {
  Options options;
  options.solver = "cubic";
  const auto result = Repair(Parse("(()("), options);
  ASSERT_TRUE(result.ok());
  const RepairTelemetry& t = result->telemetry;
  EXPECT_EQ(t.solver_name, "cubic");
  EXPECT_EQ(t.doubling_iterations, 0);
  EXPECT_EQ(t.solve_bound, -1);
  EXPECT_EQ(t.reduced_length, -1);  // reduction skipped, not "empty"
  EXPECT_EQ(t.seq_copies, 0);
}

TEST(PipelineTelemetryTest, BranchingUsesTheDoublingDriver) {
  Options options;
  options.solver = "branching";
  options.metric = Metric::kDeletionsOnly;
  const auto result = Repair(Parse("(((("), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distance, 4);
  EXPECT_EQ(result->telemetry.solver_name, "branching");
  EXPECT_EQ(result->telemetry.doubling_iterations, 3);  // d = 1, 2, 4
  EXPECT_EQ(result->telemetry.solve_bound, 4);
}

TEST(PipelineTelemetryTest, DoublingIterationCountsMatchDistance) {
  Options del;
  del.metric = Metric::kDeletionsOnly;
  auto result = Repair(Parse(kEightOpens), del);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distance, 8);
  EXPECT_EQ(result->telemetry.doubling_iterations, 4);  // 1, 2, 4, 8
  EXPECT_EQ(result->telemetry.solve_bound, 8);

  Options sub;
  sub.metric = Metric::kDeletionsAndSubstitutions;
  result = Repair(Parse(kEightOpens), sub);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distance, 4);
  EXPECT_EQ(result->telemetry.doubling_iterations, 3);  // 1, 2, 4
  EXPECT_EQ(result->telemetry.solve_bound, 4);
}

TEST(PipelineTelemetryTest, StageSecondsPartitionTotal) {
  const auto result = Repair(Parse("(()(")  , {});
  ASSERT_TRUE(result.ok());
  double sum = 0;
  for (int s = 0; s < kNumPipelineStages; ++s) {
    EXPECT_GE(result->telemetry.stage_seconds[s], 0.0);
    sum += result->telemetry.stage_seconds[s];
  }
  EXPECT_DOUBLE_EQ(result->telemetry.TotalSeconds(), sum);
  EXPECT_GT(sum, 0.0);
  const std::string rendered = result->telemetry.ToString();
  EXPECT_NE(rendered.find("solver=fpt-substitution"), std::string::npos);
  EXPECT_NE(rendered.find("copies=0"), std::string::npos);
}

// Acceptance criterion: zero intermediate ParenSeq copies on every path
// through the pipeline — stages exchange ParenSpan views. seq_allocations
// admits only the deliberate materializations (the reduced sequence for
// FPT, the repaired output).
TEST(PipelineTelemetryTest, ZeroInterStageCopiesAcrossAllPaths) {
  const char* inputs[] = {"",     "()",    "(()(",     kEightOpens,
                          "(]",   "))((",  "([)]{<>}", "]]]"};
  for (const char* input : inputs) {
    for (const Metric metric :
         {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
      for (const char* solver : {"auto", "fpt", "cubic", "branching"}) {
        Options options;
        options.metric = metric;
        options.solver = solver;
        const auto result = Repair(Parse(input), options);
        ASSERT_TRUE(result.ok()) << input;
        EXPECT_EQ(result->telemetry.seq_copies, 0)
            << input << " metric=" << static_cast<int>(metric)
            << " solver=" << solver;
        EXPECT_LE(result->telemetry.seq_allocations, 2);
        EXPECT_TRUE(IsBalanced(result->repaired)) << input;
      }
    }
  }
}

// --- Options::max_distance vs the doubling driver -------------------------

TEST(PipelineTelemetryTest, MaxDistanceEqualToDistanceSucceeds) {
  // Off-by-one hotspot: the final probe runs at bound == max_distance
  // exactly (the clamp min(d, max_distance) turns the 8th probe from 8
  // into... 8 here, and from 16 into 9 below).
  Options options;
  options.metric = Metric::kDeletionsOnly;
  options.max_distance = 8;
  const auto result = Repair(Parse(kEightOpens), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distance, 8);
  EXPECT_EQ(result->telemetry.solve_bound, 8);
  EXPECT_EQ(result->telemetry.doubling_iterations, 4);  // 1, 2, 4, 8
}

TEST(PipelineTelemetryTest, MaxDistanceOneBelowDistanceIsBoundExceeded) {
  Options options;
  options.metric = Metric::kDeletionsOnly;
  options.max_distance = 7;
  const auto result = Repair(Parse(kEightOpens), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsBoundExceeded())
      << result.status().ToString();
}

TEST(PipelineTelemetryTest, MaxDistanceFailsAtEveryDoublingStep) {
  // Whatever doubling step the cap lands on — below, at, or between probe
  // bounds — a cap under the true distance must yield BoundExceeded.
  for (const int64_t max_distance : {1, 2, 3, 4, 5, 6, 7}) {
    Options options;
    options.metric = Metric::kDeletionsOnly;
    options.max_distance = max_distance;
    const auto result = Repair(Parse(kEightOpens), options);
    ASSERT_FALSE(result.ok()) << "max_distance=" << max_distance;
    EXPECT_TRUE(result.status().IsBoundExceeded())
        << "max_distance=" << max_distance << ": "
        << result.status().ToString();
  }
}

TEST(PipelineTelemetryTest, MaxDistanceAboveDistanceClampsNothing) {
  Options options;
  options.metric = Metric::kDeletionsOnly;
  options.max_distance = 9;  // not a power of two, above the distance
  const auto result = Repair(Parse(kEightOpens), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distance, 8);
  EXPECT_EQ(result->telemetry.solve_bound, 8);
}

TEST(PipelineTelemetryTest, MaxDistanceUnderSubstitutionMetric) {
  Options options;
  options.metric = Metric::kDeletionsAndSubstitutions;
  options.max_distance = 4;
  auto result = Repair(Parse(kEightOpens), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distance, 4);
  EXPECT_EQ(result->telemetry.solve_bound, 4);

  options.max_distance = 3;
  result = Repair(Parse(kEightOpens), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsBoundExceeded());
}

TEST(PipelineTelemetryTest, MaxDistanceAppliesToBranchingDriver) {
  Options options;
  options.metric = Metric::kDeletionsOnly;
  options.solver = "branching";
  options.max_distance = 7;
  auto result = Repair(Parse(kEightOpens), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsBoundExceeded());

  options.max_distance = 8;
  result = Repair(Parse(kEightOpens), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distance, 8);
}

TEST(PipelineTelemetryTest, MaxDistanceAppliesToCubicPostHoc) {
  Options options;
  options.metric = Metric::kDeletionsOnly;
  options.solver = "cubic";
  options.max_distance = 7;
  auto result = Repair(Parse(kEightOpens), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsBoundExceeded());

  options.max_distance = 8;
  result = Repair(Parse(kEightOpens), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distance, 8);
}

// --- Differential: the staged pipeline against the cubic baseline ---------

TEST(PipelineTelemetryTest, AgreesWithCubicBaselineOnRandomWorkloads) {
  for (int i = 0; i < 24; ++i) {
    const ParenSeq base = gen::RandomBalanced(
        {.length = 80 + i * 7, .num_types = 3, .shape = gen::Shape::kUniform},
        /*seed=*/0x51A6E5 + i);
    gen::CorruptedSequence corrupted = gen::Corrupt(
        base, {.num_edits = i % 5, .kind = gen::CorruptionKind::kMixed,
               .num_types = 3},
        /*seed=*/0x9E1 + i);
    for (const Metric metric :
         {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
      Options options;
      options.metric = metric;
      const auto result = Repair(corrupted.seq, options);
      ASSERT_TRUE(result.ok());
      const CubicResult cubic = CubicRepair(
          corrupted.seq, metric == Metric::kDeletionsAndSubstitutions);
      EXPECT_EQ(result->distance, cubic.distance) << "workload " << i;
      EXPECT_TRUE(
          ValidateScript(corrupted.seq, result->script, result->distance,
                         metric == Metric::kDeletionsAndSubstitutions)
              .ok())
          << "workload " << i;
      EXPECT_EQ(result->telemetry.seq_copies, 0);
    }
  }
}

// --- TelemetryAggregate arithmetic ----------------------------------------

TEST(TelemetryAggregateTest, AddAndMergeSumFields) {
  RepairTelemetry fpt;
  fpt.stage_seconds[static_cast<int>(PipelineStage::kSolve)] = 0.5;
  fpt.doubling_iterations = 3;
  fpt.input_length = 100;
  fpt.reduced_length = 10;
  fpt.subproblems = 42;
  fpt.solver_name = "fpt-deletion";
  fpt.seq_allocations = 2;

  RepairTelemetry trivial;
  trivial.stage_seconds[static_cast<int>(PipelineStage::kNormalize)] = 0.25;
  trivial.input_length = 50;
  trivial.reduced_length = 0;
  trivial.balanced_fast_path = true;
  trivial.seq_allocations = 1;

  RepairTelemetry cubic;
  cubic.solver_name = "cubic";
  cubic.input_length = 30;
  cubic.reduced_length = -1;  // reduction skipped: excluded from ratios

  TelemetryAggregate agg;
  agg.Add(fpt);
  agg.Add(trivial);
  EXPECT_EQ(agg.documents, 2);
  EXPECT_EQ(agg.doubling_iterations, 3);
  EXPECT_EQ(agg.subproblems, 42);
  EXPECT_EQ(agg.seq_allocations, 3);
  EXPECT_EQ(agg.solver_documents.size(), 1u);
  EXPECT_EQ(agg.solver_documents["fpt-deletion"], 1);
  EXPECT_EQ(agg.reduced_length_total, 10);
  EXPECT_EQ(agg.reduced_input_total, 150);
  EXPECT_DOUBLE_EQ(agg.TotalSeconds(), 0.75);

  TelemetryAggregate other;
  other.Add(cubic);
  agg.Merge(other);
  EXPECT_EQ(agg.documents, 3);
  EXPECT_EQ(agg.solver_documents["cubic"], 1);
  // cubic skipped reduction, so the ratio denominators are unchanged.
  EXPECT_EQ(agg.reduced_input_total, 150);

  const std::string rendered = agg.ToString();
  EXPECT_NE(rendered.find("docs=3"), std::string::npos);
  EXPECT_NE(rendered.find("trivial=1"), std::string::npos);
  EXPECT_NE(rendered.find("solvers=cubic:1,fpt-deletion:1"),
            std::string::npos);
}

}  // namespace
}  // namespace dyck
