#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "src/baseline/cubic.h"
#include "src/cache/repair_cache.h"
#include "src/core/dyck.h"
#include "src/gen/workload.h"

namespace dyck {
namespace {

ParenSeq Parse(const std::string& text) {
  return ParenAlphabet::Default().Parse(text).value();
}

TEST(EditScriptTest, ApplyScriptDeletesAndSubstitutes) {
  const ParenSeq seq = Parse("(])");
  EditScript script;
  script.ops.push_back({EditOpKind::kDelete, 1, Paren{}});
  EXPECT_EQ(ToString(ApplyScript(seq, script)), "()");

  EditScript script2;
  script2.ops.push_back({EditOpKind::kSubstitute, 1, Paren::Open(1)});
  EXPECT_EQ(ToString(ApplyScript(seq, script2)), "([)");
}

TEST(EditScriptTest, ValidateCatchesBadScripts) {
  const ParenSeq seq = Parse("(]");
  // Wrong cost.
  EditScript s1;
  EXPECT_FALSE(ValidateScript(seq, s1, 1, false).ok());
  // Unsorted / duplicate positions.
  EditScript s2;
  s2.ops.push_back({EditOpKind::kDelete, 1, Paren{}});
  s2.ops.push_back({EditOpKind::kDelete, 1, Paren{}});
  EXPECT_FALSE(ValidateScript(seq, s2, 2, false).ok());
  // Substitution under the deletion metric.
  EditScript s3;
  s3.ops.push_back({EditOpKind::kSubstitute, 1, Paren::Close(0)});
  EXPECT_FALSE(ValidateScript(seq, s3, 1, false).ok());
  // Self-substitution.
  EditScript s4;
  s4.ops.push_back({EditOpKind::kSubstitute, 1, Paren::Close(1)});
  EXPECT_FALSE(ValidateScript(seq, s4, 1, true).ok());
  // Non-repairing script.
  EditScript s5;
  s5.ops.push_back({EditOpKind::kSubstitute, 0, Paren::Open(2)});
  EXPECT_FALSE(ValidateScript(seq, s5, 1, true).ok());
  // A correct script passes.
  EditScript ok;
  ok.ops.push_back({EditOpKind::kSubstitute, 1, Paren::Close(0)});
  EXPECT_TRUE(ValidateScript(seq, ok, 1, true).ok());
}

TEST(EditScriptTest, NormalizeSortsOps) {
  EditScript script;
  script.ops.push_back({EditOpKind::kDelete, 5, Paren{}});
  script.ops.push_back({EditOpKind::kDelete, 2, Paren{}});
  script.Normalize();
  EXPECT_EQ(script.ops[0].pos, 2);
  EXPECT_EQ(script.ops[1].pos, 5);
}

TEST(EditScriptTest, ToStringIsReadable) {
  EditScript script;
  EXPECT_EQ(script.ToString(), "(no edits)");
  script.ops.push_back({EditOpKind::kDelete, 3, Paren{}});
  script.ops.push_back({EditOpKind::kSubstitute, 5, Paren::Close(2)});
  EXPECT_EQ(script.ToString(), "del@3, sub@5->close2");
}

TEST(DistanceApiTest, MetricsAndDefaults) {
  const ParenSeq seq = Parse("((");
  EXPECT_EQ(*Distance(seq, {.metric = Metric::kDeletionsOnly}), 2);
  EXPECT_EQ(*Distance(seq, {}), 1);  // substitutions by default
}

TEST(DistanceApiTest, BalancedShortCircuitsToZero) {
  const ParenSeq seq = Parse("([]{})");
  EXPECT_EQ(*Distance(seq, {}), 0);
}

TEST(DistanceApiTest, AllAlgorithmsAgree) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    ParenSeq seq;
    const int64_t n = rng() % 14;
    for (int64_t i = 0; i < n; ++i) {
      seq.push_back(Paren{static_cast<ParenType>(rng() % 3), rng() % 2 == 0});
    }
    for (const Metric metric :
         {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
      const int64_t auto_d = *Distance(seq, {.metric = metric});
      for (const char* solver : {"fpt", "cubic", "branching"}) {
        EXPECT_EQ(*Distance(seq, {.metric = metric, .solver = solver}),
                  auto_d)
            << ToString(seq);
      }
    }
  }
}

TEST(DistanceApiTest, MaxDistanceBoundsFailCleanly) {
  const ParenSeq seq = Parse("(((((((((((((((("); // distance 16 / 8
  const auto result =
      Distance(seq, {.metric = Metric::kDeletionsOnly, .max_distance = 3});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsBoundExceeded());
  EXPECT_EQ(
      *Distance(seq, {.metric = Metric::kDeletionsOnly, .max_distance = 16}),
      16);
}

TEST(RepairApiTest, RepairedSequencesAreBalanced) {
  std::mt19937_64 rng(123);
  for (int trial = 0; trial < 60; ++trial) {
    ParenSeq seq;
    const int64_t n = rng() % 16;
    for (int64_t i = 0; i < n; ++i) {
      seq.push_back(Paren{static_cast<ParenType>(rng() % 3), rng() % 2 == 0});
    }
    for (const Metric metric :
         {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
      const auto result = Repair(seq, {.metric = metric});
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(IsBalanced(result->repaired)) << ToString(seq);
      const bool subs = metric == Metric::kDeletionsAndSubstitutions;
      EXPECT_TRUE(
          ValidateScript(seq, result->script, result->distance, subs).ok());
      EXPECT_EQ(result->distance, CubicDistance(seq, subs));
    }
  }
}

TEST(RepairApiTest, BalancedInputKeepsEverySymbol) {
  const ParenSeq seq = Parse("(()[]){}");
  const auto result = Repair(seq, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distance, 0);
  EXPECT_EQ(result->repaired, seq);
  EXPECT_EQ(result->script.aligned_pairs.size(), seq.size() / 2);
}

TEST(RepairApiTest, RepairAgreesAcrossAlgorithms) {
  const ParenSeq seq = Parse("([)](");
  const auto fpt = Repair(seq, {.solver = "fpt"});
  const auto cubic = Repair(seq, {.solver = "cubic"});
  const auto branching = Repair(seq, {.solver = "branching"});
  ASSERT_TRUE(fpt.ok());
  ASSERT_TRUE(cubic.ok());
  ASSERT_TRUE(branching.ok());
  EXPECT_EQ(fpt->distance, cubic->distance);
  EXPECT_EQ(fpt->distance, branching->distance);
  EXPECT_TRUE(IsBalanced(fpt->repaired));
  EXPECT_TRUE(IsBalanced(branching->repaired));
}

// A NaN factor compares false against every bound, so it must be refused
// up front — before it can key a cache entry that never matches itself.
TEST(RepairApiTest, NanApproximationFactorIsInvalidArgument) {
  const ParenSeq seq = Parse("(()(");
  cache::RepairCache cache(1 << 20);
  Options options;
  options.max_approximation_factor = std::nan("");
  options.cache = &cache;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto repair = Repair(seq, options);
    ASSERT_FALSE(repair.ok());
    EXPECT_TRUE(repair.status().IsInvalidArgument());
    EXPECT_NE(repair.status().message().find("max_approximation_factor"),
              std::string::npos)
        << repair.status().message();
  }
  EXPECT_TRUE(Distance(seq, options).status().IsInvalidArgument());
  const cache::RepairCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.entries, 0);
}

TEST(RepairApiTest, Dyck1FastPathConsistentWithRepair) {
  const ParenSeq seq = Parse("))((");
  EXPECT_EQ(*Distance(seq, {}), 2);
  const auto repair = Repair(seq, {});
  ASSERT_TRUE(repair.ok());
  EXPECT_EQ(repair->distance, 2);
}

}  // namespace
}  // namespace dyck
