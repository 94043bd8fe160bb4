#include <gtest/gtest.h>

#include <random>

#include "src/alphabet/parse.h"
#include "src/baseline/cubic.h"
#include "src/fpt/deletion.h"
#include "src/gen/workload.h"

namespace dyck {
namespace {

ParenSeq Parse(const std::string& text) {
  return ParenAlphabet::Default().Parse(text).value();
}

ParenSeq RandomSeq(int64_t n, int32_t types, std::mt19937_64& rng) {
  ParenSeq seq;
  for (int64_t i = 0; i < n; ++i) {
    seq.push_back(
        Paren{static_cast<ParenType>(rng() % types), rng() % 2 == 0});
  }
  return seq;
}

TEST(FptDeletionTest, HandpickedCases) {
  EXPECT_EQ(FptDeletionDistance({}), 0);
  EXPECT_EQ(FptDeletionDistance(Parse("()")), 0);
  EXPECT_EQ(FptDeletionDistance(Parse("(")), 1);
  EXPECT_EQ(FptDeletionDistance(Parse(")(")), 2);
  EXPECT_EQ(FptDeletionDistance(Parse("(]")), 2);
  EXPECT_EQ(FptDeletionDistance(Parse("([)]")), 2);
  EXPECT_EQ(FptDeletionDistance(Parse("(()){}")), 0);
  EXPECT_EQ(FptDeletionDistance(Parse("((((")), 4);
}

// The backbone differential suite: FPT vs the cubic oracle on fully random
// (usually heavily corrupt) short sequences.
class FptDeletionRandomTest
    : public ::testing::TestWithParam<std::tuple<int32_t, int64_t>> {};

TEST_P(FptDeletionRandomTest, MatchesCubicOracle) {
  const auto [types, max_len] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(types) * 1000 + max_len);
  for (int trial = 0; trial < 200; ++trial) {
    const ParenSeq seq = RandomSeq(rng() % max_len, types, rng);
    const int64_t truth = CubicDistance(seq, false);
    EXPECT_EQ(FptDeletionDistance(seq), truth) << ToString(seq);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FptDeletionRandomTest,
    ::testing::Combine(::testing::Values<int32_t>(1, 2, 4),
                       ::testing::Values<int64_t>(8, 16, 28)));

// Realistic regime: balanced sequences with few corruptions, longer inputs.
class FptDeletionCorruptionTest
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, gen::Shape>> {};

TEST_P(FptDeletionCorruptionTest, MatchesCubicOnCorruptedBalanced) {
  const auto [length, edits, shape] = GetParam();
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const ParenSeq base = gen::RandomBalanced(
        {.length = length, .num_types = 3, .shape = shape}, seed);
    const gen::CorruptedSequence corrupted = gen::Corrupt(
        base, {.num_edits = edits, .num_types = 3}, seed + 99);
    const int64_t truth = CubicDistance(corrupted.seq, false);
    ASSERT_LE(truth, corrupted.edit1_bound);
    EXPECT_EQ(FptDeletionDistance(corrupted.seq), truth)
        << ToString(corrupted.seq);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FptDeletionCorruptionTest,
    ::testing::Combine(::testing::Values<int64_t>(24, 60, 120),
                       ::testing::Values<int64_t>(1, 2, 4),
                       ::testing::Values(gen::Shape::kUniform,
                                         gen::Shape::kDeep,
                                         gen::Shape::kFlat)));

TEST(FptDeletionTest, QuadraticOracleBackendAgrees) {
  // Theorem 25's backend must compute the same distances as Theorem 26's.
  std::mt19937_64 rng(909);
  for (int trial = 0; trial < 150; ++trial) {
    const ParenSeq seq = RandomSeq(rng() % 24, 3, rng);
    const int64_t truth = CubicDistance(seq, false);
    DeletionSolver thm25(seq, DeletionOracleKind::kQuadraticTable);
    const auto got = thm25.Distance(static_cast<int32_t>(seq.size() + 1));
    ASSERT_TRUE(got.has_value()) << ToString(seq);
    EXPECT_EQ(*got, truth) << ToString(seq);
  }
}

TEST(FptDeletionTest, BoundedDistanceRefusesWhenTooSmall) {
  DeletionSolver solver(Parse("(((("));
  EXPECT_FALSE(solver.Distance(3).has_value());
  EXPECT_EQ(*solver.Distance(4), 4);
  // Solver instances are reusable across bounds (the doubling driver).
  EXPECT_FALSE(solver.Distance(1).has_value());
  EXPECT_EQ(*solver.Distance(8), 4);
}

TEST(FptDeletionTest, ReducedSizeReflectsPreprocessing) {
  DeletionSolver solver(Parse("((()))[]"));
  EXPECT_EQ(solver.reduced_size(), 0);
  DeletionSolver solver2(Parse("((]"));
  EXPECT_EQ(solver2.reduced_size(), 3);
}

TEST(FptDeletionRepairTest, ScriptsValidateOnRandomInputs) {
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 150; ++trial) {
    const ParenSeq seq = RandomSeq(rng() % 20, 3, rng);
    const FptResult result = FptDeletionRepair(seq);
    EXPECT_EQ(result.distance, CubicDistance(seq, false)) << ToString(seq);
    const Status status =
        ValidateScript(seq, result.script, result.distance, false);
    EXPECT_TRUE(status.ok()) << status << " on " << ToString(seq);
  }
}

TEST(FptDeletionRepairTest, ScriptsValidateOnCorruptedBalanced) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const ParenSeq base =
        gen::RandomBalanced({.length = 200, .num_types = 4}, seed);
    const gen::CorruptedSequence corrupted =
        gen::Corrupt(base, {.num_edits = 3, .num_types = 4}, seed * 7 + 1);
    const FptResult result = FptDeletionRepair(corrupted.seq);
    EXPECT_LE(result.distance, corrupted.edit1_bound);
    const Status status = ValidateScript(corrupted.seq, result.script,
                                         result.distance, false);
    EXPECT_TRUE(status.ok()) << status;
  }
}

TEST(FptDeletionTest, LongNearlyBalancedInput) {
  // n = 20000 with d = 2: exercises the O(n)-preprocessing path end to end.
  const ParenSeq base =
      gen::RandomBalanced({.length = 20000, .num_types = 4}, 5);
  gen::CorruptedSequence corrupted = gen::Corrupt(
      base, {.num_edits = 2, .kind = gen::CorruptionKind::kDelete}, 6);
  const int64_t d = FptDeletionDistance(corrupted.seq);
  EXPECT_GE(d, 1);
  EXPECT_LE(d, 2);
}

TEST(FptDeletionTest, AlignedPairsDoNotCross) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const ParenSeq base =
        gen::RandomBalanced({.length = 60, .num_types = 2}, seed);
    const gen::CorruptedSequence corrupted =
        gen::Corrupt(base, {.num_edits = 2, .num_types = 2}, seed + 5);
    const FptResult result = FptDeletionRepair(corrupted.seq);
    // Alignment arcs must be properly nested (no crossings) and typed.
    const auto pairs = AlignedPairs(corrupted.seq, result.script);
    for (const auto& [a, b] : pairs) {
      ASSERT_LT(a, b);
      EXPECT_TRUE(corrupted.seq[a].Matches(corrupted.seq[b]));
    }
    for (size_t x = 0; x < pairs.size(); ++x) {
      for (size_t y = x + 1; y < pairs.size(); ++y) {
        const auto& [a1, b1] = pairs[x];
        const auto& [a2, b2] = pairs[y];
        const bool disjoint = b1 < a2 || b2 < a1;
        const bool nested = (a1 < a2 && b2 < b1) || (a2 < a1 && b1 < b2);
        EXPECT_TRUE(disjoint || nested)
            << "crossing arcs (" << a1 << "," << b1 << ") vs (" << a2 << ","
            << b2 << ")";
      }
    }
  }
}

}  // namespace
}  // namespace dyck
