#include <gtest/gtest.h>

#include <random>

#include "src/alphabet/parse.h"
#include "src/baseline/cubic.h"
#include "src/baseline/greedy.h"
#include "src/gen/workload.h"

namespace dyck {
namespace {

ParenSeq Parse(const std::string& text) {
  return ParenAlphabet::Default().Parse(text).value();
}

TEST(GreedyTest, ExactOnBalancedInput) {
  const ParenSeq seq = Parse("([]{})");
  const GreedyResult result = GreedyRepair(seq, false);
  EXPECT_EQ(result.cost, 0);
  EXPECT_EQ(AlignedPairs(seq, result.script).size(), 3u);
}

TEST(GreedyTest, SimpleConflicts) {
  EXPECT_EQ(GreedyRepair(Parse(")"), false).cost, 1);
  EXPECT_EQ(GreedyRepair(Parse("("), false).cost, 1);
  EXPECT_EQ(GreedyRepair(Parse("(]"), false).cost, 2);
  EXPECT_EQ(GreedyRepair(Parse("(]"), true).cost, 1);
  EXPECT_EQ(GreedyRepair(Parse("(("), true).cost, 1);
}

TEST(GreedyTest, ScriptsAlwaysValid) {
  std::mt19937_64 rng(654);
  for (int trial = 0; trial < 300; ++trial) {
    ParenSeq seq;
    const int64_t n = rng() % 30;
    for (int64_t i = 0; i < n; ++i) {
      seq.push_back(Paren{static_cast<ParenType>(rng() % 3), rng() % 2 == 0});
    }
    for (const bool subs : {false, true}) {
      const GreedyResult result = GreedyRepair(seq, subs);
      const Status status =
          ValidateScript(seq, result.script, result.cost, subs);
      EXPECT_TRUE(status.ok()) << status << " on " << ToString(seq);
    }
  }
}

TEST(GreedyTest, NeverBeatsTheOptimum) {
  std::mt19937_64 rng(321);
  for (int trial = 0; trial < 300; ++trial) {
    ParenSeq seq;
    const int64_t n = rng() % 16;
    for (int64_t i = 0; i < n; ++i) {
      seq.push_back(Paren{static_cast<ParenType>(rng() % 3), rng() % 2 == 0});
    }
    for (const bool subs : {false, true}) {
      EXPECT_GE(GreedyRepair(seq, subs).cost, CubicDistance(seq, subs))
          << ToString(seq);
    }
  }
}

TEST(GreedyTest, ApproximationRatioOnLightCorruptionIsModest) {
  // No worst-case guarantee is claimed, but on randomly corrupted balanced
  // sequences the heuristic should stay within a small constant of the
  // optimum — this is its reason to exist.
  int64_t greedy_total = 0;
  int64_t optimal_total = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const ParenSeq base =
        gen::RandomBalanced({.length = 60, .num_types = 3}, seed);
    const gen::CorruptedSequence corrupted =
        gen::Corrupt(base, {.num_edits = 3, .num_types = 3}, seed + 1);
    greedy_total += GreedyRepair(corrupted.seq, true).cost;
    optimal_total += CubicDistance(corrupted.seq, true);
  }
  EXPECT_LE(greedy_total, 4 * optimal_total);
  EXPECT_GE(greedy_total, optimal_total);
}

TEST(GreedyTest, SuboptimalCaseExists) {
  // Greedy is a heuristic: document a case where it provably loses.
  // "([{" + ")": optimal rewrites "{" into "]" (cost 1); greedy
  // substitutes ")" into "}" and then pays for the leftovers.
  const ParenSeq seq = Parse("([{)");
  EXPECT_EQ(CubicDistance(seq, true), 1);
  EXPECT_GT(GreedyRepair(seq, true).cost, 1);
}

TEST(GreedyTest, NoCascadesOnDeepLightlyCorruptedInputs) {
  // Regression for two measured cascade modes (spurious openers poisoning
  // the stack; orphaned closers consuming parents): on big inputs with
  // few errors the heuristic must stay within a small factor of optimal
  // instead of the ~90x it produced before the lookahead rules.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const ParenSeq base =
        gen::RandomBalanced({.length = 1 << 14, .num_types = 4}, seed);
    const gen::CorruptedSequence corrupted =
        gen::Corrupt(base, {.num_edits = 2, .num_types = 4}, seed * 3);
    const int64_t greedy = GreedyRepair(corrupted.seq, true).cost;
    EXPECT_LE(greedy, 8 * corrupted.edit2_bound + 4)
        << "seed " << seed << ": greedy " << greedy << " vs bound "
        << corrupted.edit2_bound;
  }
}

TEST(GreedyTest, LinearTimeSmoke) {
  const ParenSeq base =
      gen::RandomBalanced({.length = 1 << 20, .num_types = 4}, 1);
  const gen::CorruptedSequence corrupted =
      gen::Corrupt(base, {.num_edits = 50, .num_types = 4}, 2);
  const GreedyResult result = GreedyRepair(corrupted.seq, true);
  EXPECT_GT(result.cost, 0);
  EXPECT_TRUE(
      ValidateScript(corrupted.seq, result.script, result.cost, true).ok());
}

}  // namespace
}  // namespace dyck
