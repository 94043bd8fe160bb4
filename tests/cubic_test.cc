#include <gtest/gtest.h>

#include <ostream>
#include <random>
#include <string>

#include "src/alphabet/parse.h"
#include "src/baseline/cubic.h"
#include "src/gen/workload.h"

namespace dyck {
namespace {

ParenSeq Parse(const std::string& text) {
  return ParenAlphabet::Default().Parse(text).value();
}

TEST(PairCostTest, AllCases) {
  const Paren o0 = Paren::Open(0);
  const Paren c0 = Paren::Close(0);
  const Paren o1 = Paren::Open(1);
  const Paren c1 = Paren::Close(1);
  // Deletion metric: only exact matches align.
  EXPECT_EQ(PairCost(o0, c0, false), 0);
  EXPECT_EQ(PairCost(o0, c1, false), kPairImpossible);
  // Substitution metric.
  EXPECT_EQ(PairCost(o0, c0, true), 0);
  EXPECT_EQ(PairCost(o0, c1, true), 1);  // retype the closer
  EXPECT_EQ(PairCost(o0, o1, true), 1);  // "((" -> "()"
  EXPECT_EQ(PairCost(c0, c1, true), 1);  // "))" -> "()"
  EXPECT_EQ(PairCost(c0, o0, true), 2);  // ")(" needs both rewritten
}

struct Case {
  std::string text;
  int64_t edit1;
  int64_t edit2;
};

// Without a printer gtest dumps Case as raw bytes, and the std::string's heap
// pointer in that dump made the discovered ctest names change on every build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "text=" << c.text << " edit1=" << c.edit1 << " edit2=" << c.edit2;
}

class CubicKnownCasesTest : public ::testing::TestWithParam<Case> {};

TEST_P(CubicKnownCasesTest, DistancesMatch) {
  const Case& c = GetParam();
  const ParenSeq seq = Parse(c.text);
  EXPECT_EQ(CubicDistance(seq, false), c.edit1) << c.text;
  EXPECT_EQ(CubicDistance(seq, true), c.edit2) << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Handpicked, CubicKnownCasesTest,
    ::testing::Values(Case{"", 0, 0}, Case{"()", 0, 0}, Case{"(", 1, 1},
                      Case{")", 1, 1}, Case{"((", 2, 1}, Case{"))", 2, 1},
                      Case{")(", 2, 2}, Case{"(]", 2, 1},
                      Case{"([)]", 2, 2}, Case{"(()", 1, 1},
                      Case{"(()){}", 0, 0}, Case{"((((", 4, 2},
                      Case{"(((((", 5, 3}, Case{"()[]{}<>", 0, 0},
                      Case{"([{}])", 0, 0}, Case{"][", 2, 2},
                      Case{"(])", 1, 1}, Case{"{()}]", 1, 1}));

TEST(CubicRepairTest, ScriptsValidateOnRandomInputs) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    ParenSeq seq;
    const int64_t n = rng() % 14;
    for (int64_t i = 0; i < n; ++i) {
      seq.push_back(Paren{static_cast<ParenType>(rng() % 3), rng() % 2 == 0});
    }
    for (const bool subs : {false, true}) {
      const CubicResult result = CubicRepair(seq, subs);
      EXPECT_EQ(result.distance, CubicDistance(seq, subs));
      const Status status =
          ValidateScript(seq, result.script, result.distance, subs);
      EXPECT_TRUE(status.ok()) << status << " on " << ToString(seq);
    }
  }
}

TEST(CubicRepairTest, CorruptedBalancedSequencesRespectBounds) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const ParenSeq base =
        gen::RandomBalanced({.length = 20, .num_types = 2}, seed);
    const gen::CorruptedSequence corrupted =
        gen::Corrupt(base, {.num_edits = 2, .num_types = 2}, seed + 1000);
    EXPECT_LE(CubicDistance(corrupted.seq, false), corrupted.edit1_bound);
    EXPECT_LE(CubicDistance(corrupted.seq, true), corrupted.edit2_bound);
    EXPECT_LE(CubicDistance(corrupted.seq, true),
              CubicDistance(corrupted.seq, false))
        << "substitutions can only help";
  }
}

TEST(CubicRepairTest, AlignedPairsAreConsistent) {
  const ParenSeq seq = Parse("([)]");
  const CubicResult result = CubicRepair(seq, true);
  EXPECT_EQ(result.distance, 2);
  // Exactly one aligned pair involves a substitution; the repaired doc is
  // balanced (checked by ValidateScript).
  EXPECT_TRUE(
      ValidateScript(seq, result.script, result.distance, true).ok());
}

TEST(CubicRepairTest, DistanceIsAtLeastImbalance) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    ParenSeq seq;
    const int64_t n = rng() % 12;
    int64_t opens = 0;
    for (int64_t i = 0; i < n; ++i) {
      const bool open = rng() % 2 == 0;
      opens += open ? 1 : -1;
      seq.push_back(Paren{static_cast<ParenType>(rng() % 2), open});
    }
    EXPECT_GE(CubicDistance(seq, false), std::abs(opens));
    EXPECT_GE(2 * CubicDistance(seq, true), std::abs(opens));
  }
}

}  // namespace
}  // namespace dyck
