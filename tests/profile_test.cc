#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/alphabet/parse.h"
#include "src/core/edit_script.h"
#include "src/gen/workload.h"
#include "src/profile/height.h"
#include "src/profile/reduce.h"
#include "src/profile/valleys.h"

namespace dyck {
namespace {

ParenSeq Parse(const std::string& text) {
  return ParenAlphabet::Default().Parse(text).value();
}

TEST(HeightTest, Empty) { EXPECT_TRUE(ComputeHeights({}).empty()); }

TEST(HeightTest, Definition15Steps) {
  // "(()())": heights 0,-1,-1,-1,-1,0 (two-open steps down, two-close up,
  // direction changes flat).
  const std::vector<int64_t> h = ComputeHeights(Parse("(()())"));
  EXPECT_EQ(h, (std::vector<int64_t>{0, -1, -1, -1, -1, 0}));
}

TEST(HeightTest, BalancedSequenceHasEqualEndpointHeights) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const ParenSeq seq =
        gen::RandomBalanced({.length = 64, .num_types = 3}, seed);
    const auto h = ComputeHeights(seq);
    EXPECT_EQ(h.front(), h.back()) << ToString(seq);
  }
}

TEST(HeightTest, RunsAreMonotoneSlopes) {
  const ParenSeq seq = Parse("((()))]]][[[");
  const auto h = ComputeHeights(seq);
  // Opening run of 3 descends, closing run ascends, etc.
  EXPECT_EQ(h[0], 0);
  EXPECT_EQ(h[1], -1);
  EXPECT_EQ(h[2], -2);
  EXPECT_EQ(h[3], -2);  // direction change
  EXPECT_EQ(h[5], 0);
}

TEST(HeightTest, RenderProfileContainsEveryColumn) {
  const std::string out = RenderProfile(Parse("(())"));
  EXPECT_NE(out.find('('), std::string::npos);
  EXPECT_NE(out.find(')'), std::string::npos);
}

TEST(ReduceTest, BalancedReducesToEmpty) {
  const Reduced r = Reduce(Parse("([]{})"));
  EXPECT_TRUE(r.seq.empty());
  EXPECT_TRUE(r.orig_pos.empty());
}

TEST(ReduceTest, CanonicalUnbalancedShape) {
  // ")(" cannot reduce.
  const Reduced r = Reduce(Parse(")("));
  EXPECT_EQ(ToString(r.seq), ")(");
  EXPECT_EQ(r.orig_pos, (std::vector<int64_t>{0, 1}));
}

TEST(ReduceTest, CascadingRemovals) {
  // Outer pair becomes adjacent only after inner removal.
  const Reduced r = Reduce(Parse("([])"));
  EXPECT_TRUE(r.seq.empty());
}

TEST(ReduceTest, TypeMismatchBlocksRemoval) {
  const Reduced r = Reduce(Parse("(]"));
  EXPECT_EQ(r.seq.size(), 2u);
}

TEST(ReduceTest, OrigPosStrictlyIncreasingAndConsistent) {
  const ParenSeq seq = Parse("((]{})[)");
  const Reduced r = Reduce(seq);
  for (size_t i = 0; i < r.orig_pos.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(r.orig_pos[i - 1], r.orig_pos[i]);
    }
    EXPECT_EQ(seq[r.orig_pos[i]], r.seq[i]);
  }
  // Only "{}" cancels; every other symbol survives.
  EXPECT_EQ(r.orig_pos, (std::vector<int64_t>{0, 1, 2, 5, 6, 7}));
}

TEST(ReduceTest, ResultSatisfiesProperty19) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    ParenSeq seq;
    for (int i = 0; i < 40; ++i) {
      seq.push_back(Paren{static_cast<ParenType>(rng() % 3), rng() % 2 == 0});
    }
    const Reduced r = Reduce(seq);
    EXPECT_TRUE(SatisfiesProperty19(r.seq)) << ToString(r.seq);
  }
}

TEST(ReduceTest, MatchedPairsAreRealMatches) {
  // The symbols the reduction drops are matched at zero cost: deleting the
  // survivors leaves a balanced sequence, every pair of whose alignment is
  // an exact match.
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    ParenSeq seq;
    for (int i = 0; i < 30; ++i) {
      seq.push_back(Paren{static_cast<ParenType>(rng() % 2), rng() % 2 == 0});
    }
    EditScript delete_survivors;
    for (const int64_t pos : Reduce(seq).orig_pos) {
      delete_survivors.ops.push_back({EditOpKind::kDelete, pos, Paren{}});
    }
    ASSERT_TRUE(IsBalanced(ApplyScript(seq, delete_survivors)));
    for (const auto& [a, b] : AlignedPairs(seq, delete_survivors)) {
      EXPECT_LT(a, b);
      EXPECT_TRUE(seq[a].Matches(seq[b]));
    }
  }
}

TEST(Property19Test, Direct) {
  EXPECT_TRUE(SatisfiesProperty19(Parse(")(")));
  EXPECT_FALSE(SatisfiesProperty19(Parse("()")));
  EXPECT_TRUE(SatisfiesProperty19(Parse("(]")));
  EXPECT_TRUE(SatisfiesProperty19({}));
}

TEST(ValleyTest, RunsAlternate) {
  const ParenSeq seq = Reduce(Parse("((]]((]]")).seq;
  const BlockStructure bs = BlockStructure::Build(seq);
  ASSERT_EQ(bs.num_runs(), 4);
  EXPECT_TRUE(bs.runs()[0].is_open);
  EXPECT_FALSE(bs.runs()[1].is_open);
  EXPECT_TRUE(bs.runs()[2].is_open);
  EXPECT_FALSE(bs.runs()[3].is_open);
  EXPECT_EQ(bs.num_valleys(), 2);
}

TEST(ValleyTest, LeadingCloserMakesEmptyD1) {
  const ParenSeq seq = Parse("))((");
  const BlockStructure bs = BlockStructure::Build(seq);
  EXPECT_EQ(bs.num_runs(), 2);
  // Valley 1 = (empty, U_1); valley 2 = (D_2, empty).
  EXPECT_EQ(bs.num_valleys(), 2);
}

TEST(ValleyTest, RunOfLookup) {
  const ParenSeq seq = Parse("(((]]]");
  const BlockStructure bs = BlockStructure::Build(seq);
  EXPECT_EQ(bs.run_of(0), 0);
  EXPECT_EQ(bs.run_of(2), 0);
  EXPECT_EQ(bs.run_of(3), 1);
  EXPECT_EQ(bs.run_of(5), 1);
}

TEST(ValleyTest, NumValleysInRange) {
  const ParenSeq seq = Parse("((]]((]]");
  const BlockStructure bs = BlockStructure::Build(seq);
  EXPECT_EQ(bs.NumValleysInRange(0, 7), 2);
  EXPECT_EQ(bs.NumValleysInRange(0, 3), 1);
  EXPECT_EQ(bs.NumValleysInRange(2, 5), 2);  // closing run + opening run
  EXPECT_EQ(bs.NumValleysInRange(0, 1), 1);  // trailing open run
  EXPECT_EQ(bs.NumValleysInRange(4, 3), 0);
}

TEST(ValleyTest, SingleRun) {
  const ParenSeq seq = Parse("(((");
  const BlockStructure bs = BlockStructure::Build(seq);
  EXPECT_EQ(bs.num_runs(), 1);
  EXPECT_EQ(bs.num_valleys(), 1);
}

}  // namespace
}  // namespace dyck
