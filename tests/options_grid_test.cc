// Cross-product coverage of the public Options knobs: every (metric x
// algorithm x style x bound) combination must agree on distances, produce
// valid scripts, and fail cleanly when bounded.

#include <gtest/gtest.h>

#include <random>

#include "src/baseline/cubic.h"
#include "src/core/dyck.h"
#include "src/gen/workload.h"

namespace dyck {
namespace {

ParenSeq RandomSeq(int64_t n, std::mt19937_64& rng) {
  ParenSeq seq;
  for (int64_t i = 0; i < n; ++i) {
    seq.push_back(Paren{static_cast<ParenType>(rng() % 3), rng() % 2 == 0});
  }
  return seq;
}

TEST(OptionsGridTest, FullGridAgreesAndValidates) {
  std::mt19937_64 rng(0xFEED);
  for (int trial = 0; trial < 30; ++trial) {
    const ParenSeq seq = RandomSeq(rng() % 14, rng);
    for (const Metric metric :
         {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
      const bool subs = metric == Metric::kDeletionsAndSubstitutions;
      const int64_t truth = CubicDistance(seq, subs);
      for (const char* solver : {"auto", "fpt", "cubic", "branching"}) {
        for (const RepairStyle style :
             {RepairStyle::kMinimalEdits, RepairStyle::kPreserveContent}) {
          const Options options{metric, solver, style, -1};
          const auto distance = Distance(seq, options);
          ASSERT_TRUE(distance.ok()) << distance.status();
          EXPECT_EQ(*distance, truth) << ToString(seq);
          const auto repair = Repair(seq, options);
          ASSERT_TRUE(repair.ok()) << repair.status();
          EXPECT_EQ(repair->distance, truth);
          EXPECT_TRUE(IsBalanced(repair->repaired)) << ToString(seq);
          const bool inserts = style == RepairStyle::kPreserveContent;
          EXPECT_TRUE(ValidateScript(seq, repair->script, truth, subs,
                                     inserts)
                          .ok())
              << ToString(seq);
          if (inserts) {
            for (const EditOp& op : repair->script.ops) {
              EXPECT_NE(op.kind, EditOpKind::kDelete);
            }
          }
        }
      }
    }
  }
}

TEST(OptionsGridTest, MaxDistanceAcrossAlgorithms) {
  const ParenSeq seq =
      ParenAlphabet::Default().Parse("((((((((").value();  // edit1 = 8
  for (const char* solver : {"fpt", "cubic", "branching"}) {
    Options tight{Metric::kDeletionsOnly, solver, RepairStyle::kMinimalEdits,
                  3};
    EXPECT_TRUE(Distance(seq, tight).status().IsBoundExceeded()) << solver;
    EXPECT_TRUE(Repair(seq, tight).status().IsBoundExceeded());
    Options loose{Metric::kDeletionsOnly, solver, RepairStyle::kMinimalEdits,
                  8};
    EXPECT_EQ(*Distance(seq, loose), 8);
    EXPECT_EQ(Repair(seq, loose)->distance, 8);
  }
}

TEST(OptionsGridTest, MaxDistanceZeroAcceptsBalancedOnly) {
  const ParenSeq balanced = ParenAlphabet::Default().Parse("()[]").value();
  EXPECT_EQ(*Distance(balanced, {.max_distance = 0}), 0);
  const ParenSeq broken = ParenAlphabet::Default().Parse("(").value();
  EXPECT_TRUE(Distance(broken, {.max_distance = 0})
                  .status()
                  .IsBoundExceeded());
}

TEST(OptionsGridTest, EmptyInputEverywhere) {
  for (const char* solver : {"auto", "fpt", "cubic", "branching"}) {
    Options options;
    options.solver = solver;
    EXPECT_EQ(*Distance({}, options), 0);
    const auto repair = Repair({}, options);
    ASSERT_TRUE(repair.ok());
    EXPECT_TRUE(repair->repaired.empty());
  }
}

TEST(OptionsGridTest, PreserveContentOnLargeInput) {
  // The preserve transform runs after the FPT solver; make sure the whole
  // pipeline holds together beyond toy sizes.
  const ParenSeq base =
      gen::RandomBalanced({.length = 40000, .num_types = 4}, 99);
  const gen::CorruptedSequence corrupted =
      gen::Corrupt(base, {.num_edits = 5, .num_types = 4}, 100);
  const ParenSeq& seq = corrupted.seq;
  const auto repair =
      Repair(seq, {.style = RepairStyle::kPreserveContent});
  ASSERT_TRUE(repair.ok()) << repair.status();
  EXPECT_TRUE(IsBalanced(repair->repaired));
  int64_t inserts = 0;
  for (const auto& op : repair->script.ops) {
    if (op.kind == EditOpKind::kInsert) ++inserts;
    EXPECT_NE(op.kind, EditOpKind::kDelete);
  }
  EXPECT_EQ(repair->repaired.size(), seq.size() + inserts);
}

}  // namespace
}  // namespace dyck
