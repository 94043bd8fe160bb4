// Differential suite for the incremental pipeline: after every edit of a
// random trace, RepairDoc::RepairInto must be byte-identical to the eager
// Repair() on the same token buffer — same distance, same edit ops, same
// aligned pairs, same repaired sequence — across solver configurations,
// metrics, and styles. This is the contract that lets every other test in
// the repo stand in for the incremental path.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/doc.h"
#include "src/core/dyck.h"
#include "src/core/edit_script.h"
#include "src/gen/workload.h"

namespace dyck {
namespace {

// Deterministic xorshift-ish generator; tests must not depend on libstdc++
// distribution details.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  int64_t Below(int64_t n) {
    return n <= 0 ? 0 : static_cast<int64_t>(Next() % n);
  }
};

ParenSeq RandomInsert(Rng& rng, int64_t max_len) {
  ParenSeq out;
  const int64_t len = rng.Below(max_len + 1);
  for (int64_t i = 0; i < len; ++i) {
    const auto type = static_cast<ParenType>(rng.Below(3));
    out.push_back(rng.Next() % 2 == 0 ? Paren::Open(type)
                                      : Paren::Close(type));
  }
  return out;
}

// One random splice applied to the doc; small inserts/erases so the trace
// stays near the few-errors regime most solvers are registered for.
void RandomSplice(Rng& rng, RepairDoc* doc) {
  const int64_t pos = rng.Below(doc->size() + 1);
  const int64_t erase_len = rng.Below(std::min<int64_t>(doc->size() - pos, 4) + 1);
  doc->Splice(pos, erase_len, RandomInsert(rng, 4));
}

void ExpectIdentical(const RepairResult& incremental,
                     const RepairResult& eager, const std::string& what) {
  EXPECT_EQ(incremental.distance, eager.distance) << what;
  EXPECT_EQ(incremental.script.ops, eager.script.ops) << what;
  EXPECT_EQ(incremental.script.aligned_pairs, eager.script.aligned_pairs)
      << what;
  EXPECT_TRUE(incremental.repaired == eager.repaired) << what;
}

// Drives `edits` random splices through a RepairDoc under `options`,
// checking the incremental result against the eager pipeline after every
// one (and once before the first).
void RunDifferentialTrace(int64_t n, const Options& options, uint64_t seed,
                          int edits) {
  gen::BalancedOptions balanced;
  balanced.length = n;
  gen::CorruptionOptions corrupt;
  corrupt.num_edits = 2;
  RepairDoc doc(
      gen::Corrupt(gen::RandomBalanced(balanced, seed), corrupt, seed + 1)
          .seq,
      /*target_chunk_size=*/32);

  Rng rng(seed + 2);
  RepairResult incremental;
  for (int e = 0; e <= edits; ++e) {
    if (e > 0) RandomSplice(rng, &doc);
    const std::string what =
        "seed=" + std::to_string(seed) + " edit=" + std::to_string(e);
    const Status status = doc.RepairInto(options, &incremental);
    const auto eager = Repair(doc.tokens(), options);
    ASSERT_EQ(status.ok(), eager.ok())
        << what << ": incremental " << status.ToString() << " vs eager "
        << eager.status().ToString();
    if (!status.ok()) {
      EXPECT_EQ(status.code(), eager.status().code()) << what;
      continue;
    }
    ExpectIdentical(incremental, *eager, what);
  }
}

TEST(IncrementalTest, AutoDeletions) {
  Options options;
  options.metric = Metric::kDeletionsOnly;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    RunDifferentialTrace(512, options, seed, 10);
  }
}

TEST(IncrementalTest, AutoSubstitutions) {
  Options options;
  options.metric = Metric::kDeletionsAndSubstitutions;
  for (uint64_t seed = 10; seed < 14; ++seed) {
    RunDifferentialTrace(512, options, seed, 10);
  }
}

TEST(IncrementalTest, ForcedFpt) {
  for (const Metric metric :
       {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
    Options options;
    options.metric = metric;
    options.solver = "fpt";
    RunDifferentialTrace(256, options, 20 + static_cast<int>(metric), 8);
  }
}

TEST(IncrementalTest, ForcedCubic) {
  // Cubic is a raw-input solver (needs_reduced = false): it runs even on
  // balanced buffers and emits its own complete pair alignment — the path
  // where the doc must NOT add its chunk pairs on top.
  for (const Metric metric :
       {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
    Options options;
    options.metric = metric;
    options.solver = "cubic";
    RunDifferentialTrace(96, options, 30 + static_cast<int>(metric), 8);
  }
}

TEST(IncrementalTest, ForcedApprox) {
  // The approx refinement solver may serve either a greedy full-sequence
  // script or an exact reduced-based one; the doc must take the fully
  // materialized pipeline path for it.
  Options options;
  options.metric = Metric::kDeletionsOnly;
  options.solver = "approx";
  options.max_approximation_factor = 2.0;
  for (uint64_t seed = 40; seed < 43; ++seed) {
    RunDifferentialTrace(512, options, seed, 8);
  }
}

TEST(IncrementalTest, AutoWithApproximationBudget) {
  Options options;
  options.metric = Metric::kDeletionsOnly;
  options.max_approximation_factor = 3.0;
  for (uint64_t seed = 50; seed < 53; ++seed) {
    RunDifferentialTrace(512, options, seed, 8);
  }
}

TEST(IncrementalTest, PreserveContentStyle) {
  // kPreserveContent consumes the pair alignment inside stage 5; the doc
  // must hand the pipeline complete artifacts (no omitted-pairs mode).
  Options options;
  options.metric = Metric::kDeletionsAndSubstitutions;
  options.style = RepairStyle::kPreserveContent;
  for (uint64_t seed = 60; seed < 63; ++seed) {
    RunDifferentialTrace(256, options, seed, 8);
  }
}

TEST(IncrementalTest, FreshDocMatchesReusedDoc) {
  // A doc that lived through a long trace must answer exactly like a
  // fresh doc constructed from its current buffer (stale-cache detector).
  Options options;
  options.metric = Metric::kDeletionsAndSubstitutions;
  gen::BalancedOptions balanced;
  balanced.length = 512;
  RepairDoc reused(gen::RandomBalanced(balanced, 99),
                   /*target_chunk_size=*/32);
  Rng rng(7);
  RepairResult from_reused, from_fresh;
  for (int e = 0; e < 20; ++e) {
    RandomSplice(rng, &reused);
    if (e % 4 != 3) continue;  // repair every few edits, like an editor
    ASSERT_TRUE(reused.RepairInto(options, &from_reused).ok());
    RepairDoc fresh{ParenSeq(reused.tokens())};
    ASSERT_TRUE(fresh.RepairInto(options, &from_fresh).ok());
    ExpectIdentical(from_reused, from_fresh, "edit=" + std::to_string(e));
  }
}

TEST(IncrementalTest, FuzzInterleavedSplicesAndRepairs) {
  // Fuzz-harness mode: random splices interleaved with repairs under
  // randomized options; every successful repair must validate and match
  // the eager pipeline.
  for (uint64_t seed = 70; seed < 76; ++seed) {
    Rng rng(seed);
    gen::BalancedOptions balanced;
    balanced.length = 64 + rng.Below(256);
    RepairDoc doc(gen::RandomBalanced(balanced, seed),
                  /*target_chunk_size=*/16 + rng.Below(48));
    RepairResult result;
    for (int step = 0; step < 40; ++step) {
      if (rng.Next() % 3 != 0) {
        RandomSplice(rng, &doc);
        continue;
      }
      Options options;
      options.metric = rng.Next() % 2 == 0
                           ? Metric::kDeletionsOnly
                           : Metric::kDeletionsAndSubstitutions;
      if (rng.Next() % 4 == 0) options.max_approximation_factor = 2.0;
      const std::string what =
          "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
      const Status status = doc.RepairInto(options, &result);
      const auto eager = Repair(doc.tokens(), options);
      ASSERT_EQ(status.ok(), eager.ok()) << what;
      if (!status.ok()) continue;
      ExpectIdentical(result, *eager, what);
      const bool subs = options.metric == Metric::kDeletionsAndSubstitutions;
      EXPECT_TRUE(ValidateScript(doc.tokens(), result.script,
                                 result.distance, subs)
                      .ok())
          << what;
    }
  }
}

TEST(IncrementalTest, GrowFromEmptyAndShrinkToEmpty) {
  RepairDoc doc;
  RepairResult result;
  Options options;
  ASSERT_TRUE(doc.RepairInto(options, &result).ok());
  EXPECT_EQ(result.distance, 0);

  Rng rng(123);
  // Grow to ~200 tokens in small appends, repairing as we go.
  while (doc.size() < 200) {
    doc.Splice(doc.size(), 0, RandomInsert(rng, 8));
    ASSERT_TRUE(doc.RepairInto(options, &result).ok());
    const auto eager = Repair(doc.tokens(), options);
    ASSERT_TRUE(eager.ok());
    ExpectIdentical(result, *eager, "grow to " + std::to_string(doc.size()));
  }
  // Shrink back to empty from the front.
  while (doc.size() > 0) {
    doc.Splice(0, std::min<int64_t>(doc.size(), 16), ParenSpan());
    ASSERT_TRUE(doc.RepairInto(options, &result).ok());
    const auto eager = Repair(doc.tokens(), options);
    ASSERT_TRUE(eager.ok());
    ExpectIdentical(result, *eager,
                    "shrink to " + std::to_string(doc.size()));
  }
  EXPECT_EQ(result.distance, 0);
}

}  // namespace
}  // namespace dyck
