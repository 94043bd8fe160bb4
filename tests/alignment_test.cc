// AlignedPairs (src/core/edit_script.h) as a property of every producer of
// edit scripts: each registry solver under both metrics and both repair
// styles, plus the planner through Repair, RepairDoc and the batch engine,
// on random and adversarial corpora. Whatever produced the script, the
// derived alignment must be the unique matching of the repaired sequence,
// restricted to original symbols.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/alphabet/paren.h"
#include "src/core/doc.h"
#include "src/core/dyck.h"
#include "src/core/edit_script.h"
#include "src/core/solver.h"
#include "src/gen/adversarial.h"
#include "src/gen/workload.h"
#include "src/runtime/batch_engine.h"

namespace dyck {
namespace {

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

ParenSeq Parse(const std::string& text) {
  return ParenAlphabet::Default().Parse(text).value();
}

// Random corrupted documents of every shape (balanced ones included, with
// zero corruptions) plus adversarial shapes. Sizes stay small enough for
// the cubic and branching solvers.
std::vector<ParenSeq> Corpus() {
  std::vector<ParenSeq> corpus;
  uint64_t seed = 11;
  for (const gen::Shape shape :
       {gen::Shape::kUniform, gen::Shape::kDeep, gen::Shape::kFlat}) {
    for (const int64_t n : {24, 96, 192}) {
      for (const int64_t edits : {0, 1, 3, 6}) {
        gen::BalancedOptions balanced;
        balanced.length = n;
        balanced.shape = shape;
        gen::CorruptionOptions corruption;
        corruption.num_edits = edits;
        corpus.push_back(
            gen::Corrupt(gen::RandomBalanced(balanced, seed), corruption,
                         seed + 1)
                .seq);
        seed += 2;
      }
    }
  }
  corpus.push_back(gen::ManyValleys(3, 2));
  corpus.push_back(gen::MismatchedV(24, 3, 5));
  corpus.push_back(gen::GreedyTrap(12));
  corpus.push_back(Parse("(((((((("));
  corpus.push_back(Parse("(](](](]"));
  corpus.push_back(Parse(")]})]}"));
  corpus.push_back(Parse("}{"));
  corpus.push_back(Parse(""));
  corpus.push_back(Parse("([{}])()"));
  return corpus;
}

std::vector<Options> SolverMatrix() {
  std::vector<Options> out;
  for (const Solver* solver : SolverRegistry::Global().solvers()) {
    for (const Metric metric :
         {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
      for (const RepairStyle style :
           {RepairStyle::kMinimalEdits, RepairStyle::kPreserveContent}) {
        Options options;
        options.solver = solver->name();
        options.metric = metric;
        options.style = style;
        if (!ResolveSolver(options).ok()) continue;  // metric unsupported
        out.push_back(options);
      }
    }
  }
  return out;
}

std::vector<Options> AutoMatrix() {
  std::vector<Options> out;
  for (const Metric metric :
       {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
    for (const RepairStyle style :
         {RepairStyle::kMinimalEdits, RepairStyle::kPreserveContent}) {
      Options options;
      options.metric = metric;
      options.style = style;
      out.push_back(options);
    }
  }
  return out;
}

std::string Label(const char* path, const Options& options,
                  const ParenSeq& seq) {
  return std::string(path) + " solver=" +
         (options.solver.empty() ? "auto" : options.solver) +
         " metric=" + std::to_string(static_cast<int>(options.metric)) +
         " style=" + std::to_string(static_cast<int>(options.style)) +
         " seq=" + ToString(seq);
}

// Original index of every symbol of ApplyScript(seq, script), or -1 for an
// inserted one.
std::vector<int64_t> Origins(const ParenSeq& seq, const EditScript& script) {
  std::vector<int64_t> origin;
  size_t k = 0;
  for (int64_t i = 0; i <= static_cast<int64_t>(seq.size()); ++i) {
    for (; k < script.ops.size() && script.ops[k].pos == i &&
           script.ops[k].kind == EditOpKind::kInsert;
         ++k) {
      origin.push_back(-1);
    }
    if (i == static_cast<int64_t>(seq.size())) break;
    if (k < script.ops.size() && script.ops[k].pos == i) {
      if (script.ops[k++].kind == EditOpKind::kDelete) continue;
    }
    origin.push_back(i);
  }
  return origin;
}

// partner[x] = index of the symbol that x matches in the balanced `seq`.
std::vector<int64_t> Partners(const ParenSeq& seq) {
  std::vector<int64_t> partner(seq.size(), -1);
  std::vector<int64_t> stack;
  for (int64_t x = 0; x < static_cast<int64_t>(seq.size()); ++x) {
    if (seq[x].is_open) {
      stack.push_back(x);
    } else {
      partner[x] = stack.back();
      partner[stack.back()] = x;
      stack.pop_back();
    }
  }
  return partner;
}

// The alignment of a repair: sorted by open, non-crossing, each pair
// matched in `repaired`, and every surviving original symbol in exactly
// one pair unless its partner in `repaired` is an inserted symbol.
void ExpectAlignment(const ParenSeq& seq, const RepairResult& result,
                     const std::string& what) {
  ASSERT_TRUE(IsBalanced(result.repaired)) << what;
  const Pairs pairs = AlignedPairs(seq, result.script);
  // Balanced input (no ops): every symbol pairs, whichever solver ran.
  if (result.script.ops.empty()) {
    EXPECT_EQ(pairs.size(), seq.size() / 2) << what;
  }
  const std::vector<int64_t> origin = Origins(seq, result.script);
  ASSERT_EQ(origin.size(), result.repaired.size()) << what;
  const std::vector<int64_t> partner = Partners(result.repaired);
  std::vector<int64_t> at(seq.size(), -1);  // original -> repaired index
  for (int64_t x = 0; x < static_cast<int64_t>(origin.size()); ++x) {
    if (origin[x] >= 0) at[origin[x]] = x;
  }

  std::vector<int> uses(seq.size(), 0);
  std::vector<int64_t> open_closes;  // closes of the enclosing pairs
  for (size_t k = 0; k < pairs.size(); ++k) {
    const auto [a, b] = pairs[k];
    ASSERT_TRUE(0 <= a && a < b && b < static_cast<int64_t>(seq.size()))
        << what;
    if (k > 0) {
      ASSERT_LT(pairs[k - 1].first, a) << what;
    }
    while (!open_closes.empty() && open_closes.back() < a) {
      open_closes.pop_back();
    }
    ASSERT_TRUE(open_closes.empty() || b < open_closes.back())
        << what << ": (" << a << "," << b << ") crosses an enclosing pair";
    open_closes.push_back(b);
    ASSERT_GE(at[a], 0) << what;
    ASSERT_GE(at[b], 0) << what;
    EXPECT_EQ(partner[at[a]], at[b]) << what;
    ++uses[a];
    ++uses[b];
  }
  for (int64_t x = 0; x < static_cast<int64_t>(origin.size()); ++x) {
    if (origin[x] < 0) continue;
    const int want = origin[partner[x]] >= 0 ? 1 : 0;
    EXPECT_EQ(uses[origin[x]], want) << what << ": symbol " << origin[x];
  }
}

TEST(AlignedPairsTest, EveryForcedSolverYieldsTheFullAlignment) {
  const std::vector<ParenSeq> corpus = Corpus();
  int64_t checked = 0;
  for (const Options& options : SolverMatrix()) {
    for (const ParenSeq& seq : corpus) {
      const auto result = Repair(seq, options);
      if (!result.ok()) {
        // Declines: banded off single-peak inputs, approx-greedy where it
        // cannot certify its factor.
        EXPECT_TRUE(result.status().IsInvalidArgument() &&
                    (options.solver == "banded" ||
                     options.solver == "approx-greedy"))
            << result.status().ToString();
        continue;
      }
      ExpectAlignment(seq, *result, Label("Repair", options, seq));
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000);
}

TEST(AlignedPairsTest, AutoThroughEveryEntryPath) {
  const std::vector<ParenSeq> corpus = Corpus();
  runtime::BatchRepairEngine engine;
  for (const Options& options : AutoMatrix()) {
    const runtime::BatchRepairOutcome batch = engine.RepairAll(corpus, options);
    for (size_t i = 0; i < corpus.size(); ++i) {
      const ParenSeq& seq = corpus[i];
      const auto eager = Repair(seq, options);
      ASSERT_TRUE(eager.ok()) << Label("Repair", options, seq);
      ExpectAlignment(seq, *eager, Label("Repair", options, seq));

      RepairDoc doc(seq, /*target_chunk_size=*/16);
      RepairResult incremental;
      ASSERT_TRUE(doc.RepairInto(options, &incremental).ok());
      ExpectAlignment(seq, incremental, Label("RepairDoc", options, seq));

      ASSERT_TRUE(batch.results[i].ok());
      ExpectAlignment(seq, *batch.results[i],
                      Label("BatchRepairEngine", options, seq));
    }
  }
}

TEST(AlignedPairsTest, HandWorkedScripts) {
  const ParenSeq seq = Parse("(]()");
  EditScript script;
  script.ops = {{EditOpKind::kSubstitute, 1, Paren::Close(0)}};
  EXPECT_EQ(AlignedPairs(seq, script), (Pairs{{0, 1}, {2, 3}}));

  // Deleting "(]" leaves "()".
  script.ops = {{EditOpKind::kDelete, 0, Paren{}},
                {EditOpKind::kDelete, 1, Paren{}}};
  EXPECT_EQ(AlignedPairs(seq, script), (Pairs{{2, 3}}));

  // Inserted symbols match but are never reported: "[" inserted before
  // "]" pairs with it, and ")" appended closes the leading "(".
  script.ops = {{EditOpKind::kInsert, 1, Paren::Open(1)},
                {EditOpKind::kInsert, 4, Paren::Close(0)}};
  EXPECT_EQ(AlignedPairs(seq, script), (Pairs{{2, 3}}));
}

TEST(AlignedPairsDeathTest, RejectsAScriptThatDoesNotRepair) {
  const ParenSeq seq = Parse("(]");
  EXPECT_DEATH(AlignedPairs(seq, EditScript{}), "does not repair");
}

}  // namespace
}  // namespace dyck
