// The cost-model planner (src/pipeline/planner.h): kAuto must agree
// byte-for-byte with the forced run of whatever solver it picks, pick the
// cubic DP on the short high-distance inputs where FPT loses (the kAuto
// crossover regression), use the banded solver on single-peak inputs, and
// surface capability violations as InvalidArgument naming the solver.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/baseline/greedy.h"
#include "src/core/dyck.h"
#include "src/core/solver.h"
#include "src/gen/adversarial.h"
#include "src/gen/workload.h"
#include "src/pipeline/telemetry.h"

namespace dyck {
namespace {

ParenSeq Parse(const std::string& text) {
  return ParenAlphabet::Default().Parse(text).value();
}

std::vector<ParenSeq> Corpus() {
  std::vector<ParenSeq> corpus;
  uint64_t seed = 1;
  for (const gen::Shape shape :
       {gen::Shape::kUniform, gen::Shape::kDeep, gen::Shape::kFlat}) {
    for (const int64_t n : {32, 128, 384}) {
      for (const int64_t edits : {1, 3, 8}) {
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
  // Adversarial shapes: valleys, one mismatched peak, the greedy trap.
  corpus.push_back(gen::ManyValleys(4, 3));
  corpus.push_back(gen::MismatchedV(40, 4, 7));
  corpus.push_back(gen::GreedyTrap(24));
  return corpus;
}

double RepairSeconds(const ParenSeq& seq, const Options& options) {
  const auto start = std::chrono::steady_clock::now();
  const auto result = Repair(seq, options);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(result.ok());
  return elapsed.count();
}

// kAuto must be indistinguishable from forcing the solver it picked: same
// distance, same script, on every input and both metrics.
TEST(PlannerTest, AutoIsByteIdenticalToItsForcedChoice) {
  for (const ParenSeq& seq : Corpus()) {
    for (const Metric metric :
         {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
      Options auto_options;
      auto_options.metric = metric;
      const auto auto_result = Repair(seq, auto_options);
      ASSERT_TRUE(auto_result.ok());
      if (auto_result->telemetry.balanced_fast_path) continue;
      const std::string& choice = auto_result->telemetry.solver_name;
      ASSERT_FALSE(choice.empty());

      Options forced = auto_options;
      forced.solver = choice;
      const auto forced_result = Repair(seq, forced);
      ASSERT_TRUE(forced_result.ok()) << choice;
      EXPECT_EQ(auto_result->distance, forced_result->distance) << choice;
      EXPECT_EQ(auto_result->script.ToString(),
                forced_result->script.ToString())
          << choice;
      EXPECT_EQ(forced_result->telemetry.solver_name, choice);

      // Distance() goes through the same planner/solver stack.
      const auto distance = Distance(seq, auto_options);
      ASSERT_TRUE(distance.ok());
      EXPECT_EQ(*distance, auto_result->distance);
    }
  }
}

TEST(PlannerTest, TelemetryRecordsTheDecision) {
  const auto result = Repair(Parse("(()("), {});
  ASSERT_TRUE(result.ok());
  const RepairTelemetry& t = result->telemetry;
  EXPECT_FALSE(t.solver_name.empty());
  EXPECT_GE(t.planned_cost, 0.0);
  // The greedy scan is an upper bound on the exact distance.
  EXPECT_GE(t.d_upper_bound, result->distance);

  // Forcing the same solver by name skips the planner, which shows as
  // d_upper_bound == -1.
  const auto forced = Repair(Parse("(()("), {.solver = t.solver_name});
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(forced->telemetry.solver_name, t.solver_name);
  EXPECT_EQ(forced->telemetry.d_upper_bound, -1);
  EXPECT_EQ(forced->telemetry.planned_cost, -1);
}

// The original kAuto bug: "unbalanced -> FPT" unconditionally, even on
// short high-distance inputs where the n^3 DP is an order of magnitude
// faster than the d^3-per-symbol FPT solver. The planner must route such
// inputs to cubic — and that routing must actually win wall-clock against
// forcing FPT.
TEST(PlannerTest, CrossoverRegressionShortHighDistanceGoesCubic) {
  gen::BalancedOptions balanced;
  balanced.length = 256;
  gen::CorruptionOptions corruption;
  corruption.num_edits = 32;
  const ParenSeq seq =
      gen::Corrupt(gen::RandomBalanced(balanced, 11), corruption, 12).seq;

  Options options;
  options.metric = Metric::kDeletionsOnly;
  const auto auto_result = Repair(seq, options);
  ASSERT_TRUE(auto_result.ok());
  EXPECT_EQ(auto_result->telemetry.solver_name, "cubic");

  // Warm both paths once, then compare one timed run each. The measured
  // gap on this shape is >5x, so a plain comparison is stable.
  Options fpt = options;
  fpt.solver = "fpt";
  const double auto_seconds = RepairSeconds(seq, options);
  const double fpt_seconds = RepairSeconds(seq, fpt);
  EXPECT_LT(auto_seconds, fpt_seconds);

  const auto forced_cubic_distance = [&] {
    Options cubic = options;
    cubic.solver = "cubic";
    return Repair(seq, cubic);
  }();
  ASSERT_TRUE(forced_cubic_distance.ok());
  EXPECT_EQ(auto_result->distance, forced_cubic_distance->distance);
}

// Tiny inputs stay on the paper's FPT default (the planner's small-cost
// floor): predictions under measurement noise must not flap the choice.
TEST(PlannerTest, TinyInputsKeepTheFptDefault) {
  const auto result = Repair(Parse("(()("), {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->telemetry.solver_name, "fpt-substitution");
}

// EstimateDistanceUpperBound is the counting twin of GreedyRepair; the two
// share one policy-templated scan and may never drift.
TEST(PlannerTest, DistanceEstimateMatchesGreedyScriptCost) {
  for (const ParenSeq& seq : Corpus()) {
    for (const bool subs : {false, true}) {
      EXPECT_EQ(EstimateDistanceUpperBound(seq, subs),
                GreedyRepair(seq, subs).cost);
    }
  }
}

// The planner's actual hint takes the min of a forward scan and a
// reversed-with-flipped-directions scan. It must (a) equal the min of the
// forward estimate on the sequence and on its explicitly materialized
// reverse-flip (the zero-copy view may not drift from the real thing),
// and (b) still bound the true distance from above.
TEST(PlannerTest, BidirectionalEstimateIsTheTighterValidBound) {
  for (const ParenSeq& seq : Corpus()) {
    ParenSeq rev(seq.rbegin(), seq.rend());
    for (Paren& p : rev) p.is_open = !p.is_open;
    for (const bool subs : {false, true}) {
      const int64_t bidi = EstimateDistanceUpperBoundBidirectional(seq, subs);
      EXPECT_EQ(bidi, std::min(EstimateDistanceUpperBound(seq, subs),
                               EstimateDistanceUpperBound(rev, subs)));

      Options options;
      options.metric =
          subs ? Metric::kDeletionsAndSubstitutions : Metric::kDeletionsOnly;
      const auto exact = Repair(seq, options);
      ASSERT_TRUE(exact.ok());
      EXPECT_GE(bidi, exact->distance);
    }
  }
}

// The reversed scan exists because greedy's cascades are direction
// dependent: GreedyTrap is built to fool the left-to-right parse, so its
// reverse-flip fools the right-to-left one — and the bidirectional bound
// stays tight on both orientations.
TEST(PlannerTest, ReversedScanRescuesDirectionDependentCascades) {
  const ParenSeq trap = gen::GreedyTrap(24);
  ParenSeq flipped(trap.rbegin(), trap.rend());
  for (Paren& p : flipped) p.is_open = !p.is_open;
  const int64_t on_trap = EstimateDistanceUpperBoundBidirectional(trap, false);
  const int64_t on_flip =
      EstimateDistanceUpperBoundBidirectional(flipped, false);
  EXPECT_EQ(on_trap, on_flip);
  EXPECT_LE(on_flip, EstimateDistanceUpperBound(flipped, false));
}

// Forced banded agrees with forced cubic on single-peak inputs, at the
// generator's documented distance.
TEST(PlannerTest, BandedMatchesCubicOnSinglePeakInputs) {
  for (const int64_t errors : {1, 3, 7}) {
    const ParenSeq seq = gen::MismatchedV(100, errors, 21 + errors);
    Options banded;
    banded.metric = Metric::kDeletionsOnly;
    banded.solver = "banded";
    const auto banded_result = Repair(seq, banded);
    ASSERT_TRUE(banded_result.ok());

    Options cubic;
    cubic.metric = Metric::kDeletionsOnly;
    cubic.solver = "cubic";
    const auto cubic_result = Repair(seq, cubic);
    ASSERT_TRUE(cubic_result.ok());

    EXPECT_EQ(banded_result->distance, cubic_result->distance);
    EXPECT_EQ(banded_result->distance, 2 * errors);
    EXPECT_EQ(banded_result->script.Cost(), banded_result->distance);
  }
}

// On a large single-peak input the banded O(n d) alignment undercuts both
// FPT (n d^3) and cubic (n^3); the planner must find it.
TEST(PlannerTest, AutoPicksBandedOnLargeSinglePeak) {
  const ParenSeq seq = gen::MismatchedV(4000, 30, 5);
  Options options;
  options.metric = Metric::kDeletionsOnly;
  const auto result = Repair(seq, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->telemetry.solver_name, "banded");
  EXPECT_EQ(result->distance, 60);
}

// Accuracy gating, exact side: max_approximation_factor == 1.0 (the
// default, explicit, or a sub-1.0 value clamped up to it) admits exactly
// the solver set the planner had before the approximation ladder existed,
// so every choice, distance, and script is byte-identical to the default
// configuration.
TEST(PlannerTest, UnitFactorIsByteIdenticalToExactSelection) {
  for (const ParenSeq& seq : Corpus()) {
    for (const Metric metric :
         {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
      Options defaults;
      defaults.metric = metric;
      const auto base = Repair(seq, defaults);
      ASSERT_TRUE(base.ok());
      for (const double factor : {1.0, 0.25}) {  // < 1.0 clamps to 1.0
        Options gated = defaults;
        gated.max_approximation_factor = factor;
        const auto result = Repair(seq, gated);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result->telemetry.solver_name,
                  base->telemetry.solver_name);
        EXPECT_EQ(result->distance, base->distance);
        EXPECT_EQ(result->script.ToString(), base->script.ToString());
        EXPECT_EQ(result->telemetry.certified_factor, 1.0);
        EXPECT_EQ(result->telemetry.exact_lower_bound, -1);
      }
    }
  }
}

// Accuracy gating, approximate side: on a large high-distance input the
// refinement solver's capped probes undercut every exact cost model, so a
// 2.0 budget routes there — and the answer must honour the certificate:
// exact <= reported <= 2 * exact, with the realized ratio and the proven
// lower bound in the telemetry.
TEST(PlannerTest, LadderPicksApproxOnLargeHighDistanceInputs) {
  gen::BalancedOptions balanced;
  balanced.length = 2048;
  gen::CorruptionOptions corruption;
  corruption.num_edits = 24;
  const ParenSeq seq =
      gen::Corrupt(gen::RandomBalanced(balanced, 31), corruption, 32).seq;

  Options exact_options;
  exact_options.metric = Metric::kDeletionsOnly;
  const auto exact = Repair(seq, exact_options);
  ASSERT_TRUE(exact.ok());

  Options approx_options = exact_options;
  approx_options.max_approximation_factor = 2.0;
  const auto result = Repair(seq, approx_options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->telemetry.solver_name, "approx");
  EXPECT_GE(result->distance, exact->distance);
  EXPECT_LE(result->distance, 2 * exact->distance);
  EXPECT_GE(result->telemetry.certified_factor, 1.0);
  EXPECT_LE(result->telemetry.certified_factor, 2.0);
  if (result->telemetry.certified_factor > 1.0) {
    // A certified-but-inexact answer keeps its proven lower bound.
    EXPECT_GE(result->telemetry.exact_lower_bound, 1);
    EXPECT_LE(result->telemetry.exact_lower_bound, exact->distance);
  }
  // The returned script really costs what the distance claims.
  EXPECT_EQ(result->script.Cost(), result->distance);
}

// With a 3.0 budget the certified-greedy rung (linear time) wins the cost
// race outright on inputs its counting certificate accepts — an
// all-openers run is the canonical case, where the untyped relaxation
// lower bound equals the greedy cost and proves greedy optimal.
TEST(PlannerTest, CertifiedGreedyWinsWhereItsCertificateIsTight) {
  ParenSeq seq;
  for (int i = 0; i < 4096; ++i) {
    seq.push_back(Paren::Open(static_cast<ParenType>(i % 3)));
  }
  Options options;
  options.metric = Metric::kDeletionsOnly;
  options.max_approximation_factor = 3.0;
  const auto result = Repair(seq, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->telemetry.solver_name, "approx-greedy");
  EXPECT_EQ(result->distance, 4096);  // every opener must go
  // U == L collapses the certificate: the answer is provably optimal.
  EXPECT_EQ(result->telemetry.certified_factor, 1.0);
  EXPECT_EQ(result->telemetry.exact_lower_bound, -1);
}

TEST(PlannerTest, UnsupportedSolverMetricComboIsInvalidArgument) {
  // banded is deletions-only.
  Options banded;
  banded.solver = "banded";
  banded.metric = Metric::kDeletionsAndSubstitutions;
  const auto banded_result = Repair(Parse("(()("), banded);
  ASSERT_FALSE(banded_result.ok());
  EXPECT_TRUE(banded_result.status().IsInvalidArgument());
  EXPECT_EQ(banded_result.status().message(),
            "solver 'banded' does not support the deletions+substitutions"
            " metric (capability: deletions-only)");

  // fpt-substitution is substitutions-only.
  Options sub;
  sub.solver = "fpt-substitution";
  sub.metric = Metric::kDeletionsOnly;
  const auto sub_result = Repair(Parse("(()("), sub);
  ASSERT_FALSE(sub_result.ok());
  EXPECT_TRUE(sub_result.status().IsInvalidArgument());
  EXPECT_EQ(sub_result.status().message(),
            "solver 'fpt-substitution' does not support the deletions"
            " metric (capability: substitutions-only)");

  // Distance() enforces the same contract.
  EXPECT_TRUE(Distance(Parse("(()("), banded).status().IsInvalidArgument());
}

TEST(PlannerTest, UnknownSolverNameIsInvalidArgument) {
  Options options;
  options.solver = "quantum";
  const auto result = Repair(Parse("(()("), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_EQ(result.status().message(), "unknown solver 'quantum'");
}

// Forcing banded on an input whose reduction is not single-peak must fail
// loudly, not misalign.
TEST(PlannerTest, BandedRejectsMultiPeakInputs) {
  Options options;
  options.metric = Metric::kDeletionsOnly;
  options.solver = "banded";
  const auto result = Repair(gen::ManyValleys(4, 3), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("single-peak"),
            std::string::npos);
}

}  // namespace
}  // namespace dyck
