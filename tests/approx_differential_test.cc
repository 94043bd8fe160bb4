// Oracle differential harness for the approximation ladder (src/approx):
// every approximate solver in the registry is checked against the cubic
// ground-truth oracle on randomized and adversarial corpora, under both
// metrics, with fresh and reused RepairContexts. The contract under test
// is the certificate itself:
//
//   exact <= reported <= factor * exact          (finite-factor solvers)
//   exact <= reported                            (greedy, factor = inf)
//
// plus the telemetry that carries the proof: certified_factor is the
// realized ratio reported / proven-lower-bound, and exact_lower_bound
// never exceeds the true exact distance (a lower bound that did would be
// a forged certificate).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/alphabet/paren.h"
#include "src/baseline/cubic.h"
#include "src/core/context.h"
#include "src/core/dyck.h"
#include "src/core/edit_script.h"
#include "src/core/solver.h"
#include "src/gen/adversarial.h"
#include "src/gen/workload.h"
#include "src/pipeline/pipeline.h"
#include "src/profile/reduce.h"

namespace dyck {
namespace {

ParenSeq Parse(const std::string& text) {
  return ParenAlphabet::Default().Parse(text).value();
}

// Randomized (generator-driven) plus adversarial shapes. Sizes stay
// moderate because every sequence is also fed to the O(n^3) oracle.
std::vector<ParenSeq> Corpus() {
  std::vector<ParenSeq> corpus;
  uint64_t seed = 7;
  for (const gen::Shape shape :
       {gen::Shape::kUniform, gen::Shape::kDeep, gen::Shape::kFlat}) {
    for (const int64_t n : {16, 64, 192}) {
      for (const int64_t edits : {1, 4, 12}) {
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
  // Adversarial: valley chains, a mismatched peak, the greedy trap (built
  // to make the forward scan cascade), and certification edge cases —
  // all-openers (relaxation bound tight) and type-mismatched pairs
  // (relaxation bound useless).
  corpus.push_back(gen::ManyValleys(4, 3));
  corpus.push_back(gen::MismatchedV(64, 4, 9));
  corpus.push_back(gen::GreedyTrap(24));
  corpus.push_back(Parse("(((((((((((((((("));
  corpus.push_back(Parse("(](](](](](](](]"));
  corpus.push_back(Parse(")]})]})]}"));
  corpus.push_back(Parse(""));
  corpus.push_back(Parse("([{}])"));
  return corpus;
}

struct OracleCase {
  ParenSeq seq;
  int64_t exact[2];  // indexed by allow_substitutions
};

const std::vector<OracleCase>& OracleCorpus() {
  static const std::vector<OracleCase>* cases = [] {
    auto* out = new std::vector<OracleCase>();
    for (ParenSeq& seq : Corpus()) {
      OracleCase c;
      c.exact[0] = CubicDistance(seq, /*allow_substitutions=*/false);
      c.exact[1] = CubicDistance(seq, /*allow_substitutions=*/true);
      c.seq = std::move(seq);
      out->push_back(std::move(c));
    }
    return out;
  }();
  return *cases;
}

// The approximate rungs of the registry: everything not exact.
std::vector<const Solver*> ApproximateSolvers() {
  std::vector<const Solver*> out;
  for (const Solver* solver : SolverRegistry::Global().solvers()) {
    if (solver->caps().approximation_factor != 1.0) out.push_back(solver);
  }
  return out;
}

// SolveDistance with a pipeline-shaped request. nullopt = the solver
// declined (approx-greedy's certification gate); any non-InvalidArgument
// failure is reported as a test failure by the caller via status.
StatusOr<int64_t> DistanceWith(const Solver* solver, const ParenSeq& seq,
                               bool subs) {
  SolveRequest request;
  request.seq = seq;
  request.use_substitutions = subs;
  request.doubling_cap = static_cast<int64_t>(seq.size()) + 1;
  Reduced reduced;
  if (solver->caps().needs_reduced) {
    Reduce(request.seq, &reduced);
    request.reduced = &reduced;
  }
  return solver->SolveDistance(request);
}

// Distances: every accepted answer sits in the certified band around the
// oracle's exact value.
TEST(ApproxDifferentialTest, DistanceStaysInsideTheCertifiedBand) {
  for (const Solver* solver : ApproximateSolvers()) {
    const double factor = solver->caps().approximation_factor;
    for (const bool subs : {false, true}) {
      if (subs ? !solver->caps().substitutions : !solver->caps().deletions) {
        continue;
      }
      for (const OracleCase& c : OracleCorpus()) {
        const StatusOr<int64_t> reported = DistanceWith(solver, c.seq, subs);
        if (!reported.ok()) {
          EXPECT_TRUE(reported.status().IsInvalidArgument())
              << solver->name() << ": " << reported.status().ToString();
          continue;  // certification gate declined this input
        }
        const int64_t exact = c.exact[subs ? 1 : 0];
        EXPECT_GE(*reported, exact)
            << solver->name() << " undershot on " << ToString(c.seq);
        if (std::isfinite(factor)) {
          EXPECT_LE(static_cast<double>(*reported),
                    factor * static_cast<double>(exact))
              << solver->name() << " broke its certificate on "
              << ToString(c.seq);
        }
      }
    }
  }
}

// Full repairs through the pipeline: the script is valid and costs what
// the distance claims, the repaired sequence is balanced, and the
// telemetry certificate is internally consistent AND consistent with the
// oracle — the proven lower bound may never exceed the true distance.
TEST(ApproxDifferentialTest, RepairCertificatesAreSoundAgainstTheOracle) {
  RepairContext reused;
  for (const Solver* solver : ApproximateSolvers()) {
    if (std::isinf(solver->caps().approximation_factor)) continue;
    const double factor = solver->caps().approximation_factor;
    for (const bool subs : {false, true}) {
      Options options;
      options.metric = subs ? Metric::kDeletionsAndSubstitutions
                            : Metric::kDeletionsOnly;
      options.solver = solver->name();
      for (const OracleCase& c : OracleCorpus()) {
        RepairContext fresh;
        const auto result = pipeline::Run(c.seq, options, &fresh);
        if (!result.ok()) {
          EXPECT_TRUE(result.status().IsInvalidArgument())
              << solver->name() << ": " << result.status().ToString();
          continue;
        }
        const int64_t exact = c.exact[subs ? 1 : 0];
        EXPECT_GE(result->distance, exact) << solver->name();
        EXPECT_LE(static_cast<double>(result->distance),
                  factor * static_cast<double>(exact))
            << solver->name();
        EXPECT_TRUE(ValidateScript(c.seq, result->script, result->distance,
                                   subs)
                        .ok())
            << solver->name() << " " << ToString(c.seq);
        EXPECT_TRUE(IsBalanced(result->repaired)) << solver->name();

        const RepairTelemetry& t = result->telemetry;
        if (c.seq.empty()) {
          // Balanced fast path: no solver ran.
          EXPECT_EQ(result->distance, 0);
          continue;
        }
        EXPECT_GE(t.certified_factor, 1.0) << solver->name();
        EXPECT_LE(t.certified_factor, factor) << solver->name();
        if (t.certified_factor == 1.0) {
          // Exact answers carry no lower bound (the distance is the bound)
          // and must really be exact.
          EXPECT_EQ(result->distance, exact) << solver->name();
          EXPECT_EQ(t.exact_lower_bound, -1) << solver->name();
        } else {
          // A certificate that overstates the lower bound is forged.
          EXPECT_GE(t.exact_lower_bound, 1) << solver->name();
          EXPECT_LE(t.exact_lower_bound, exact) << solver->name();
          // The realized ratio is measured against the proven bound.
          EXPECT_NEAR(t.certified_factor,
                      static_cast<double>(result->distance) /
                          static_cast<double>(t.exact_lower_bound),
                      1e-9)
              << solver->name();
        }

        // Context reuse may never change an answer: byte-identical
        // results from a context that has served every prior document.
        const auto again = pipeline::Run(c.seq, options, &reused);
        ASSERT_TRUE(again.ok()) << solver->name() << ": " << again.status();
        EXPECT_EQ(again->distance, result->distance) << solver->name();
        EXPECT_EQ(again->script.ToString(), result->script.ToString())
            << solver->name();
        EXPECT_EQ(again->telemetry.certified_factor, t.certified_factor)
            << solver->name();
        EXPECT_EQ(again->telemetry.exact_lower_bound, t.exact_lower_bound)
            << solver->name();
      }
    }
  }
}

// The refinement solver ("approx") accepts every input; only the O(n)
// counting rung ("approx-greedy") may decline, and it must do so loudly
// with the documented InvalidArgument, never with a silently uncertified
// answer.
TEST(ApproxDifferentialTest, CertifiedGreedyDeclinesLoudly) {
  const ParenSeq hard = Parse("(](](](](](](](]");  // U = 8, L = 1
  SolveRequest request;
  request.seq = hard;
  request.use_substitutions = true;
  request.doubling_cap = static_cast<int64_t>(hard.size()) + 1;

  const Solver* certified = SolverRegistry::Global().Find("approx-greedy");
  ASSERT_NE(certified, nullptr);
  const StatusOr<int64_t> declined = certified->SolveDistance(request);
  ASSERT_FALSE(declined.ok());
  EXPECT_TRUE(declined.status().IsInvalidArgument());
  EXPECT_NE(declined.status().message().find("cannot certify"),
            std::string::npos)
      << declined.status().ToString();

  const Solver* approx = SolverRegistry::Global().Find("approx");
  ASSERT_NE(approx, nullptr);
  for (const OracleCase& c : OracleCorpus()) {
    for (const bool subs : {false, true}) {
      EXPECT_TRUE(DistanceWith(approx, c.seq, subs).ok())
          << "approx declined " << ToString(c.seq);
    }
  }
}

// Forced selection through the public Options surface reaches the ladder:
// both rungs are reachable by registry name.
TEST(ApproxDifferentialTest, ForcedSelectionReachesTheLadder) {
  const ParenSeq seq = Parse("((((((((((((((((");
  Options by_refine;
  by_refine.solver = "approx";
  const auto via_refine = Repair(seq, by_refine);
  ASSERT_TRUE(via_refine.ok()) << via_refine.status();
  EXPECT_EQ(via_refine->telemetry.solver_name, "approx");
  // Sixteen unmatched openers under the default edit2 metric: greedy
  // pairs them for U = 8 while the relaxation proves L = 8, so the
  // certificate collapses to a proof of optimality.
  EXPECT_EQ(via_refine->distance, 8);
  EXPECT_EQ(via_refine->telemetry.certified_factor, 1.0);

  Options by_name;
  by_name.solver = "approx-greedy";
  const auto via_name = Repair(seq, by_name);
  ASSERT_TRUE(via_name.ok()) << via_name.status();
  EXPECT_EQ(via_name->telemetry.solver_name, "approx-greedy");
  EXPECT_EQ(via_name->distance, 8);
}

}  // namespace
}  // namespace dyck
