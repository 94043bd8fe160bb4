// Metamorphic properties: transformations of the input with a known,
// exactly predictable effect on the distance. These catch bug classes that
// point-wise differential tests miss (asymmetries, type-identity
// assumptions, concatenation handling).
//
// Every property iterates SolverRegistry::Global() instead of calling the
// two FPT convenience wrappers, so baseline solvers (cubic, branching,
// banded) are held to the same invariants — they used to be silently
// skipped. Exact solvers must satisfy each property exactly; approximate
// solvers cannot (greedy is direction-dependent, certification is
// shape-dependent), so they get a dedicated soundness property instead:
// exact <= reported <= factor * exact on every input they accept.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <string_view>

#include "src/core/dyck.h"
#include "src/core/solver.h"
#include "src/fpt/deletion.h"
#include "src/fpt/substitution.h"
#include "src/gen/workload.h"
#include "src/profile/reduce.h"

namespace dyck {
namespace {

ParenSeq RandomSeq(int64_t n, int32_t types, std::mt19937_64& rng) {
  ParenSeq seq;
  for (int64_t i = 0; i < n; ++i) {
    seq.push_back(
        Paren{static_cast<ParenType>(rng() % types), rng() % 2 == 0});
  }
  return seq;
}

// Mirror: reverse the sequence and flip every direction. A sequence is
// balanced iff its mirror is, and edits map one-to-one, so both distances
// are invariant.
ParenSeq Mirror(const ParenSeq& seq) {
  ParenSeq out;
  out.reserve(seq.size());
  for (auto it = seq.rbegin(); it != seq.rend(); ++it) {
    out.push_back(Paren{it->type, !it->is_open});
  }
  return out;
}

// The independently-tested reference for soundness bounds.
int64_t Oracle(const ParenSeq& seq, bool subs) {
  return subs ? FptSubstitutionDistance(seq) : FptDeletionDistance(seq);
}

// SolveDistance through the registry interface, building the request the
// way the pipeline would (reduced input for solvers that declare
// needs_reduced). nullopt = the solver declined this input: an Applicable
// gate (banded's single-peak shape test) or an InvalidArgument refusal
// (approx-greedy's certification gate). Any other failure is a bug.
std::optional<int64_t> DistanceWith(const Solver* solver,
                                    const ParenSeq& seq, bool subs) {
  SolveRequest request;
  request.seq = seq;
  request.use_substitutions = subs;
  request.doubling_cap = static_cast<int64_t>(seq.size()) + 1;
  Reduced reduced;
  if (solver->caps().needs_reduced) {
    Reduce(request.seq, &reduced);
    request.reduced = &reduced;
  }
  if (!solver->Applicable(request)) return std::nullopt;
  const StatusOr<int64_t> result = solver->SolveDistance(request);
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << solver->name() << ": " << result.status().ToString();
    return std::nullopt;
  }
  return *result;
}

// Branching is exponential in d, so its random inputs stay short enough
// that d is small; everyone else gets the historical corpus sizes.
int64_t MaxTrialLength(const Solver* solver, int64_t wanted) {
  return std::string_view(solver->name()) == "branching"
             ? std::min<int64_t>(wanted, 14)
             : wanted;
}

// Runs `fn(solver, subs)` for every (registered exact solver, metric it
// supports) pair. Properties below assert exact invariances, which only
// exact solvers promise.
template <typename Fn>
void ForEachExactSolver(Fn fn) {
  for (const Solver* solver : SolverRegistry::Global().solvers()) {
    if (solver->caps().approximation_factor != 1.0) continue;
    if (solver->caps().deletions) fn(solver, false);
    if (solver->caps().substitutions) fn(solver, true);
  }
}

TEST(MetamorphicTest, MirrorInvariance) {
  ForEachExactSolver([](const Solver* solver, bool subs) {
    std::mt19937_64 rng(42);
    for (int trial = 0; trial < 60; ++trial) {
      const ParenSeq seq =
          RandomSeq(rng() % MaxTrialLength(solver, 24), 3, rng);
      const ParenSeq mirrored = Mirror(seq);
      const auto a = DistanceWith(solver, seq, subs);
      const auto b = DistanceWith(solver, mirrored, subs);
      // Shape gates are not mirror-symmetric (banded may accept only one
      // side); the property applies when the solver answered both.
      if (!a.has_value() || !b.has_value()) continue;
      EXPECT_EQ(*a, *b) << solver->name() << " " << ToString(seq);
    }
  });
}

// Relabeling types by any permutation changes nothing.
TEST(MetamorphicTest, TypeRelabelInvariance) {
  ForEachExactSolver([](const Solver* solver, bool subs) {
    std::mt19937_64 rng(43);
    for (int trial = 0; trial < 60; ++trial) {
      const ParenSeq seq =
          RandomSeq(rng() % MaxTrialLength(solver, 24), 4, rng);
      ParenSeq relabeled = seq;
      const int32_t perm[4] = {2, 0, 3, 1};
      for (Paren& p : relabeled) p.type = perm[p.type];
      const auto a = DistanceWith(solver, seq, subs);
      const auto b = DistanceWith(solver, relabeled, subs);
      if (!a.has_value() || !b.has_value()) continue;
      EXPECT_EQ(*a, *b) << solver->name() << " " << ToString(seq);
    }
  });
}

// Wrapping in a matched pair of a FRESH type changes nothing. (Wrapping
// with a type that occurs in S can genuinely *reduce* the distance — the
// wrapper's opener can adopt a stray closer of S, e.g. "][" wrapped in
// "[]" is already balanced — so the invariance only holds for fresh
// types. Discovering that was this test's first contribution.)
TEST(MetamorphicTest, FreshTypeWrapInvariance) {
  ForEachExactSolver([](const Solver* solver, bool subs) {
    std::mt19937_64 rng(44);
    for (int trial = 0; trial < 50; ++trial) {
      const ParenSeq seq =
          RandomSeq(rng() % MaxTrialLength(solver, 20), 3, rng);
      ParenSeq wrapped;
      wrapped.push_back(Paren::Open(3));  // fresh type
      wrapped.insert(wrapped.end(), seq.begin(), seq.end());
      wrapped.push_back(Paren::Close(3));
      const auto base = DistanceWith(solver, seq, subs);
      const auto after = DistanceWith(solver, wrapped, subs);
      if (!base.has_value() || !after.has_value()) continue;
      EXPECT_EQ(*after, *base) << solver->name() << " " << ToString(seq);
    }
  });
}

// Wrapping with an in-S type can only help, never hurt.
TEST(MetamorphicTest, WrapNeverIncreasesDistance) {
  ForEachExactSolver([](const Solver* solver, bool subs) {
    std::mt19937_64 rng(45);
    for (int trial = 0; trial < 50; ++trial) {
      const ParenSeq seq =
          RandomSeq(rng() % MaxTrialLength(solver, 20), 3, rng);
      ParenSeq wrapped;
      wrapped.push_back(Paren::Open(1));
      wrapped.insert(wrapped.end(), seq.begin(), seq.end());
      wrapped.push_back(Paren::Close(1));
      const auto base = DistanceWith(solver, seq, subs);
      const auto after = DistanceWith(solver, wrapped, subs);
      if (!base.has_value() || !after.has_value()) continue;
      EXPECT_LE(*after, *base) << solver->name() << " " << ToString(seq);
    }
  });
}

// Distances are subadditive under concatenation.
TEST(MetamorphicTest, ConcatenationSubadditivity) {
  ForEachExactSolver([](const Solver* solver, bool subs) {
    std::mt19937_64 rng(45);
    for (int trial = 0; trial < 50; ++trial) {
      const int64_t half = MaxTrialLength(solver, 14) / 2;
      const ParenSeq a = RandomSeq(rng() % (half + 1), 2, rng);
      const ParenSeq b = RandomSeq(rng() % (half + 1), 2, rng);
      ParenSeq ab = a;
      ab.insert(ab.end(), b.begin(), b.end());
      const auto da = DistanceWith(solver, a, subs);
      const auto db = DistanceWith(solver, b, subs);
      const auto dab = DistanceWith(solver, ab, subs);
      if (!da.has_value() || !db.has_value() || !dab.has_value()) continue;
      EXPECT_LE(*dab, *da + *db)
          << solver->name() << " " << ToString(a) << " | " << ToString(b);
    }
  });
}

TEST(MetamorphicTest, OpeningRunPlusItsMirrorIsFree) {
  // For an all-openings prefix P, P . mirror(P) pairs every symbol with
  // its mirror image concentrically, so the result is balanced.
  ForEachExactSolver([](const Solver* solver, bool subs) {
    std::mt19937_64 rng(46);
    for (int trial = 0; trial < 50; ++trial) {
      ParenSeq opens;
      const int64_t n = rng() % MaxTrialLength(solver, 20);
      for (int64_t i = 0; i < n; ++i) {
        opens.push_back(Paren::Open(static_cast<ParenType>(rng() % 3)));
      }
      ParenSeq doubled = opens;
      const ParenSeq mirrored = Mirror(opens);
      doubled.insert(doubled.end(), mirrored.begin(), mirrored.end());
      ASSERT_TRUE(IsBalanced(doubled)) << ToString(opens);
      const auto d = DistanceWith(solver, doubled, subs);
      if (!d.has_value()) continue;
      EXPECT_EQ(*d, 0) << solver->name() << " " << ToString(opens);
    }
  });
}

// Duplicating a sequence at most doubles the distance.
TEST(MetamorphicTest, DoublingAtMostDoubles) {
  ForEachExactSolver([](const Solver* solver, bool subs) {
    std::mt19937_64 rng(47);
    for (int trial = 0; trial < 50; ++trial) {
      const ParenSeq seq =
          RandomSeq(rng() % (MaxTrialLength(solver, 14) / 2 + 1), 2, rng);
      ParenSeq doubled = seq;
      doubled.insert(doubled.end(), seq.begin(), seq.end());
      const auto base = DistanceWith(solver, seq, subs);
      const auto twice = DistanceWith(solver, doubled, subs);
      if (!base.has_value() || !twice.has_value()) continue;
      EXPECT_LE(*twice, 2 * *base) << solver->name() << " " << ToString(seq);
    }
  });
}

// Interleaving metric relation: edit2 <= edit1 <= 2 * edit2, for every
// exact solver that supports both metrics.
TEST(MetamorphicTest, MetricSandwich) {
  for (const Solver* solver : SolverRegistry::Global().solvers()) {
    const SolverCaps& caps = solver->caps();
    if (caps.approximation_factor != 1.0 || !caps.deletions ||
        !caps.substitutions) {
      continue;
    }
    std::mt19937_64 rng(48);
    for (int trial = 0; trial < 60; ++trial) {
      const ParenSeq seq =
          RandomSeq(rng() % MaxTrialLength(solver, 24), 3, rng);
      const auto e1 = DistanceWith(solver, seq, false);
      const auto e2 = DistanceWith(solver, seq, true);
      if (!e1.has_value() || !e2.has_value()) continue;
      EXPECT_LE(*e2, *e1) << solver->name() << " " << ToString(seq);
      EXPECT_LE(*e1, 2 * *e2) << solver->name() << " " << ToString(seq);
    }
  }
}

// Approximate solvers break the invariances above by design (greedy is
// direction-dependent; certification is shape-dependent), but every answer
// they give must still be sound: at least the exact distance, and — when
// the solver certifies a finite factor — at most factor * exact. Greedy
// (infinite factor) only promises the lower side.
TEST(MetamorphicTest, ApproximateSolversAreSoundOnEveryAcceptedInput) {
  for (const Solver* solver : SolverRegistry::Global().solvers()) {
    const SolverCaps& caps = solver->caps();
    if (caps.approximation_factor == 1.0) continue;
    for (const bool subs : {false, true}) {
      if (subs ? !caps.substitutions : !caps.deletions) continue;
      std::mt19937_64 rng(49);
      for (int trial = 0; trial < 60; ++trial) {
        const ParenSeq seq = RandomSeq(rng() % 24, 3, rng);
        const auto d = DistanceWith(solver, seq, subs);
        if (!d.has_value()) continue;
        const int64_t exact = Oracle(seq, subs);
        EXPECT_GE(*d, exact) << solver->name() << " " << ToString(seq);
        if (std::isfinite(caps.approximation_factor)) {
          EXPECT_LE(static_cast<double>(*d),
                    caps.approximation_factor * static_cast<double>(exact))
              << solver->name() << " " << ToString(seq);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dyck
