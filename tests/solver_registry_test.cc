// The SolverRegistry (src/core/solver.h): built-in population, name
// resolution, capability metadata, cost-model monotonicity, and the
// unsupported-metric error contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "src/core/solver.h"
#include "src/pipeline/telemetry.h"

namespace dyck {
namespace {

TEST(SolverRegistryTest, BuiltInSolversAreRegistered) {
  SolverRegistry& registry = SolverRegistry::Global();
  for (const char* name : {"fpt", "fpt-deletion", "fpt-substitution",
                           "cubic", "branching", "greedy", "banded",
                           "approx", "approx-greedy"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.Find("no-such-solver"), nullptr);
}

TEST(SolverRegistryTest, CapabilityMetadataMatchesTheFamilies) {
  SolverRegistry& registry = SolverRegistry::Global();

  const Solver* greedy = registry.Find("greedy");
  ASSERT_NE(greedy, nullptr);
  EXPECT_FALSE(greedy->caps().planner_candidate);

  const Solver* banded = registry.Find("banded");
  ASSERT_NE(banded, nullptr);
  EXPECT_TRUE(banded->caps().deletions);
  EXPECT_FALSE(banded->caps().substitutions);
  EXPECT_TRUE(banded->caps().needs_reduced);
  EXPECT_EQ(banded->caps().approximation_factor, 1.0);

  const Solver* del = registry.Find("fpt-deletion");
  ASSERT_NE(del, nullptr);
  EXPECT_TRUE(del->caps().deletions);
  EXPECT_FALSE(del->caps().substitutions);
  EXPECT_TRUE(del->caps().planner_candidate);

  const Solver* sub = registry.Find("fpt-substitution");
  ASSERT_NE(sub, nullptr);
  EXPECT_FALSE(sub->caps().deletions);
  EXPECT_TRUE(sub->caps().substitutions);
  EXPECT_TRUE(sub->caps().planner_candidate);

  // The umbrella and branching are forced-only; cubic is a candidate.
  EXPECT_FALSE(registry.Find("fpt")->caps().planner_candidate);
  EXPECT_FALSE(registry.Find("branching")->caps().planner_candidate);
  EXPECT_TRUE(registry.Find("cubic")->caps().planner_candidate);

  // Every registered factor is a usable bound (>= 1.0, possibly infinite).
  for (const Solver* solver : registry.solvers()) {
    EXPECT_GE(solver->caps().approximation_factor, 1.0) << solver->name();
  }
}

// The planner's small-cost floor takes the first admissible candidate in
// registration order; for each metric that must be the paper's solver.
TEST(SolverRegistryTest, FptRegistersFirstForEachMetric) {
  for (const bool subs : {false, true}) {
    const Solver* first = nullptr;
    for (const Solver* solver : SolverRegistry::Global().solvers()) {
      const SolverCaps& caps = solver->caps();
      if (caps.planner_candidate &&
          (subs ? caps.substitutions : caps.deletions)) {
        first = solver;
        break;
      }
    }
    ASSERT_NE(first, nullptr);
    EXPECT_STREQ(first->name(), subs ? "fpt-substitution" : "fpt-deletion");
  }
}

// "" and "auto" both leave the choice to the planner; every other name
// must be registered and support the metric; a NaN factor is refused.
TEST(SolverRegistryTest, ResolveSolverMapsNamesToRegistryEntries) {
  for (const char* planner : {"", "auto"}) {
    const auto resolved = ResolveSolver({.solver = planner});
    ASSERT_TRUE(resolved.ok()) << planner;
    EXPECT_EQ(*resolved, nullptr) << planner;
  }
  for (const Solver* solver : SolverRegistry::Global().solvers()) {
    const SolverCaps& caps = solver->caps();
    const Metric metric = caps.deletions ? Metric::kDeletionsOnly
                                         : Metric::kDeletionsAndSubstitutions;
    const auto resolved =
        ResolveSolver({.metric = metric, .solver = solver->name()});
    ASSERT_TRUE(resolved.ok()) << solver->name();
    EXPECT_EQ(*resolved, solver);
  }

  const auto unknown = ResolveSolver({.solver = "quantum"});
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsInvalidArgument());
  EXPECT_EQ(unknown.status().message(), "unknown solver 'quantum'");

  const auto metric = ResolveSolver(
      {.metric = Metric::kDeletionsAndSubstitutions, .solver = "banded"});
  ASSERT_FALSE(metric.ok());
  EXPECT_TRUE(metric.status().IsInvalidArgument());

  Options nan_factor;
  nan_factor.max_approximation_factor = std::nan("");
  const auto nan = ResolveSolver(nan_factor);
  ASSERT_FALSE(nan.ok());
  EXPECT_TRUE(nan.status().IsInvalidArgument());
  EXPECT_NE(nan.status().message().find("max_approximation_factor"),
            std::string::npos);
}

TEST(SolverRegistryTest, ApproxLadderCapsMatchTheDesign) {
  SolverRegistry& registry = SolverRegistry::Global();

  const Solver* approx = registry.Find("approx");
  ASSERT_NE(approx, nullptr);
  EXPECT_EQ(approx->caps().approximation_factor, 2.0);
  EXPECT_TRUE(approx->caps().planner_candidate);
  EXPECT_TRUE(approx->caps().deletions);
  EXPECT_TRUE(approx->caps().substitutions);

  const Solver* certified = registry.Find("approx-greedy");
  ASSERT_NE(certified, nullptr);
  EXPECT_EQ(certified->caps().approximation_factor, 3.0);
  EXPECT_TRUE(certified->caps().planner_candidate);

  // Greedy stays the uncertified floor of the ladder.
  EXPECT_TRUE(std::isinf(registry.Find("greedy")->caps().approximation_factor));
}

// The planner compares PredictCost values across solvers, which is only
// meaningful if each model is nondecreasing in both n and d.
TEST(SolverRegistryTest, PredictCostIsMonotoneInSizeAndDistance) {
  for (const Solver* solver : SolverRegistry::Global().solvers()) {
    for (const int64_t n : {16, 64, 256, 1024, 4096}) {
      for (const int64_t d : {1, 2, 4, 8, 16, 32, 64}) {
        const double cost = solver->PredictCost(n, d);
        EXPECT_GE(cost, 0.0) << solver->name();
        EXPECT_LE(cost, solver->PredictCost(n * 2, d))
            << solver->name() << " n=" << n << " d=" << d;
        EXPECT_LE(cost, solver->PredictCost(n, d * 2))
            << solver->name() << " n=" << n << " d=" << d;
      }
    }
  }
}

TEST(SolverRegistryTest, CheckMetricNamesTheSolverAndTheCapability) {
  SolverRegistry& registry = SolverRegistry::Global();

  const Solver* banded = registry.Find("banded");
  ASSERT_NE(banded, nullptr);
  EXPECT_TRUE(banded->CheckMetric(false).ok());
  const Status subs = banded->CheckMetric(true);
  EXPECT_TRUE(subs.IsInvalidArgument());
  EXPECT_EQ(subs.message(),
            "solver 'banded' does not support the deletions+substitutions"
            " metric (capability: deletions-only)");

  const Solver* sub = registry.Find("fpt-substitution");
  ASSERT_NE(sub, nullptr);
  EXPECT_TRUE(sub->CheckMetric(true).ok());
  const Status del = sub->CheckMetric(false);
  EXPECT_TRUE(del.IsInvalidArgument());
  EXPECT_EQ(del.message(),
            "solver 'fpt-substitution' does not support the deletions"
            " metric (capability: substitutions-only)");
}

// A minimal solver for registration-contract tests.
class FakeSolver : public Solver {
 public:
  explicit FakeSolver(const char* name) : name_(name) {}
  const char* name() const override { return name_; }
  const SolverCaps& caps() const override {
    static const SolverCaps caps;
    return caps;
  }
  double PredictCost(int64_t, int64_t) const override { return 0; }
  Status Solve(const SolveRequest&, RepairContext&, RepairTelemetry*,
               SolverResult*) const override {
    return Status::Internal("unimplemented");
  }
  StatusOr<int64_t> SolveDistance(const SolveRequest&) const override {
    return Status::Internal("unimplemented");
  }

 private:
  const char* name_;
};

TEST(SolverRegistryTest, RegisterRejectsDuplicatesAndEmptyNames) {
  SolverRegistry registry;
  EXPECT_TRUE(registry.Register(std::make_unique<FakeSolver>("a")).ok());
  const Status duplicate =
      registry.Register(std::make_unique<FakeSolver>("a"));
  EXPECT_TRUE(duplicate.IsInvalidArgument());
  EXPECT_NE(duplicate.message().find("already registered"),
            std::string::npos);
  EXPECT_TRUE(
      registry.Register(std::make_unique<FakeSolver>("")).IsInvalidArgument());
  EXPECT_TRUE(registry.Register(std::make_unique<FakeSolver>("auto"))
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.Register(nullptr).IsInvalidArgument());
  EXPECT_EQ(registry.solvers().size(), 1u);
}

}  // namespace
}  // namespace dyck
