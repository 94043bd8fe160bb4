// Integration tests for the dyckfix CLI: invokes the built binary on
// temporary files and checks output + exit status.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef DYCKFIX_CLI_PATH
#error "DYCKFIX_CLI_PATH must be defined by the build"
#endif

namespace dyck {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
};

RunResult RunCli(const std::string& args, const std::string& stdin_text) {
  const std::string in_path =
      ::testing::TempDir() + "/cli_in_" +
      std::to_string(reinterpret_cast<uintptr_t>(&args)) + ".txt";
  {
    std::ofstream out(in_path, std::ios::binary);
    out << stdin_text;
  }
  const std::string command = std::string(DYCKFIX_CLI_PATH) + " " + args +
                              " < " + in_path + " 2>/dev/null";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t read = 0;
  while ((read = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.stdout_text.append(buffer, read);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::remove(in_path.c_str());
  return result;
}

RunResult RunCliOnFile(const std::string& args, const std::string& name,
                       const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  const std::string command =
      std::string(DYCKFIX_CLI_PATH) + " " + args + " " + path +
      " 2>/dev/null";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t read = 0;
  while ((read = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.stdout_text.append(buffer, read);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::remove(path.c_str());
  return result;
}

// Like RunCli, but merges stderr into the captured output (2>&1) so tests
// can see diagnostics: --stats lines and flag-error messages.
RunResult RunCliMerged(const std::string& args,
                       const std::string& stdin_text) {
  const std::string in_path =
      ::testing::TempDir() + "/cli_in_merged_" +
      std::to_string(reinterpret_cast<uintptr_t>(&args)) + ".txt";
  {
    std::ofstream out(in_path, std::ios::binary);
    out << stdin_text;
  }
  const std::string command = std::string(DYCKFIX_CLI_PATH) + " " + args +
                              " < " + in_path + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t read = 0;
  while ((read = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.stdout_text.append(buffer, read);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::remove(in_path.c_str());
  return result;
}

// Like RunCliMerged, but with an environment-variable prefix ("K=V ")
// prepended to the shell command; for DYCKFIX_SIMD override tests.
RunResult RunCliMergedEnv(const std::string& env_prefix,
                          const std::string& args,
                          const std::string& stdin_text) {
  const std::string in_path =
      ::testing::TempDir() + "/cli_in_env_" +
      std::to_string(reinterpret_cast<uintptr_t>(&args)) + ".txt";
  {
    std::ofstream out(in_path, std::ios::binary);
    out << stdin_text;
  }
  const std::string command = env_prefix + " " +
                              std::string(DYCKFIX_CLI_PATH) + " " + args +
                              " < " + in_path + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t read = 0;
  while ((read = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.stdout_text.append(buffer, read);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::remove(in_path.c_str());
  return result;
}

// Runs the CLI with `args` only (no stdin redirection); for batch mode.
// Set merge_stderr to also capture diagnostics (2>&1).
RunResult RunCommand(const std::string& args, bool merge_stderr = false) {
  const std::string command =
      std::string(DYCKFIX_CLI_PATH) + " " + args +
      (merge_stderr ? " 2>&1" : " 2>/dev/null");
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t read = 0;
  while ((read = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.stdout_text.append(buffer, read);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(CliTest, BalancedInputExitsZeroAndEchoes) {
  const RunResult result = RunCli("--format=parens", "([]{})");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.stdout_text, "([]{})");
}

TEST(CliTest, RepairsParensAndExitsOne) {
  const RunResult result = RunCli("--format=parens --quiet", "([)](");
  EXPECT_EQ(result.exit_code, 1);
  // 2 edits under the default substitution metric; output is balanced.
  EXPECT_EQ(result.stdout_text, "([])");
}

TEST(CliTest, DeletionMetric) {
  const RunResult result =
      RunCli("--format=parens --metric=deletions --quiet", "((");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(result.stdout_text, "");
}

TEST(CliTest, CheckMode) {
  EXPECT_EQ(RunCli("--format=parens --check", "()").exit_code, 0);
  EXPECT_EQ(RunCli("--format=parens --check", "(").exit_code, 1);
}

TEST(CliTest, JsonByExtension) {
  // The paper's metrics have no insertions, so the unclosed "[" is removed
  // (one edit) rather than closed.
  const RunResult result = RunCliOnFile(
      "--quiet", "broken.json", R"({"a": [1, 2})");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(result.stdout_text, R"({"a": 1, 2})");
}

TEST(CliTest, HtmlByExtension) {
  const RunResult result = RunCliOnFile(
      "--quiet --metric=deletions", "broken.html",
      "<p>hello <b>world</p>");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(result.stdout_text, "<p>hello world</p>");
}

TEST(CliTest, MaxDistanceGivesUp) {
  const RunResult result =
      RunCli("--format=parens --max-distance=1 --quiet", "((((((((");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(CliTest, BadFlagIsUsageError) {
  EXPECT_EQ(RunCli("--format=bogus", "()").exit_code, 2);
  EXPECT_EQ(RunCli("--no-such-flag", "()").exit_code, 2);
}

TEST(CliTest, PreserveModeInsertsMissingBracket) {
  // The flagship use case: with --preserve the unclosed "[" gains a "]"
  // instead of being deleted.
  const RunResult result = RunCliOnFile(
      "--quiet --preserve", "trunc.json", R"({"a": [1, 2})");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(result.stdout_text, R"({"a": [1, 2]})");
}

TEST(CliTest, JsonOutputMode) {
  const RunResult balanced = RunCli("--format=parens --json", "()");
  EXPECT_EQ(balanced.exit_code, 0);
  EXPECT_EQ(balanced.stdout_text, "{\"cost\":0,\"ops\":[]}\n");

  const RunResult repaired =
      RunCli("--format=parens --json --quiet", "((");
  EXPECT_EQ(repaired.exit_code, 1);
  EXPECT_NE(repaired.stdout_text.find("\"cost\":1"), std::string::npos);
  EXPECT_NE(repaired.stdout_text.find("\"op\":\"substitute\""),
            std::string::npos);
}

TEST(CliTest, NonBracketTextPassesThrough) {
  const RunResult result =
      RunCli("--format=parens --quiet", "f(x[0]) { return; ");
  EXPECT_EQ(result.exit_code, 1);
  // The '{' is repaired (deleted or closed); prose is preserved.
  EXPECT_NE(result.stdout_text.find("f(x[0])"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("return;"), std::string::npos);
}

TEST(CliTest, BatchModeOverDirectory) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cli_batch_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write = [&](const char* name, const char* content) {
    std::ofstream out(dir / name, std::ios::binary);
    out << content;
  };
  write("a.txt", "()");
  write("b.txt", "([)](");
  write("c.txt", "[]{}");

  const RunResult result =
      RunCommand("--batch=" + dir.string() + " --jobs=2");
  EXPECT_EQ(result.exit_code, 1);  // one file needed repair, none errored
  const std::vector<std::string> lines = Lines(result.stdout_text);
  ASSERT_EQ(lines.size(), 4u) << result.stdout_text;
  // One line per file, in input (sorted) order, then the summary.
  EXPECT_EQ(lines[0], (dir / "a.txt").string() + ": balanced");
  EXPECT_EQ(lines[1],
            (dir / "b.txt").string() + ": repaired distance=2");
  EXPECT_EQ(lines[2], (dir / "c.txt").string() + ": balanced");
  EXPECT_NE(lines[3].find("summary: files=3 balanced=2 repaired=1"
                          " errors=0 cancelled=0 degraded=0 edits=2 jobs=2"),
            std::string::npos)
      << lines[3];
  fs::remove_all(dir);
}

TEST(CliTest, BatchModeFileListWithMissingFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cli_batch_list";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "ok.txt", std::ios::binary);
    out << "((";
  }
  const fs::path list = dir / "list.txt";
  {
    std::ofstream out(list, std::ios::binary);
    out << (dir / "ok.txt").string() << "\n"
        << (dir / "missing.txt").string() << "\n";
  }

  const RunResult result = RunCommand("--batch=" + list.string() +
                                      " --jobs=1 --metric=deletions");
  EXPECT_EQ(result.exit_code, 2);  // the missing file is an error
  const std::vector<std::string> lines = Lines(result.stdout_text);
  ASSERT_EQ(lines.size(), 3u) << result.stdout_text;
  EXPECT_EQ(lines[0], (dir / "ok.txt").string() + ": repaired distance=2");
  // The message carries the OS detail (strerror) after the path; pin the
  // stable prefix only.
  EXPECT_EQ(lines[1].rfind(
                (dir / "missing.txt").string() + ": error: cannot open", 0),
            0u)
      << lines[1];
  EXPECT_NE(lines[2].find("balanced=0 repaired=1 errors=1"
                          " cancelled=0 degraded=0 edits=2"),
            std::string::npos)
      << lines[2];
  fs::remove_all(dir);
}

TEST(CliTest, BatchModeBadPathIsUsageError) {
  EXPECT_EQ(RunCommand("--batch=/nonexistent/dir/nowhere").exit_code, 2);
  // --batch with a trailing file operand is ambiguous: usage error.
  EXPECT_EQ(RunCommand("--batch=/tmp extra_operand").exit_code, 2);
}

// "cost":N from the CLI's --json script output; -1 if absent.
long long CostOf(const std::string& json) {
  const size_t pos = json.find("\"cost\":");
  if (pos == std::string::npos) return -1;
  return std::atoll(json.c_str() + pos + 7);
}

TEST(CliTest, AlgorithmFlagCombinationsAgree) {
  // Optimal solvers may pick different same-cost scripts, so the invariant
  // across --algorithm values is the cost, not the exact bytes: every
  // solver must match the cubic reference distance for each metric.
  const char* inputs[] = {"([)](", "((", "]][["};
  for (const char* input : inputs) {
    for (const char* metric : {"substitutions", "deletions"}) {
      const std::string base_args =
          std::string("--format=parens --quiet --json --metric=") + metric;
      const RunResult reference =
          RunCli(base_args + " --algorithm=cubic", input);
      EXPECT_EQ(reference.exit_code, 1) << input << " " << metric;
      const long long expected_cost = CostOf(reference.stdout_text);
      EXPECT_GT(expected_cost, 0) << reference.stdout_text;
      for (const char* algorithm : {"auto", "fpt", "branching"}) {
        const RunResult result = RunCli(
            base_args + " --algorithm=" + algorithm, input);
        EXPECT_EQ(result.exit_code, 1)
            << input << " " << metric << " " << algorithm;
        EXPECT_EQ(CostOf(result.stdout_text), expected_cost)
            << input << " " << metric << " " << algorithm << ": "
            << result.stdout_text;
      }
    }
  }
}

TEST(CliTest, StatsFlagPrintsPipelineBreakdown) {
  const RunResult repaired =
      RunCliMerged("--format=parens --quiet --stats", "(()(");
  EXPECT_EQ(repaired.exit_code, 1);
  EXPECT_NE(repaired.stdout_text.find(
                "dyckfix: stats: solver=fpt-substitution"),
            std::string::npos)
      << repaired.stdout_text;
  for (const char* field :
       {"iterations=", "reduced=", "copies=0", "normalize=", "solve=",
        "materialize=", "total="}) {
    EXPECT_NE(repaired.stdout_text.find(field), std::string::npos)
        << "missing " << field << " in: " << repaired.stdout_text;
  }

  const RunResult balanced =
      RunCliMerged("--format=parens --quiet --stats", "()");
  EXPECT_EQ(balanced.exit_code, 0);
  EXPECT_NE(
      balanced.stdout_text.find("dyckfix: stats: solver=none(balanced)"),
      std::string::npos)
      << balanced.stdout_text;

  const RunResult cubic = RunCliMerged(
      "--format=parens --quiet --stats --algorithm=cubic", "((");
  EXPECT_EQ(cubic.exit_code, 1);
  EXPECT_NE(cubic.stdout_text.find("dyckfix: stats: solver=cubic"),
            std::string::npos)
      << cubic.stdout_text;
}

TEST(CliTest, StatsReportsForcedSimdBackend) {
  // Round trip: forcing a backend through the environment must be
  // reflected verbatim in the --stats telemetry line.
  const RunResult scalar = RunCliMergedEnv(
      "DYCKFIX_SIMD=scalar", "--format=parens --quiet --stats", "(()(");
  EXPECT_EQ(scalar.exit_code, 1);
  EXPECT_NE(scalar.stdout_text.find(" backend=scalar"), std::string::npos)
      << scalar.stdout_text;

  // Without an override the line still names whichever backend
  // auto-detection picked.
  const RunResult autodetect =
      RunCliMerged("--format=parens --quiet --stats", "(()(");
  EXPECT_EQ(autodetect.exit_code, 1);
  EXPECT_NE(autodetect.stdout_text.find(" backend="), std::string::npos)
      << autodetect.stdout_text;
}

TEST(CliTest, InvalidSimdBackendIsStartupError) {
  // A typo'd DYCKFIX_SIMD must abort with a message naming the valid
  // set, not silently fall back to scalar kernels.
  const RunResult result = RunCliMergedEnv(
      "DYCKFIX_SIMD=sse9", "--format=parens --quiet", "()");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stdout_text.find(
                "invalid DYCKFIX_SIMD value 'sse9'; valid values: "
                "scalar, sse2, avx2, neon"),
            std::string::npos)
      << result.stdout_text;
}

TEST(CliTest, BatchStatsAggregatesAcrossFiles) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cli_batch_stats";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write = [&](const char* name, const char* content) {
    std::ofstream out(dir / name, std::ios::binary);
    out << content;
  };
  write("a.txt", "(()(");
  write("b.txt", "()");
  write("c.txt", "))((");

  const RunResult result = RunCommand(
      "--batch=" + dir.string() + " --jobs=2 --stats", /*merge_stderr=*/true);
  EXPECT_EQ(result.exit_code, 1);
  // Two files repaired through the pipeline; the balanced one
  // short-circuits before Repair and contributes no telemetry.
  EXPECT_NE(result.stdout_text.find("dyckfix: stats: docs=2"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("trivial=0 solvers=fpt-substitution:2"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("copies=0"), std::string::npos);
  fs::remove_all(dir);
}

TEST(CliTest, UnknownFlagValuesGiveUsableErrors) {
  const RunResult metric = RunCliMerged("--metric=bogus", "()");
  EXPECT_EQ(metric.exit_code, 2);
  EXPECT_NE(
      metric.stdout_text.find(
          "unknown --metric value 'bogus' (expected substitutions|deletions)"),
      std::string::npos)
      << metric.stdout_text;

  const RunResult algorithm = RunCliMerged("--algorithm=quantum", "()");
  EXPECT_EQ(algorithm.exit_code, 2);
  EXPECT_NE(algorithm.stdout_text.find(
                "unknown solver 'quantum' (see --list-algorithms)"),
            std::string::npos)
      << algorithm.stdout_text;

  const RunResult format = RunCliMerged("--format=yaml", "()");
  EXPECT_EQ(format.exit_code, 2);
  EXPECT_NE(format.stdout_text.find("unknown --format value 'yaml'"),
            std::string::npos)
      << format.stdout_text;

  const RunResult flag = RunCliMerged("--frobnicate", "()");
  EXPECT_EQ(flag.exit_code, 2);
  EXPECT_NE(flag.stdout_text.find("unknown option '--frobnicate'"),
            std::string::npos)
      << flag.stdout_text;
  // The usage line still follows the specific diagnostic.
  EXPECT_NE(flag.stdout_text.find("usage: dyckfix"), std::string::npos);
}

TEST(CliTest, ListAlgorithmsPrintsTheRegistry) {
  const RunResult result = RunCommand("--list-algorithms");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* name : {"auto", "fpt", "fpt-deletion", "fpt-substitution",
                           "cubic", "branching", "banded", "greedy",
                           "approx", "approx-greedy"}) {
    EXPECT_NE(result.stdout_text.find(name), std::string::npos)
        << name << "\n"
        << result.stdout_text;
  }
  // The KIND column spells out the accuracy contract of each rung of
  // the ladder: exact, a certified factor, or no guarantee at all.
  EXPECT_NE(result.stdout_text.find("exact"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("<=2.0x"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("<=3.0x"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("heuristic"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("deletions+substitutions"),
            std::string::npos);
  // Registry names are the only solver handle; no family column.
  EXPECT_EQ(result.stdout_text.find("family="), std::string::npos);
}

TEST(CliTest, RegistryNamesAreAcceptedByAlgorithmFlag) {
  const RunResult result =
      RunCliMerged("--algorithm=fpt-deletion --metric=deletions --quiet",
                   "(()(");
  EXPECT_EQ(result.exit_code, 1);  // repaired
  // Any minimal deletion repair of "(()(" removes two opens, leaving "()".
  EXPECT_EQ(result.stdout_text, "()");
}

TEST(CliTest, UnsupportedSolverMetricComboSurfacesTheCapabilityError) {
  // banded is deletions-only; the registry's InvalidArgument message is
  // surfaced verbatim.
  const RunResult result =
      RunCliMerged("--algorithm=banded --metric=substitutions", "(()(");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stdout_text.find(
                "solver 'banded' does not support the "
                "deletions+substitutions metric (capability: deletions-only)"),
            std::string::npos)
      << result.stdout_text;
}

TEST(CliTest, StatsReportThePlannerDecision) {
  const RunResult result = RunCliMerged("--stats --quiet", "(()(");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stdout_text.find("solver="), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("planned="), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("d_hint="), std::string::npos)
      << result.stdout_text;
}

// The text form of gen::ManyValleys(32, 16): edit2 = 512, so the exact
// solvers cannot finish inside any test-scale deadline — only budget
// enforcement (trip, degrade, or cancel) gets the CLI past this input.
std::string SlowText() {
  std::string text;
  for (int v = 0; v < 32; ++v) {
    text.append(16, '(');
    text.append(16, ']');
  }
  return text;
}

TEST(CliBudgetTest, BudgetFlagValuesAreValidated) {
  for (const char* bad :
       {"--timeout-ms=abc", "--timeout-ms=0", "--timeout-ms=-5",
        "--batch-timeout-ms=0", "--batch-timeout-ms=never",
        "--degrade=bogus"}) {
    EXPECT_EQ(RunCli(std::string(bad) + " --format=parens", "()").exit_code,
              2)
        << bad;
  }
  const RunResult timeout = RunCliMerged("--timeout-ms=0", "()");
  EXPECT_NE(timeout.stdout_text.find(
                "unknown --timeout-ms value '0' (expected a positive "
                "integer (milliseconds))"),
            std::string::npos)
      << timeout.stdout_text;
  const RunResult degrade = RunCliMerged("--degrade=bogus", "()");
  EXPECT_NE(
      degrade.stdout_text.find(
          "unknown --degrade value 'bogus' (expected fail|greedy|approx)"),
      std::string::npos)
      << degrade.stdout_text;
}

TEST(CliBudgetTest, TimeoutWithFailPolicyReportsTheTrip) {
  const RunResult result =
      RunCliMerged("--format=parens --timeout-ms=50", SlowText());
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stdout_text.find("DeadlineExceeded"), std::string::npos)
      << result.stdout_text;
}

TEST(CliBudgetTest, TimeoutWithGreedyPolicyMarksDegraded) {
  const RunResult result = RunCliMerged(
      "--format=parens --timeout-ms=50 --degrade=greedy", SlowText());
  EXPECT_EQ(result.exit_code, 1);  // a repair was produced
  EXPECT_NE(result.stdout_text.find("(degraded)"), std::string::npos)
      << result.stdout_text;
}

TEST(CliBudgetTest, BatchDocTimeoutDegradesOnlyTheSlowFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cli_budget_batch";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write = [&](const char* name, const std::string& content) {
    std::ofstream out(dir / name, std::ios::binary);
    out << content;
  };
  write("a.txt", "([)](");
  write("b_slow.txt", SlowText());
  write("c.txt", "()");

  const RunResult result = RunCommand(
      "--batch=" + dir.string() +
      " --jobs=2 --timeout-ms=50 --degrade=greedy");
  EXPECT_EQ(result.exit_code, 1);  // repaired, but no errors or cancels
  const std::vector<std::string> lines = Lines(result.stdout_text);
  ASSERT_EQ(lines.size(), 4u) << result.stdout_text;
  EXPECT_EQ(lines[0], (dir / "a.txt").string() + ": repaired distance=2");
  EXPECT_NE(lines[1].find((dir / "b_slow.txt").string() + ": repaired"),
            std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find(" (degraded)"), std::string::npos) << lines[1];
  EXPECT_EQ(lines[2], (dir / "c.txt").string() + ": balanced");
  EXPECT_NE(lines[3].find("errors=0 cancelled=0 degraded=1"),
            std::string::npos)
      << lines[3];
  fs::remove_all(dir);
}

TEST(CliBudgetTest, BatchDeadlineCancelsQueuedFiles) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cli_budget_cancel";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write = [&](const char* name, const std::string& content) {
    std::ofstream out(dir / name, std::ios::binary);
    out << content;
  };
  // Sorted order puts the two budget-busters first: with --jobs=2 they pin
  // both workers past the deadline and every later file gets cancelled.
  write("a_slow.txt", SlowText());
  write("b_slow.txt", SlowText());
  write("c.txt", "((");
  write("d.txt", "()");

  const RunResult result = RunCommand("--batch=" + dir.string() +
                                      " --jobs=2 --batch-timeout-ms=100");
  EXPECT_EQ(result.exit_code, 2);  // cancelled files fail the batch
  const std::vector<std::string> lines = Lines(result.stdout_text);
  ASSERT_EQ(lines.size(), 5u) << result.stdout_text;
  EXPECT_EQ(lines[2], (dir / "c.txt").string() + ": cancelled (batch deadline)");
  EXPECT_EQ(lines[3], (dir / "d.txt").string() + ": cancelled (batch deadline)");
  const std::string& summary = lines[4];
  EXPECT_NE(summary.find("cancelled="), std::string::npos) << summary;
  EXPECT_EQ(summary.find("cancelled=0"), std::string::npos) << summary;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dyck
