// One solver name, four front ends: Options::solver, the CLI's
// --algorithm=, the C API's dyckfix_options.algorithm and the daemon's
// solver= field. For every registry name plus "auto" and "", all four
// must give the same distance and repaired text; for an unknown name, the
// same InvalidArgument message. The C API's dyckfix_telemetry.algorithm
// is pinned per name as well: it is the one place solvers are still
// grouped into families, and its values are ABI.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "include/dyckfix.h"
#include "src/core/dyck.h"
#include "src/core/solver.h"
#include "src/server/server.h"

#ifndef DYCKFIX_CLI_PATH
#error "DYCKFIX_CLI_PATH must be defined by the build"
#endif

namespace dyck {
namespace {

// What one front end answered: a repair, or an InvalidArgument message.
struct Answer {
  bool ok = false;
  long long distance = -1;
  std::string repaired;
  std::string error;
};

const char* MetricName(Metric metric) {
  return metric == Metric::kDeletionsOnly ? "deletions" : "substitutions";
}

Answer ViaOptions(const std::string& text, const std::string& solver,
                  Metric metric) {
  Options options;
  options.metric = metric;
  options.solver = solver;
  const auto result =
      Repair(ParenAlphabet::Default().Parse(text).value(), options);
  Answer answer;
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
    answer.error = result.status().message();
    return answer;
  }
  answer.ok = true;
  answer.distance = result->distance;
  answer.repaired = ToString(result->repaired);
  return answer;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

Answer ViaCli(const std::string& text, const std::string& solver,
              Metric metric) {
  const std::string in_path = ::testing::TempDir() + "/parity_in.txt";
  const std::string err_path = ::testing::TempDir() + "/parity_err.txt";
  {
    std::ofstream in(in_path, std::ios::binary);
    in << text;
  }
  const std::string command = std::string(DYCKFIX_CLI_PATH) +
                              " --format=parens --metric=" +
                              MetricName(metric) + " --algorithm=" + solver +
                              " < " + in_path + " 2> " + err_path;
  std::string out;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  char buffer[4096];
  size_t read = 0;
  while ((read = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.append(buffer, read);
  }
  const int status = pclose(pipe);
  const int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  const std::string err = ReadFile(err_path);
  std::remove(in_path.c_str());
  std::remove(err_path.c_str());

  Answer answer;
  if (exit_code == 2) {
    answer.error = err;
    return answer;
  }
  EXPECT_TRUE(exit_code == 0 || exit_code == 1) << exit_code << ": " << err;
  answer.ok = true;
  answer.repaired = out;
  // Exit 1 reports "dyckfix: repaired with N edit(s)..." on stderr; a
  // balanced input (exit 0) needed no edit.
  const size_t pos = err.find("repaired with ");
  answer.distance = pos == std::string::npos
                        ? 0
                        : std::atoll(err.c_str() + pos + 14);
  return answer;
}

Answer ViaCapi(const std::string& text, const std::string& solver,
               Metric metric, int* algorithm) {
  dyckfix_options opts;
  dyckfix_options_init(&opts);
  opts.metric = metric == Metric::kDeletionsOnly
                    ? DYCKFIX_METRIC_DELETIONS
                    : DYCKFIX_METRIC_SUBSTITUTIONS;
  opts.algorithm = solver.c_str();
  char* out = nullptr;
  long long distance = -1;
  const int code =
      dyckfix_repair_opts(text.c_str(), &opts, &out, &distance, nullptr);
  Answer answer;
  if (code != DYCKFIX_OK) {
    EXPECT_EQ(code, DYCKFIX_ERROR_INVALID_ARGUMENT) << dyckfix_last_error();
    answer.error = dyckfix_last_error();
    return answer;
  }
  answer.ok = true;
  answer.distance = distance;
  answer.repaired = out;
  dyckfix_string_free(out);
  dyckfix_telemetry telemetry;
  EXPECT_EQ(dyckfix_last_telemetry(&telemetry), DYCKFIX_OK);
  *algorithm = telemetry.algorithm;
  return answer;
}

// One repair frame through an in-process daemon; parses the response
// header's distance=/len= fields and payload, or its err msg=.
Answer ViaWire(const std::string& text, const std::string& solver,
               Metric metric) {
  server::ServerOptions options;
  options.workers = 1;
  server::Server server(options);
  std::mutex mu;
  std::string output;
  {
    std::unique_ptr<server::Session> session =
        server.OpenSession([&](std::string_view bytes) {
          std::lock_guard<std::mutex> lock(mu);
          output.append(bytes.data(), bytes.size());
        });
    session->Feed("dyckfix/1 1 repair len=" + std::to_string(text.size()) +
                  " metric=" + MetricName(metric) + " solver=" + solver +
                  "\n" + text + "\n");
    server.Drain();
  }
  Answer answer;
  const size_t eol = output.find('\n');
  if (eol == std::string::npos) {
    ADD_FAILURE() << "no response: " << output;
    return answer;
  }
  const std::string header = output.substr(0, eol);
  if (header.find(" err ") != std::string::npos) {
    const size_t msg = header.find("msg=");
    EXPECT_NE(header.find("code=InvalidArgument"), std::string::npos)
        << header;
    if (msg != std::string::npos) answer.error = header.substr(msg + 4);
    return answer;
  }
  std::map<std::string, std::string> fields;
  std::istringstream tokens(header);
  std::string token;
  while (tokens >> token) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      fields[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  answer.ok = true;
  answer.distance = std::atoll(fields["distance"].c_str());
  answer.repaired = output.substr(
      eol + 1, static_cast<size_t>(std::atoll(fields["len"].c_str())));
  return answer;
}

// dyckfix_telemetry.algorithm per registry name. The values are ABI and
// must never change. "auto" and "" go through the planner, which picks
// fpt-deletion on the parity input.
const std::map<std::string, int> kCapiAlgorithm = {
    {"fpt", 1},    {"fpt-deletion", 1}, {"fpt-substitution", 1},
    {"cubic", 2},  {"branching", 3},    {"greedy", 5},
    {"banded", 4}, {"approx", 6},       {"approx-greedy", 6},
    {"auto", 1},   {"", 1},
};

TEST(FrontEndParityTest, EveryFrontEndAcceptsTheSameSolverNames) {
  // Single-peak after reduction (so "banded" applies), and its greedy
  // bound is within 3x of the counting bound (so "approx-greedy" applies).
  const std::string text = "(([)";

  std::vector<std::pair<std::string, Metric>> rows;
  for (const Solver* solver : SolverRegistry::Global().solvers()) {
    const Metric metric = solver->caps().deletions
                              ? Metric::kDeletionsOnly
                              : Metric::kDeletionsAndSubstitutions;
    rows.emplace_back(solver->name(), metric);
  }
  rows.emplace_back("auto", Metric::kDeletionsOnly);
  rows.emplace_back("", Metric::kDeletionsOnly);
  rows.emplace_back("quantum", Metric::kDeletionsOnly);

  for (const auto& [name, metric] : rows) {
    SCOPED_TRACE("solver '" + name + "' metric " + MetricName(metric));
    const Answer expected = ViaOptions(text, name, metric);
    int algorithm = -1;
    const Answer answers[] = {ViaCli(text, name, metric),
                              ViaCapi(text, name, metric, &algorithm),
                              ViaWire(text, name, metric)};
    const char* front_ends[] = {"cli", "capi", "wire"};
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE(front_ends[i]);
      const Answer& got = answers[i];
      ASSERT_EQ(got.ok, expected.ok) << got.error;
      if (!expected.ok) {
        EXPECT_NE(got.error.find(expected.error), std::string::npos)
            << "want '" << expected.error << "' in '" << got.error << "'";
        continue;
      }
      EXPECT_EQ(got.distance, expected.distance);
      EXPECT_EQ(got.repaired, expected.repaired);
    }
    if (!expected.ok) {
      EXPECT_EQ(expected.error, "unknown solver '" + name + "'");
      continue;
    }
    const auto pinned = kCapiAlgorithm.find(name);
    ASSERT_NE(pinned, kCapiAlgorithm.end())
        << "no dyckfix_algorithm pinned for this registry name";
    EXPECT_EQ(algorithm, pinned->second);
  }

  // The balanced fast path runs no solver: DYCKFIX_ALGORITHM_AUTO (0).
  int algorithm = -1;
  const Answer balanced =
      ViaCapi("()", "auto", Metric::kDeletionsOnly, &algorithm);
  ASSERT_TRUE(balanced.ok);
  EXPECT_EQ(balanced.distance, 0);
  EXPECT_EQ(algorithm, 0);
}

}  // namespace
}  // namespace dyck
