// e2e_harness: runs one workload of the end-to-end benchmark and prints
// its metrics, then one JSON result line. Normally started by run.py,
// which builds it and passes the workload's parameters from
// workloads.json:
//
//   e2e_harness --workload fewerr-batch --seed 1 --seconds 10 --trace 0
//               --set jobs=2 --set ... [--trace-out spans.jsonl] [--tamper]
//
// Exit codes: 0 all answers right; 1 a wrong answer; 2 usage or run error
// (no result line is printed then).

#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "src/simd/simd.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "e2e_harness: %s\nusage: e2e_harness --workload NAME --seed N "
               "--seconds S --trace 0|1 [--set KEY=VALUE]... "
               "[--trace-out PATH] [--tamper]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, e2e::WorkloadFn> workloads = {
      {"fewerr-batch", e2e::RunFewerrBatch},
      {"zipf-serve", e2e::RunZipfServe},
      {"splice-edit", e2e::RunSpliceEdit},
  };
  e2e::RunConfig config;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--tamper") {
        config.tamper = true;
        continue;
      }
      if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = config.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        config.trace = value == "1";
        have_trace = true;
      } else if (arg == "--trace-out") {
        config.trace_out = value;
      } else if (arg == "--set") {
        const size_t eq = value.find('=');
        if (eq == std::string::npos) return Usage("--set takes KEY=VALUE");
        config.params.Set(value.substr(0, eq), value.substr(eq + 1));
      } else {
        return Usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return Usage("malformed number");
  }
  const auto it = workloads.find(workload);
  if (it == workloads.end()) return Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (> 0) and --trace are required");
  }

  e2e::Report report;
  // Results from hosts with another core count or vector backend are not
  // comparable; run.py checks these against the recorded reference host.
  report.Note("host nproc=" +
              std::to_string(std::thread::hardware_concurrency()) +
              " simd=" +
              dyck::simd::BackendName(dyck::simd::ActiveBackend()));
  try {
    it->second(config, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_harness: %s: %s\n", workload.c_str(), e.what());
    return 2;
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
