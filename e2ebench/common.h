// Shared scaffolding of the end-to-end benchmark harness: parameters,
// seeded randomness, quantiles, the metric report, the span recorder and
// the answer checks every workload applies.
//
// The harness measures the library from the outside only: it times its
// own calls into public functions, reads the counters the library already
// returns (RepairTelemetry, BatchStats, ServerStats, RepairCacheStats), and
// replays lower-layer public calls on the same inputs.

#ifndef DYCKFIX_E2EBENCH_COMMON_H_
#define DYCKFIX_E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/alphabet/paren.h"
#include "src/cache/repair_cache.h"
#include "src/core/dyck.h"
#include "src/profile/reduce.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Steady-clock nanoseconds; the time base of every span.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Workload parameters passed as --set key=value. Every key given must be
/// read by the workload (CheckAllUsed), so a typo fails loudly.
class Params {
 public:
  void Set(const std::string& key, const std::string& value);
  int64_t Int(const std::string& key) const;
  double Double(const std::string& key) const;
  /// Throws std::runtime_error naming the first unread key.
  void CheckAllUsed() const;

 private:
  const std::string& Get(const std::string& key) const;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
};

/// splitmix64 stream; the only randomness source, so a seed fixes inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi);
  /// Exponential with the given rate (mean 1 / rate).
  double Exponential(double rate);

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from (seed, stream, index).
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index);

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

/// Per-op answer check shared by all workloads: OK status is the caller's
/// business; this checks the repaired output is balanced and equals the
/// script applied to the input, ValidateScript passes, the script costs
/// the reported distance, and the distance equals the independent
/// branching solver's. Returns an empty string when the answer is right,
/// else what is wrong.
std::string CheckAnswer(const dyck::ParenSeq& input, int64_t distance,
                        const dyck::EditScript& script,
                        const dyck::ParenSeq& repaired,
                        bool allow_substitutions);

/// 64-bit FNV-1a over a sequence's (type, direction) pairs. Independent of
/// the library's own cache hash, so a repaired output can be recorded in
/// the timed phase and compared in the untimed check.
uint64_t Fingerprint(dyck::ParenSpan seq);

/// Folds per-input fingerprints into one value; the harness prints it as
/// "# inputs <hex>" so tests can see that a seed fixes the inputs.
uint64_t InputsFingerprint(const std::vector<uint64_t>& fingerprints);
uint64_t InputsFingerprint(const std::vector<dyck::ParenSeq>& seqs);

/// Runs fn(i) for i in [0, count) on one thread per hardware thread; used
/// only for untimed work (input generation, answer checks).
void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

/// ru_maxrss of this process in MiB: a lifetime high-water mark, so each
/// workload reads it at the end of its timed phase, before the final
/// answer checks, and keeps harness-only data small before then.
double PeakRssMib();

/// Returns freed heap memory to the OS, so every setup repeat starts from
/// the same allocator state and pays the same page faults.
void ReleaseFreedMemory();

/// Outcome of one run: metrics by name plus the op accounting of the
/// timed phase. Printed as human-readable lines, then the final JSON line.
class Report {
 public:
  /// `samples` < 0 omits the sample count from the human-readable line.
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = -1);
  /// A fact about the run printed beside the metrics (not in the JSON).
  void Note(const std::string& line);
  /// Notes the fingerprint of the run's generated inputs.
  void NoteInputs(uint64_t fingerprint);
  void CountOps(int64_t attempted, int64_t failed);
  /// Records a wrong answer; the run then exits non-zero.
  void Wrong(const std::string& what);

  bool correct() const { return wrong_ == 0; }

  /// Prints the report; the JSON object is the last line of stdout.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t wrong_ = 0;
  std::mutex mu_;  // Wrong() may be called from check threads
};

/// In-memory span recorder for the traced run. A root span covers one op
/// (keyed by op id); children are real spans the harness timed around a
/// call, or stage intervals laid out from the op's RepairTelemetry.
/// Replay spans time lower-layer calls re-run on the same inputs; they are
/// reported as their own metrics and never subtracted from real spans.
/// Thread-safe.
class Tracer {
 public:
  struct Span {
    uint64_t op = 0;
    /// A string literal: span names are fixed layer names.
    const char* name = "";
    /// NowNs() time stamps.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    bool root = false;
    bool replay = false;
  };

  int64_t Now() const { return NowNs(); }
  void Root(uint64_t op, const char* name, int64_t start_ns, int64_t end_ns);
  void Child(uint64_t op, const char* name, int64_t start_ns, int64_t end_ns);
  /// Lays the five pipeline stage durations of `telemetry` end to end from
  /// `start_ns` as children of `op` (the stages run sequentially).
  void Stages(uint64_t op, const dyck::RepairTelemetry& telemetry,
              int64_t start_ns);
  void Replay(uint64_t op, const char* name, double seconds);
  /// Records the five stage durations of a replayed op's telemetry as
  /// replay spans.
  void ReplayStages(uint64_t op, const dyck::RepairTelemetry& telemetry);

  /// Mean duration in microseconds of spans called `name` per op that has
  /// one; 0 when none.
  double MeanMicros(const std::string& name) const;
  /// Total seconds of spans called `name`.
  double TotalSeconds(const std::string& name) const;
  /// Share of root time that the spans named in `layers` do not explain,
  /// over the ops that have at least one of them. Real spans count by the
  /// union of their intervals within the root; replayed ones by their
  /// duration (they have no place on the op's timeline). Coverage is
  /// capped at the root's length.
  double UnattributedShare(const std::vector<std::string>& layers) const;
  /// Writes every span as one JSON line to `path`.
  void Write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// End-to-end figures of one untraced run, reported by ReportEndToEnd.
struct EndToEnd {
  double ops_per_s = 0;
  /// One latency per op; a failed op counts as infinitely late.
  std::vector<double> latency_ms;
  double max_rate_rps = 0;
  /// One entry per setup repeat; the median is reported.
  std::vector<double> setup_s;
  /// Ops of the timed phase, and those that failed or were refused.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// PeakRssMib() at the end of the timed phase.
  double peak_rss_mb = 0;
};

/// Emits every end-to-end metric of BENCHMARK.json, with sample counts,
/// and the error_rate line (success_rate is 1 - error_rate).
void ReportEndToEnd(const EndToEnd& figures, Report* report);

/// Per-layer totals over the RepairTelemetry of the ops a traced run
/// repaired (or replayed).
struct PipelineTotals {
  int64_t ops = 0;
  int64_t doubling_iterations = 0;
  int64_t reduced = 0;
  int64_t reduced_input = 0;
  int64_t subproblems = 0;
  int64_t arena_high_water = 0;
  std::map<std::string, int64_t> solver_ops;

  void Add(const dyck::RepairTelemetry& telemetry);
  /// Emits pipeline.*, suffix.*, fpt.* and arena.* from these totals and
  /// the tracer's stage and Solve-replay spans.
  void Report(const Tracer& tracer, e2e::Report* report) const;
};

/// Replays the Solve stage of one op on its Reduced: PairOracle
/// construction (suffix.index), Distance(d) at the served bound
/// (fpt.search), and Repair(d) - Distance(d) (fpt.reconstruct). Returns
/// false when the replayed distance differs from `distance`.
bool ReplaySolve(const dyck::Reduced& reduced, bool allow_substitutions,
                 int32_t bound, int64_t distance, uint64_t op,
                 Tracer* tracer);

/// The five pipeline stage span names, as Tracer::Stages records them.
const std::vector<std::string>& StageSpanNames();

/// Emits the cache.* metrics from the cache's counters before and after
/// the traced phase and the tracer's cache.lookup / cache.insert replays.
/// `hashed_tokens` is derived by the workload (tokens per whole-sequence
/// hash the current code path makes, times the lookups it counted); the
/// library does not count hashed tokens itself.
void ReportCache(const dyck::cache::RepairCacheStats& before,
                 const dyck::cache::RepairCacheStats& after,
                 int64_t hashed_tokens, const Tracer& tracer, Report* report);

/// Settings every workload receives.
struct RunConfig {
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Corrupts one recorded answer before the check (for the harness's own
  /// tests: the run must then fail).
  bool tamper = false;
  std::string trace_out;
  Params params;
};

using WorkloadFn = void (*)(const RunConfig&, Report*);
void RunFewerrBatch(const RunConfig& config, Report* report);
void RunZipfServe(const RunConfig& config, Report* report);
void RunSpliceEdit(const RunConfig& config, Report* report);

}  // namespace e2e

#endif  // DYCKFIX_E2EBENCH_COMMON_H_
