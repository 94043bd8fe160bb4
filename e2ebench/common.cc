#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "src/baseline/branching.h"
#include "src/core/edit_script.h"
#include "src/fpt/deletion.h"
#include "src/fpt/oracle.h"
#include "src/fpt/substitution.h"

namespace e2e {

void Params::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
  used_[key] = false;
}

const std::string& Params::Get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::runtime_error("missing workload parameter '" + key + "'");
  }
  used_[key] = true;
  return it->second;
}

int64_t Params::Int(const std::string& key) const {
  const std::string& text = Get(key);
  size_t end = 0;
  const long long value = std::stoll(text, &end);
  if (end != text.size()) {
    throw std::runtime_error("parameter '" + key + "' is not an integer");
  }
  return value;
}

double Params::Double(const std::string& key) const {
  const std::string& text = Get(key);
  size_t end = 0;
  const double value = std::stod(text, &end);
  if (end != text.size()) {
    throw std::runtime_error("parameter '" + key + "' is not a number");
  }
  return value;
}

void Params::CheckAllUsed() const {
  for (const auto& [key, used] : used_) {
    if (!used) {
      throw std::runtime_error("unknown workload parameter '" + key + "'");
    }
  }
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return (Next() >> 11) * 0x1.0p-53; }

int64_t Rng::Between(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

double Rng::Exponential(double rate) {
  return -std::log(1.0 - Uniform()) / rate;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  Rng rng(seed * 0x100000001B3ull ^ (stream << 40) ^ index);
  rng.Next();
  return rng.Next();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

std::string CheckAnswer(const dyck::ParenSeq& input, int64_t distance,
                        const dyck::EditScript& script,
                        const dyck::ParenSeq& repaired,
                        bool allow_substitutions) {
  if (!dyck::IsBalanced(repaired)) return "repaired output is unbalanced";
  if (script.Cost() != distance) {
    return "script cost " + std::to_string(script.Cost()) +
           " != distance " + std::to_string(distance);
  }
  const dyck::Status valid =
      dyck::ValidateScript(input, script, distance, allow_substitutions);
  if (!valid.ok()) return "ValidateScript: " + valid.ToString();
  if (dyck::ApplyScript(input, script) != repaired) {
    return "repaired output differs from the script applied to the input";
  }
  // Bounded at the reported distance: a too-small answer makes the search
  // fail, a too-large one makes it find less.
  const std::optional<int64_t> oracle =
      dyck::BranchingDistance(input, allow_substitutions, distance);
  if (!oracle.has_value() || *oracle != distance) {
    return "distance " + std::to_string(distance) +
           " != branching oracle " +
           (oracle.has_value() ? std::to_string(*oracle) : "> reported");
  }
  return "";
}

uint64_t Fingerprint(dyck::ParenSpan seq) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (const dyck::Paren& p : seq) {
    h = (h ^ static_cast<uint64_t>(static_cast<uint32_t>(p.type))) *
        0x100000001B3ull;
    h = (h ^ (p.is_open ? 1u : 2u)) * 0x100000001B3ull;
  }
  return h ^ seq.size();
}

uint64_t InputsFingerprint(const std::vector<uint64_t>& fingerprints) {
  uint64_t h = 0;
  for (const uint64_t f : fingerprints) h = (h ^ f) * 0x9E3779B97F4A7C15ull;
  return h;
}

uint64_t InputsFingerprint(const std::vector<dyck::ParenSeq>& seqs) {
  std::vector<uint64_t> fingerprints;
  for (const dyck::ParenSeq& seq : seqs) {
    fingerprints.push_back(Fingerprint(seq));
  }
  return InputsFingerprint(fingerprints);
}

void ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) fn(i);
  };
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& thread : pool) thread.join();
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ReleaseFreedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::NoteInputs(uint64_t fingerprint) {
  char text[32];
  std::snprintf(text, sizeof(text), "inputs %016llx",
                static_cast<unsigned long long>(fingerprint));
  Note(text);
}

void Report::CountOps(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Wrong(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wrong_ < 5) std::fprintf(stderr, "WRONG ANSWER: %s\n", what.c_str());
  ++wrong_;
}

void Report::Print() const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const Entry& m : metrics_) {
    if (m.samples >= 0) {
      std::printf("%-34s %16.6f %-8s n=%lld\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    } else {
      std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_ + wrong_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Tracer::Root(uint64_t op, const char* name, int64_t start_ns,
                  int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({op, name, start_ns, end_ns, true, false});
}

void Tracer::Child(uint64_t op, const char* name, int64_t start_ns,
                   int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({op, name, start_ns, end_ns, false, false});
}

namespace {

const char* const kStageSpans[dyck::kNumPipelineStages] = {
    "pipeline.normalize", "pipeline.reduce", "pipeline.select",
    "pipeline.solve", "pipeline.materialize"};

}  // namespace

const std::vector<std::string>& StageSpanNames() {
  static const std::vector<std::string> names(std::begin(kStageSpans),
                                              std::end(kStageSpans));
  return names;
}

void Tracer::Stages(uint64_t op, const dyck::RepairTelemetry& telemetry,
                    int64_t start_ns) {
  int64_t at = start_ns;
  for (int s = 0; s < dyck::kNumPipelineStages; ++s) {
    const int64_t ns =
        static_cast<int64_t>(telemetry.stage_seconds[s] * 1e9 + 0.5);
    Child(op, kStageSpans[s], at, at + ns);
    at += ns;
  }
}

void Tracer::ReplayStages(uint64_t op,
                          const dyck::RepairTelemetry& telemetry) {
  for (int s = 0; s < dyck::kNumPipelineStages; ++s) {
    Replay(op, kStageSpans[s], telemetry.stage_seconds[s]);
  }
}

void Tracer::Replay(uint64_t op, const char* name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      {op, name, 0, static_cast<int64_t>(seconds * 1e9 + 0.5), false, true});
}

double Tracer::MeanMicros(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, int64_t> per_op;
  for (const Span& s : spans_) {
    if (name == s.name) per_op[s.op] += s.end_ns - s.start_ns;
  }
  if (per_op.empty()) return 0;
  double total = 0;
  for (const auto& [op, ns] : per_op) total += static_cast<double>(ns);
  return total / static_cast<double>(per_op.size()) / 1e3;
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += static_cast<double>(s.end_ns - s.start_ns);
  }
  return total / 1e9;
}

double Tracer::UnattributedShare(const std::vector<std::string>& layers) const {
  std::lock_guard<std::mutex> lock(mu_);
  struct Op {
    int64_t begin = 0;
    int64_t end = -1;  // no root yet
    std::vector<std::pair<int64_t, int64_t>> real;
    int64_t replayed = 0;
    bool named = false;
  };
  std::map<uint64_t, Op> ops;
  for (const Span& s : spans_) {
    Op& op = ops[s.op];
    if (s.root) {
      op.begin = s.start_ns;
      op.end = s.end_ns;
      continue;
    }
    if (std::find(layers.begin(), layers.end(), s.name) == layers.end()) {
      continue;
    }
    op.named = true;
    if (s.replay) {
      op.replayed += s.end_ns - s.start_ns;
    } else {
      op.real.push_back({s.start_ns, s.end_ns});
    }
  }
  double root_total = 0;
  double unexplained = 0;
  for (auto& [id, op] : ops) {
    if (!op.named || op.end < op.begin) continue;
    const int64_t length = op.end - op.begin;
    // Union of the real spans clipped to the root interval.
    std::sort(op.real.begin(), op.real.end());
    int64_t covered = 0;
    int64_t reach = op.begin;
    for (auto [begin, end] : op.real) {
      begin = std::max(begin, reach);
      end = std::min(end, op.end);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    covered = std::min(length, covered + op.replayed);
    root_total += static_cast<double>(length);
    unexplained += static_cast<double>(length - covered);
  }
  return root_total > 0 ? unexplained / root_total : 0;
}

void Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"op\": " << s.op << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"root\": " << (s.root ? "true" : "false")
        << ", \"replay\": " << (s.replay ? "true" : "false") << "}\n";
  }
}

}  // namespace e2e

namespace e2e {

namespace {

double Share(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0;
}

}  // namespace

void ReportEndToEnd(const EndToEnd& figures, Report* report) {
  const int64_t n = static_cast<int64_t>(figures.latency_ms.size());
  report->CountOps(figures.attempted, figures.failed);
  report->Metric("ops_per_s", figures.ops_per_s, "1/s", figures.attempted);
  report->Metric("latency_p50_ms", Quantile(figures.latency_ms, 0.50), "ms",
                 n);
  report->Metric("latency_p99_ms", Quantile(figures.latency_ms, 0.99), "ms",
                 n);
  report->Metric("max_rate_rps", figures.max_rate_rps, "1/s");
  report->Metric("setup_s", Median(figures.setup_s), "s",
                 static_cast<int64_t>(figures.setup_s.size()));
  report->Metric("peak_rss_mb", figures.peak_rss_mb, "MiB");
  const double error_rate = Share(figures.failed, figures.attempted);
  report->Metric("success_rate", 1.0 - error_rate, "fraction",
                 figures.attempted);
  report->Note("error_rate " + std::to_string(error_rate) +
               " fraction n=" + std::to_string(figures.attempted));
}

void PipelineTotals::Add(const dyck::RepairTelemetry& t) {
  ++ops;
  doubling_iterations += t.doubling_iterations;
  if (t.reduced_length >= 0) {
    reduced += t.reduced_length;
    reduced_input += t.input_length;
  }
  subproblems += t.subproblems;
  arena_high_water = std::max(arena_high_water, t.arena_high_water_bytes);
  ++solver_ops[t.solver_name.empty() ? "none" : t.solver_name];
}

void PipelineTotals::Report(const Tracer& tracer, e2e::Report* report) const {
  const double count = ops > 0 ? static_cast<double>(ops) : 1.0;
  for (const char* stage :
       {"normalize", "reduce", "select", "solve", "materialize"}) {
    report->Metric(std::string("pipeline.") + stage + "_us",
                   tracer.TotalSeconds(std::string("pipeline.") + stage) /
                       count * 1e6,
                   "us", ops);
  }
  report->Metric("pipeline.doubling_iterations",
                 static_cast<double>(doubling_iterations) / count, "count",
                 ops);
  report->Metric("pipeline.reduced_share", Share(reduced, reduced_input),
                 "fraction");
  for (const auto& [solver, n] : solver_ops) {
    report->Metric("pipeline.solver_ops." + solver, static_cast<double>(n),
                   "count");
  }
  report->Metric("suffix.index_us", tracer.MeanMicros("suffix.index"), "us");
  report->Metric("fpt.search_us", tracer.MeanMicros("fpt.search"), "us");
  report->Metric("fpt.reconstruct_us", tracer.MeanMicros("fpt.reconstruct"),
                 "us");
  report->Metric("fpt.subproblems", static_cast<double>(subproblems),
                 "count");
  report->Metric("arena.high_water_mb",
                 static_cast<double>(arena_high_water) / (1 << 20), "MiB");
}

bool ReplaySolve(const dyck::Reduced& reduced, bool allow_substitutions,
                 int32_t bound, int64_t distance, uint64_t op,
                 Tracer* tracer) {
  Clock::time_point start = Clock::now();
  { const dyck::PairOracle oracle(reduced.seq); }
  tracer->Replay(op, "suffix.index", SecondsBetween(start, Clock::now()));
  // Separate solver instances, so Repair does not reuse Distance's memo.
  const auto time = [&](auto make_solver) {
    auto searcher = make_solver();
    Clock::time_point t = Clock::now();
    const std::optional<int64_t> searched = searcher.Distance(bound);
    const double search = SecondsBetween(t, Clock::now());
    auto reconstructor = make_solver();
    t = Clock::now();
    const auto repaired = reconstructor.Repair(bound);
    const double repair = SecondsBetween(t, Clock::now());
    if (searched != distance || !repaired.ok() ||
        repaired->distance != distance) {
      return false;
    }
    tracer->Replay(op, "fpt.search", search);
    tracer->Replay(op, "fpt.reconstruct", std::max(0.0, repair - search));
    return true;
  };
  if (allow_substitutions) {
    return time(
        [&] { return dyck::SubstitutionSolver(dyck::Reduced(reduced)); });
  }
  return time([&] { return dyck::DeletionSolver(dyck::Reduced(reduced)); });
}

void ReportCache(const dyck::cache::RepairCacheStats& before,
                 const dyck::cache::RepairCacheStats& after,
                 int64_t hashed_tokens, const Tracer& tracer, Report* report) {
  const int64_t hits = after.hits - before.hits;
  const int64_t misses = after.misses - before.misses;
  report->Metric("cache.hit_ratio", Share(hits, hits + misses), "fraction",
                 hits + misses);
  report->Metric("cache.hits", static_cast<double>(hits), "count");
  report->Metric("cache.misses", static_cast<double>(misses), "count");
  report->Metric("cache.inserts",
                 static_cast<double>(after.inserts - before.inserts), "count");
  report->Metric("cache.evictions",
                 static_cast<double>(after.evictions - before.evictions),
                 "count");
  report->Metric("cache.bypasses",
                 static_cast<double>(after.bypasses - before.bypasses),
                 "count");
  report->Metric("cache.hashed_tokens", static_cast<double>(hashed_tokens),
                 "count");
  report->Metric("cache.lookup_us", tracer.MeanMicros("cache.lookup"), "us");
  report->Metric("cache.insert_us", tracer.MeanMicros("cache.insert"), "us");
}

}  // namespace e2e
