#include "src/pipeline/telemetry.h"

#include <sstream>

namespace dyck {

namespace {

// Seconds rendered as microseconds with one decimal; stage timings live in
// the ns-to-ms range, so a fixed unit keeps rows comparable.
std::string Micros(double seconds) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << seconds * 1e6 << "us";
  return os.str();
}

void AppendStageSeconds(const double (&stage_seconds)[kNumPipelineStages],
                        double total, std::ostringstream* os) {
  for (int i = 0; i < kNumPipelineStages; ++i) {
    *os << " " << PipelineStageName(static_cast<PipelineStage>(i)) << "="
        << Micros(stage_seconds[i]);
  }
  *os << " total=" << Micros(total);
}

}  // namespace

const char* PipelineStageName(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kNormalize:
      return "normalize";
    case PipelineStage::kProfileReduce:
      return "reduce";
    case PipelineStage::kSelect:
      return "select";
    case PipelineStage::kSolve:
      return "solve";
    case PipelineStage::kMaterialize:
      return "materialize";
  }
  return "unknown";
}

double RepairTelemetry::TotalSeconds() const {
  double total = 0;
  for (const double s : stage_seconds) total += s;
  return total;
}

std::string RepairTelemetry::ToString() const {
  std::ostringstream os;
  os << "solver="
     << (balanced_fast_path   ? "none(balanced)"
         : solver_name.empty() ? "none"
                               : solver_name.c_str());
  if (d_upper_bound >= 0) {
    os << " d_hint=" << d_upper_bound << " planned=" << Micros(planned_cost);
  }
  os << " iterations=" << doubling_iterations << " bound=" << solve_bound
     << " reduced=";
  if (reduced_length >= 0) {
    os << reduced_length << "/" << input_length;
  } else {
    os << "skipped";
  }
  os << " subproblems=" << subproblems << " copies=" << seq_copies
     << " allocs=" << seq_allocations;
  if (degraded) {
    os << " degraded=1 trip=" << budget_checkpoint
       << " lower_bound=" << exact_lower_bound;
  } else if (!budget_checkpoint.empty()) {
    os << " trip=" << budget_checkpoint;
  }
  if (certified_factor != 1.0) {
    if (certified_factor > 0.0) {
      std::ostringstream factor;
      factor.setf(std::ios::fixed);
      factor.precision(2);
      factor << certified_factor;
      os << " factor=" << factor.str();
      if (!degraded) os << " lower_bound=" << exact_lower_bound;
    } else {
      os << " factor=uncertified";
    }
  }
  if (budget_steps > 0) os << " steps=" << budget_steps;
  if (arena_resets > 0) {
    os << " arena=" << arena_high_water_bytes << "B resets=" << arena_resets
       << " heap_allocs=" << heap_allocs;
  }
  if (incremental || chunks_reused > 0 || chunks_recomputed > 0) {
    os << " incremental=" << (incremental ? 1 : 0)
       << " chunks=" << chunks_reused << "r/" << chunks_recomputed << "c";
  }
  if (cache_hit || cache_miss) {
    os << " cache=" << (cache_hit ? "hit" : "miss");
  }
  if (interned_chunks > 0) os << " interned=" << interned_chunks;
  if (!simd_backend.empty()) os << " backend=" << simd_backend;
  AppendStageSeconds(stage_seconds, TotalSeconds(), &os);
  return os.str();
}

void TelemetryAggregate::Add(const RepairTelemetry& telemetry) {
  ++documents;
  for (int i = 0; i < kNumPipelineStages; ++i) {
    stage_seconds[i] += telemetry.stage_seconds[i];
  }
  doubling_iterations += telemetry.doubling_iterations;
  seq_copies += telemetry.seq_copies;
  seq_allocations += telemetry.seq_allocations;
  subproblems += telemetry.subproblems;
  if (telemetry.reduced_length >= 0) {
    reduced_length_total += telemetry.reduced_length;
    reduced_input_total += telemetry.input_length;
  }
  if (!telemetry.solver_name.empty()) {
    ++solver_documents[telemetry.solver_name];
  }
  if (telemetry.degraded) ++degraded_documents;
  if (telemetry.certified_factor > 1.0) {
    ++approx_documents;
    if (telemetry.certified_factor > max_certified_factor) {
      max_certified_factor = telemetry.certified_factor;
    }
  } else if (telemetry.certified_factor == 0.0) {
    ++uncertified_documents;
  }
  budget_steps += telemetry.budget_steps;
  if (telemetry.arena_high_water_bytes > arena_high_water_bytes) {
    arena_high_water_bytes = telemetry.arena_high_water_bytes;
  }
  if (telemetry.arena_resets > arena_resets) {
    arena_resets = telemetry.arena_resets;
  }
  heap_allocs += telemetry.heap_allocs;
  if (telemetry.incremental) ++incremental_documents;
  chunks_reused += telemetry.chunks_reused;
  chunks_recomputed += telemetry.chunks_recomputed;
  if (telemetry.cache_hit) ++cache_hits;
  if (telemetry.cache_miss) ++cache_misses;
  interned_chunks += telemetry.interned_chunks;
}

void TelemetryAggregate::Merge(const TelemetryAggregate& other) {
  documents += other.documents;
  for (int i = 0; i < kNumPipelineStages; ++i) {
    stage_seconds[i] += other.stage_seconds[i];
  }
  doubling_iterations += other.doubling_iterations;
  seq_copies += other.seq_copies;
  seq_allocations += other.seq_allocations;
  subproblems += other.subproblems;
  reduced_length_total += other.reduced_length_total;
  reduced_input_total += other.reduced_input_total;
  for (const auto& [name, count] : other.solver_documents) {
    solver_documents[name] += count;
  }
  degraded_documents += other.degraded_documents;
  approx_documents += other.approx_documents;
  uncertified_documents += other.uncertified_documents;
  if (other.max_certified_factor > max_certified_factor) {
    max_certified_factor = other.max_certified_factor;
  }
  budget_steps += other.budget_steps;
  if (other.arena_high_water_bytes > arena_high_water_bytes) {
    arena_high_water_bytes = other.arena_high_water_bytes;
  }
  if (other.arena_resets > arena_resets) arena_resets = other.arena_resets;
  heap_allocs += other.heap_allocs;
  incremental_documents += other.incremental_documents;
  chunks_reused += other.chunks_reused;
  chunks_recomputed += other.chunks_recomputed;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  interned_chunks += other.interned_chunks;
}

double TelemetryAggregate::TotalSeconds() const {
  double total = 0;
  for (const double s : stage_seconds) total += s;
  return total;
}

std::string TelemetryAggregate::ToString() const {
  std::ostringstream os;
  int64_t solved = 0;
  for (const auto& [name, count] : solver_documents) solved += count;
  os << "docs=" << documents << " trivial=" << documents - solved;
  if (!solver_documents.empty()) {
    os << " solvers=";
    bool first = true;
    for (const auto& [name, count] : solver_documents) {
      if (!first) os << ",";
      first = false;
      os << name << ":" << count;
    }
  }
  os << " iterations=" << doubling_iterations << " reduced="
     << reduced_length_total << "/" << reduced_input_total
     << " subproblems=" << subproblems << " copies=" << seq_copies
     << " allocs=" << seq_allocations << " degraded=" << degraded_documents;
  if (approx_documents > 0 || uncertified_documents > 0) {
    std::ostringstream factor;
    factor.setf(std::ios::fixed);
    factor.precision(2);
    factor << max_certified_factor;
    os << " approx=" << approx_documents
       << " uncertified=" << uncertified_documents
       << " max_factor=" << factor.str();
  }
  if (budget_steps > 0) os << " steps=" << budget_steps;
  if (arena_resets > 0) {
    os << " arena=" << arena_high_water_bytes << "B resets=" << arena_resets
       << " heap_allocs=" << heap_allocs;
  }
  if (incremental_documents > 0 || chunks_reused > 0 ||
      chunks_recomputed > 0) {
    os << " incremental=" << incremental_documents
       << " chunks=" << chunks_reused << "r/" << chunks_recomputed << "c";
  }
  if (cache_hits > 0 || cache_misses > 0) {
    os << " cache hit=" << cache_hits << " miss=" << cache_misses;
  }
  if (interned_chunks > 0) os << " interned=" << interned_chunks;
  AppendStageSeconds(stage_seconds, TotalSeconds(), &os);
  return os.str();
}

std::string ServerStats::ToString() const {
  std::ostringstream os;
  os << "received=" << requests_received << " admitted=" << admitted
     << " ok=" << served_ok << " shed=" << shed_overloaded
     << " protocol_errors=" << protocol_errors << " faulted=" << faulted
     << " cancelled=" << cancelled << " degraded=" << degraded_pressure
     << " queue_hw=" << queue_depth_high_water << " in=" << bytes_in
     << "B out=" << bytes_out << "B";
  if (cache_active) {
    os << " cache hit=" << cache_hits << " miss=" << cache_misses
       << " evict=" << cache_evictions;
  }
  return os.str();
}

void ServerCounters::NoteQueueDepth(int64_t depth) {
  int64_t seen = queue_depth_high_water.load(std::memory_order_relaxed);
  while (depth > seen &&
         !queue_depth_high_water.compare_exchange_weak(
             seen, depth, std::memory_order_relaxed)) {
  }
}

ServerStats ServerCounters::Snapshot() const {
  ServerStats stats;
  stats.requests_received = requests_received.load(std::memory_order_relaxed);
  stats.admitted = admitted.load(std::memory_order_relaxed);
  stats.served_ok = served_ok.load(std::memory_order_relaxed);
  stats.shed_overloaded = shed_overloaded.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
  stats.faulted = faulted.load(std::memory_order_relaxed);
  stats.cancelled = cancelled.load(std::memory_order_relaxed);
  stats.degraded_pressure =
      degraded_pressure.load(std::memory_order_relaxed);
  stats.queue_depth_high_water =
      queue_depth_high_water.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace dyck
