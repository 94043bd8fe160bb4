// Reusable per-worker repair state: arena scratch plus the per-thread
// status the C API used to keep in scattered thread_local globals.
//
// A RepairContext owns every piece of working memory a single-document
// repair needs — the monotonic arena backing the FPT solvers' memo tables
// and split lists, typed scratch vectors for the height profile / balance
// stack / reduced sequence / valley structure, the wave-frontier pool for
// the LMS98 oracle, and the edit-script reconstruction stack. It is
// created once (typically one per worker thread) and reused across
// documents: BeginDocument() rewinds the arena in O(1) and keeps every
// vector's capacity, so after warmup a steady workload performs zero heap
// allocations of scratch per document.
//
// The context is also where cross-cutting per-thread state lives. The C
// API's last-error string and last-telemetry record are members here
// (capi.cc reads RepairContext::CurrentThread() instead of three
// thread_local globals), and the budget machinery shares the same single
// thread_local slot (RepairThreadState in util/budget.h).
//
// Threading: a RepairContext is NOT thread-safe; use one per thread.
// CurrentThread() hands each thread its own lazily-created default, which
// is how the batch engine gets one long-lived context per pool worker
// without any explicit plumbing.

#ifndef DYCKFIX_SRC_CORE_CONTEXT_H_
#define DYCKFIX_SRC_CORE_CONTEXT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/alphabet/paren.h"
#include "src/baseline/greedy.h"
#include "src/pipeline/telemetry.h"
#include "src/profile/reduce.h"
#include "src/profile/valleys.h"
#include "src/util/arena.h"
#include "src/util/budget.h"

namespace dyck {

class RepairContext {
 public:
  RepairContext() = default;
  ~RepairContext() = default;

  RepairContext(const RepairContext&) = delete;
  RepairContext& operator=(const RepairContext&) = delete;

  /// The calling thread's ambient context: the one installed by the
  /// innermost RepairContextScope if any, else a lazily-created
  /// thread-local default that lives for the thread's lifetime.
  static RepairContext& CurrentThread();

  /// Starts a new document: rewinds the arena in O(1) and invalidates all
  /// arena-backed scratch of the previous document. Every typed scratch
  /// vector keeps its capacity. Callers must not hold solvers or arena
  /// pointers from the previous document across this call.
  void BeginDocument();

  /// Documents started on this context (== arena resets).
  int64_t documents() const { return documents_; }

  Arena& arena() { return arena_; }
  const Arena& arena() const { return arena_; }

  // --- Typed scratch, one slot per pipeline consumer. Each accessor hands
  // out the same object every document; consumers clear/refill it.

  /// Balance-scan parse stack (IsBalanced overload).
  std::vector<ParenType>& type_stack() { return type_stack_; }
  /// Height profile h (Definition 15) of the reduced sequence.
  std::vector<int64_t>& heights() { return heights_; }
  /// Property-19 reduction output (Fact 18).
  Reduced& reduced() { return reduced_; }
  /// Valley/run decomposition of the reduced sequence.
  BlockStructure& blocks() { return blocks_; }
  /// Recycled wave-frontier buffers for the PairOracle's O(d^3) queries.
  ScratchPool<int64_t>& wave_pool() { return wave_pool_; }
  /// Subproblem stack for iterative edit-script reconstruction.
  std::vector<std::pair<int64_t, int64_t>>& work_stack() {
    return work_stack_;
  }
  /// Flat DP cell storage for the cubic baseline's interval table.
  std::vector<int32_t>& cubic_cells() { return cubic_cells_; }
  /// Parse stack of the greedy scan — the planner's d-hint estimate and
  /// the budget fallback share it.
  std::vector<GreedyEntry>& greedy_stack() { return greedy_stack_; }
  /// Type sequences handed to BandedAlign by the banded solver (opening
  /// run and reversed closing run of a single-peak reduced input).
  std::vector<int32_t>& band_types_a() { return band_types_a_; }
  std::vector<int32_t>& band_types_b() { return band_types_b_; }

  // --- Per-context state the C API used to keep in thread_local globals.

  /// Message of the most recent failure observed through the C API on
  /// this context; cleared (empty) by successful calls.
  std::string& last_error() { return last_error_; }
  const std::string& last_error() const { return last_error_; }

  bool has_last_telemetry() const { return has_last_telemetry_; }
  const RepairTelemetry& last_telemetry() const { return last_telemetry_; }
  void set_last_telemetry(const RepairTelemetry& telemetry) {
    last_telemetry_ = telemetry;
    has_last_telemetry_ = true;
  }
  void clear_last_telemetry() { has_last_telemetry_ = false; }

 private:
  Arena arena_;
  int64_t documents_ = 0;

  std::vector<ParenType> type_stack_;
  std::vector<int64_t> heights_;
  Reduced reduced_;
  BlockStructure blocks_;
  ScratchPool<int64_t> wave_pool_;
  std::vector<std::pair<int64_t, int64_t>> work_stack_;
  std::vector<int32_t> cubic_cells_;
  std::vector<GreedyEntry> greedy_stack_;
  std::vector<int32_t> band_types_a_;
  std::vector<int32_t> band_types_b_;

  std::string last_error_;
  RepairTelemetry last_telemetry_;
  bool has_last_telemetry_ = false;
};

/// Installs `context` as the calling thread's ambient context for the
/// scope's lifetime (RepairContext::CurrentThread returns it). Nesting
/// restores the previous context on destruction. The C API's
/// dyckfix_context_repair uses this so explicit-context calls route their
/// scratch, telemetry, and errors to the caller's context.
class RepairContextScope {
 public:
  explicit RepairContextScope(RepairContext* context)
      : previous_(CurrentRepairThreadState().context) {
    CurrentRepairThreadState().context = context;
  }
  ~RepairContextScope() { CurrentRepairThreadState().context = previous_; }

  RepairContextScope(const RepairContextScope&) = delete;
  RepairContextScope& operator=(const RepairContextScope&) = delete;

 private:
  RepairContext* previous_;
};

}  // namespace dyck

#endif  // DYCKFIX_SRC_CORE_CONTEXT_H_
