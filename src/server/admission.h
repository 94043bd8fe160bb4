// Admission control and the pressure-driven degrade ladder for the
// serving daemon.
//
// The daemon's one shared resource is the worker pool's FIFO queue
// (runtime::ThreadPool). Left unbounded, a burst turns into unbounded
// queueing delay: every request is eventually served, each slower than
// the last, until clients have long stopped waiting. The controller
// inverts that failure mode — latency is protected, accuracy and then
// admission give way:
//
//   queue depth in [0, exact_limit]      -> kExact   (requested accuracy)
//   (exact_limit, approx_limit]          -> kApproximate (certified
//                                           factor <= max(requested, 3))
//   (approx_limit, max_queue_depth)      -> kGreedy  (linear-time upper
//                                           bound, uncertified)
//   >= max_queue_depth                   -> kShed    (typed OVERLOADED +
//                                           retry-after hint)
//
// The tiers reuse the repair stack's existing accuracy machinery
// (Options::max_approximation_factor admits the certified src/approx
// solvers; Options::solver = "greedy" is the linear-time floor), so a
// degraded response is a *normal* response — balanced output, telemetry,
// and a certified_factor a client can inspect — not a different code
// path.
//
// Thresholds default to 1/2 and 3/4 of max_queue_depth. The depth reading
// is a point-in-time snapshot (ThreadPool::QueueDepth); a one-request
// race only shifts a tier boundary by one, which the ladder's shape makes
// harmless.

#ifndef DYCKFIX_SRC_SERVER_ADMISSION_H_
#define DYCKFIX_SRC_SERVER_ADMISSION_H_

#include <atomic>
#include <cstdint>

#include "src/core/dyck.h"

namespace dyck {
namespace server {

/// The degrade ladder's rungs, in increasing pressure order.
enum class PressureTier : int {
  kExact = 0,
  kApproximate = 1,
  kGreedy = 2,
  kShed = 3,
};

/// Wire name of a tier ("exact", "approx", "greedy", "shed") — reported
/// in every ok response's pressure= field.
const char* PressureTierName(PressureTier tier);

struct AdmissionConfig {
  /// Queue depth at which requests are shed (>= 1; 0 is clamped to 1).
  int64_t max_queue_depth = 64;
  /// Upper depth bounds of the exact / approximate tiers. <= 0 selects
  /// the defaults max_queue_depth / 2 and 3 * max_queue_depth / 4; values
  /// are clamped into sane order (exact <= approx < max).
  int64_t exact_depth_limit = 0;
  int64_t approx_depth_limit = 0;
  /// Pool width, for the retry-after hint (how fast the queue drains).
  int64_t workers = 1;
};

/// Maps queue depth to a tier and keeps the latency estimate behind the
/// retry-after hint. Decide() is lock-free and callable from any session
/// thread; RecordLatency() from any worker.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  struct Decision {
    PressureTier tier = PressureTier::kExact;
    /// The depth the decision was based on.
    int64_t queue_depth = 0;
    /// For kShed: suggested client backoff — the estimated time for the
    /// queue to drain below the shed boundary (EWMA service time x depth
    /// / workers, floored at 1ms).
    int64_t retry_after_ms = 0;
  };

  Decision Decide(int64_t queue_depth) const;

  /// Folds one served request's wall seconds into the service-time EWMA
  /// (alpha 0.2). Relaxed atomics — the estimate feeds a hint, so a lost
  /// update under contention is acceptable.
  void RecordLatency(double seconds);

  /// Rewrites `options` for the tier: kApproximate widens
  /// max_approximation_factor to at least 3.0 (and degrades budget trips
  /// to the certified ladder); kGreedy forces the linear-time "greedy"
  /// solver.
  /// kExact / kShed leave the options untouched.
  static void ApplyTier(PressureTier tier, Options* options);

  int64_t max_queue_depth() const { return max_queue_depth_; }

 private:
  int64_t max_queue_depth_;
  int64_t exact_limit_;
  int64_t approx_limit_;
  int64_t workers_;
  std::atomic<int64_t> ewma_service_us_{0};
};

}  // namespace server
}  // namespace dyck

#endif  // DYCKFIX_SRC_SERVER_ADMISSION_H_
