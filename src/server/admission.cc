#include "src/server/admission.h"

#include <algorithm>

namespace dyck {
namespace server {

const char* PressureTierName(PressureTier tier) {
  switch (tier) {
    case PressureTier::kExact:
      return "exact";
    case PressureTier::kApproximate:
      return "approx";
    case PressureTier::kGreedy:
      return "greedy";
    case PressureTier::kShed:
      return "shed";
  }
  return "unknown";
}

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : max_queue_depth_(std::max<int64_t>(1, config.max_queue_depth)),
      workers_(std::max<int64_t>(1, config.workers)) {
  exact_limit_ = config.exact_depth_limit > 0 ? config.exact_depth_limit
                                              : max_queue_depth_ / 2;
  approx_limit_ = config.approx_depth_limit > 0
                      ? config.approx_depth_limit
                      : max_queue_depth_ * 3 / 4;
  // Clamp into ladder order: exact <= approx < max.
  approx_limit_ = std::min(approx_limit_, max_queue_depth_ - 1);
  exact_limit_ = std::min(exact_limit_, approx_limit_);
}

AdmissionController::Decision AdmissionController::Decide(
    int64_t queue_depth) const {
  Decision decision;
  decision.queue_depth = queue_depth;
  if (queue_depth >= max_queue_depth_) {
    decision.tier = PressureTier::kShed;
    const int64_t service_us =
        ewma_service_us_.load(std::memory_order_relaxed);
    const int64_t drain_us = service_us * queue_depth / workers_;
    decision.retry_after_ms = std::max<int64_t>(1, drain_us / 1000);
  } else if (queue_depth > approx_limit_) {
    decision.tier = PressureTier::kGreedy;
  } else if (queue_depth > exact_limit_) {
    decision.tier = PressureTier::kApproximate;
  } else {
    decision.tier = PressureTier::kExact;
  }
  return decision;
}

void AdmissionController::RecordLatency(double seconds) {
  const int64_t sample_us = static_cast<int64_t>(seconds * 1e6);
  const int64_t seen = ewma_service_us_.load(std::memory_order_relaxed);
  const int64_t next =
      seen == 0 ? sample_us : (seen * 4 + sample_us) / 5;  // alpha = 0.2
  ewma_service_us_.store(next, std::memory_order_relaxed);
}

void AdmissionController::ApplyTier(PressureTier tier, Options* options) {
  switch (tier) {
    case PressureTier::kExact:
    case PressureTier::kShed:
      return;
    case PressureTier::kApproximate:
      // Let the planner admit the certified approximate solvers, and turn
      // any budget trip into a certified (not failed) answer.
      options->max_approximation_factor =
          std::max(options->max_approximation_factor, 3.0);
      if (options->on_budget_exceeded == DegradePolicy::kFail) {
        options->on_budget_exceeded = DegradePolicy::kApproximate;
      }
      return;
    case PressureTier::kGreedy:
      // Linear-time floor: uncertified, but bounded work per request.
      options->solver = "greedy";
      options->max_approximation_factor =
          std::max(options->max_approximation_factor, 3.0);
      if (options->on_budget_exceeded == DegradePolicy::kFail) {
        options->on_budget_exceeded = DegradePolicy::kGreedy;
      }
      return;
  }
}

}  // namespace server
}  // namespace dyck
