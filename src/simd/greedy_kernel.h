// Greedy fast-advance kernel: the conflict-free portion of GreedyScan
// (src/baseline/greedy.cc) as a span kernel, so the scan only pays the
// rule engine at actual conflicts.

#ifndef DYCKFIX_SRC_SIMD_GREEDY_KERNEL_H_
#define DYCKFIX_SRC_SIMD_GREEDY_KERNEL_H_

#include <cstdint>
#include <vector>

#include "src/baseline/greedy.h"
#include "src/simd/simd.h"

namespace dyck::simd {

/// Consumes symbols of the view starting at view index `i`, replicating
/// GreedyScan's fast path exactly: an open pushes {type, pos, -1}; a close
/// whose type matches the stack top pops it. Stops at the first
/// symbol the fast path cannot consume — a close with an empty stack or a
/// mismatching top — and returns its view index (n when the whole view was
/// consumed). The view is data[0..n) directly, or, when `reversed_flipped`
/// is set, data[n-1-i] with the direction inverted (the
/// ReversedFlippedView isometry), without materializing the reversal.
///
/// `stack` is the live GreedyScan stack: entries below the entry size are
/// preserved (including op_index of flipped openers), and on return
/// stack.size() is the new depth.
int64_t GreedyAdvance(const Paren* data, int64_t n, int64_t i,
                      bool reversed_flipped, std::vector<GreedyEntry>* stack);

/// Should a scan over data[0..n) route its fast path through GreedyAdvance?
/// False for short spans, the scalar backend, and run-heavy inputs (where
/// the branch predictor makes the plain loop faster). GreedyScan evaluates
/// this once per scan — not per conflict — because the probe samples the
/// whole span. Always true while ForceVectorPathForTest is set.
bool GreedyKernelProfitable(const Paren* data, int64_t n);

}  // namespace dyck::simd

#endif  // DYCKFIX_SRC_SIMD_GREEDY_KERNEL_H_
