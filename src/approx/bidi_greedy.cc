#include "src/approx/bidi_greedy.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace dyck {

namespace {

// Maps a script against mirror(seq) back to seq: index i of the mirror is
// index n-1-i of the original, and every symbol flips direction, so a
// substitution's replacement flips too.
void MapMirrorScript(int64_t n, const EditScript& mirrored,
                     EditScript* out) {
  out->ops.clear();
  out->ops.reserve(mirrored.ops.size());
  for (const EditOp& op : mirrored.ops) {
    EditOp mapped = op;
    mapped.pos = n - 1 - op.pos;
    if (op.kind == EditOpKind::kSubstitute) {
      mapped.replacement =
          Paren{op.replacement.type, !op.replacement.is_open};
    }
    out->ops.push_back(mapped);
  }
  out->Normalize();
}

}  // namespace

GreedyResult GreedyRepairBestDirection(
    ParenSpan seq, bool allow_substitutions,
    std::vector<GreedyEntry>* stack_scratch) {
  GreedyResult forward =
      GreedyRepair(seq, allow_substitutions, stack_scratch);
  const int64_t best = EstimateDistanceUpperBoundBidirectional(
      seq, allow_substitutions, stack_scratch);
  if (best >= forward.cost) return forward;

  // The reversed scan is strictly cheaper: repair the mirror and map back.
  ParenSeq mirrored;
  mirrored.reserve(seq.size());
  for (auto it = seq.end(); it != seq.begin();) {
    --it;
    mirrored.push_back(Paren{it->type, !it->is_open});
  }
  GreedyResult reversed =
      GreedyRepair(mirrored, allow_substitutions, stack_scratch);
  DYCK_DCHECK(reversed.cost == best);

  GreedyResult out;
  out.cost = reversed.cost;
  MapMirrorScript(static_cast<int64_t>(seq.size()), reversed.script,
                  &out.script);
  return out;
}

}  // namespace dyck
