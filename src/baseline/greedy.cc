#include "src/baseline/greedy.h"

#include <algorithm>
#include <vector>

#include "src/simd/greedy_kernel.h"

namespace dyck {

namespace {

// Reads a span back to front with every parenthesis direction flipped,
// without materializing the reversed sequence. Reversal-with-flip is a
// Dyck distance isometry (see greedy.h), so scanning through this view
// yields a second, independent upper bound on the same distance.
// operator[] returns by value — GreedyScan copies symbols out rather than
// holding references, precisely so this adapter can exist.
class ReversedFlippedView {
 public:
  explicit ReversedFlippedView(ParenSpan seq) : seq_(seq) {}

  size_t size() const { return seq_.size(); }
  Paren operator[](size_t i) const {
    Paren p = seq_[seq_.size() - 1 - i];
    p.is_open = !p.is_open;
    return p;
  }

  ParenSpan underlying() const { return seq_; }

 private:
  ParenSpan seq_;
};

// How GreedyAdvance reads each view: the raw storage plus a reversed flag
// (the kernel applies the flip-and-reverse itself, so neither view is ever
// materialized).
const Paren* KernelData(ParenSpan seq) { return seq.data(); }
bool KernelReversed(ParenSpan) { return false; }
const Paren* KernelData(const ReversedFlippedView& view) {
  return view.underlying().data();
}
bool KernelReversed(const ReversedFlippedView&) { return true; }

// The one-pass decision logic, templated over what happens at each edit so
// the script-producing repair and the count-only distance estimate can
// never drift apart, and over the sequence view so the same scan serves
// the forward pass (ParenSpan) and the reversed pass (ReversedFlippedView)
// without a copy. The policy receives one call per event:
//
//   DeleteTop(entry)      pop a (possibly flipped) stack entry for cost 1,
//                         folding into the entry's own substitution op
//   DeleteCloser(pos)     drop the current closing symbol
//   FlipOpener(pos, type) substitute a closer into an opener; returns the
//                         op handle stored in the new stack entry
//   RetypeCloser(top, pos) substitute the closer to match the top
//   PairLeftovers(a, b)   close leftover opener a with flipped/rewritten b
//   DeleteLeftover(entry) delete a leftover opener
template <typename Seq, typename Policy>
void GreedyScan(const Seq& seq, bool allow_substitutions,
                std::vector<GreedyEntry>& stack, Policy& policy) {
  stack.clear();

  auto delete_top = [&] {
    policy.DeleteTop(stack.back());
    stack.pop_back();
  };

  // The conflict-free portion of the scan (push opens, pop matching
  // closes) runs through the vector kernel when profitable, leaving only
  // actual conflicts to the rule engine below. GreedyAdvance replicates
  // the fast path exactly, so kernel on/off changes timing only.
  const auto n = static_cast<int64_t>(seq.size());
  const Paren* const data = KernelData(seq);
  const bool reversed = KernelReversed(seq);
  const bool use_kernel = simd::GreedyKernelProfitable(data, n);

  for (int64_t i = 0; i < n; ++i) {
    if (use_kernel) {
      i = simd::GreedyAdvance(data, n, i, reversed, &stack);
      if (i >= n) break;
    } else {
      const Paren cur = seq[i];
      if (cur.is_open) {
        stack.push_back({cur.type, i, -1});
        continue;
      }
      if (!stack.empty() && stack.back().type == cur.type) {
        stack.pop_back();
        continue;
      }
    }
    const Paren p = seq[i];  // a closer the fast path could not consume
    // Conflict. The rules below are ordered to defuse the cascade modes a
    // naive policy suffers (see greedy.h).
    const bool has_next = i + 1 < static_cast<int64_t>(seq.size());
    const Paren next_val = has_next ? seq[i + 1] : Paren{};
    const Paren* next = has_next ? &next_val : nullptr;
    //
    // Probe a few entries below the top: if the closer matches one of
    // them, the entries above it are likely spurious openers — drop them
    // and complete the match. Depth 2 is accepted on the match alone;
    // deeper matches are too likely coincidences (with 4 types, ~58%
    // within 3 probes), so they additionally require the next symbol to
    // close the entry that would become the new top.
    constexpr size_t kProbeDepth = 4;
    size_t match_depth = 0;
    for (size_t k = 2; k <= kProbeDepth && k <= stack.size(); ++k) {
      if (stack[stack.size() - k].type != p.type) continue;
      if (k == 2 ||
          (next != nullptr && k < stack.size() &&
           Paren::Open(stack[stack.size() - k - 1].type).Matches(*next))) {
        match_depth = k;
        break;
      }
    }
    if (match_depth >= 2) {
      for (size_t k = 1; k < match_depth; ++k) delete_top();
      stack.pop_back();
      continue;
    }
    if (!stack.empty() && next != nullptr &&
        Paren::Open(stack.back().type).Matches(*next)) {
      // The very next symbol closes the top properly: y is a stray.
      policy.DeleteCloser(i);
      continue;
    }
    if (!stack.empty() && allow_substitutions) {
      if (next != nullptr && next->is_open) {
        // Nesting continues below y: y looks like a direction-flipped
        // opener. Flip it back and push.
        stack.push_back({p.type, i, policy.FlipOpener(i, p.type)});
      } else if (next == nullptr ||
                 (stack.size() >= 2 &&
                  Paren::Open(stack[stack.size() - 2].type)
                      .Matches(*next))) {
        // Retype the closer to match the top — either the input ends here
        // (no cascade possible) or the parent closes right after
        // (positive evidence y really was the top's closer). Without such
        // evidence, sub-aligning an *orphaned* closer consumes the
        // parent's opener and the mistake cascades up the nesting spine.
        policy.RetypeCloser(stack.back(), i);
        stack.pop_back();
      } else {
        policy.DeleteCloser(i);
      }
    } else {
      // Conflict or empty stack: drop the closer.
      policy.DeleteCloser(i);
    }
  }

  // Leftover openings.
  if (allow_substitutions) {
    size_t idx = 0;
    for (; idx + 1 < stack.size(); idx += 2) {
      policy.PairLeftovers(stack[idx], stack[idx + 1]);
    }
    if (idx < stack.size()) policy.DeleteLeftover(stack[idx]);
  } else {
    for (const GreedyEntry& e : stack) policy.DeleteLeftover(e);
  }
}

// Materializes the edit script; GreedyResult semantics are unchanged from
// the pre-template implementation byte for byte.
class ScriptPolicy {
 public:
  ScriptPolicy(ParenSpan seq, GreedyResult* result)
      : seq_(seq), result_(result) {}

  void DeleteTop(const GreedyEntry& top) {
    std::vector<EditOp>& ops = result_->script.ops;
    if (top.op_index >= 0) {
      ops[top.op_index] = {EditOpKind::kDelete, top.pos, Paren{}};
    } else {
      ops.push_back({EditOpKind::kDelete, top.pos, Paren{}});
    }
  }

  void DeleteCloser(int64_t pos) {
    result_->script.ops.push_back({EditOpKind::kDelete, pos, Paren{}});
  }

  int32_t FlipOpener(int64_t pos, ParenType type) {
    std::vector<EditOp>& ops = result_->script.ops;
    const int32_t op_index = static_cast<int32_t>(ops.size());
    ops.push_back({EditOpKind::kSubstitute, pos, Paren::Open(type)});
    return op_index;
  }

  void RetypeCloser(const GreedyEntry& top, int64_t pos) {
    result_->script.ops.push_back(
        {EditOpKind::kSubstitute, pos, Paren::Close(top.type)});
  }

  void PairLeftovers(const GreedyEntry& first, const GreedyEntry& second) {
    std::vector<EditOp>& ops = result_->script.ops;
    const Paren close = Paren::Close(first.type);
    if (second.op_index >= 0) {
      // The second entry is a flipped closer: rewrite its op in place.
      // If its original symbol already equals the needed closer, the
      // flip was wasted — drop the op entirely (tombstone).
      if (seq_[second.pos] == close) {
        ops[second.op_index].pos = -1;
      } else {
        ops[second.op_index] = {EditOpKind::kSubstitute, second.pos, close};
      }
    } else {
      ops.push_back({EditOpKind::kSubstitute, second.pos, close});
    }
  }

  void DeleteLeftover(const GreedyEntry& e) {
    std::vector<EditOp>& ops = result_->script.ops;
    if (e.op_index >= 0) {
      ops[e.op_index] = {EditOpKind::kDelete, e.pos, Paren{}};
    } else {
      ops.push_back({EditOpKind::kDelete, e.pos, Paren{}});
    }
  }

  void Finish() {
    // Drop tombstoned ops, then order.
    std::erase_if(result_->script.ops,
                  [](const EditOp& op) { return op.pos < 0; });
    result_->script.Normalize();
    result_->cost = result_->script.Cost();
  }

 private:
  ParenSpan seq_;
  GreedyResult* result_;
};

// Counts what ScriptPolicy would have put in ops (after tombstone
// removal), touching no script storage at all. Templated on the view so
// the reversed-pass lookup in PairLeftovers reads the same coordinates the
// scan produced.
template <typename Seq>
class CountPolicy {
 public:
  explicit CountPolicy(const Seq& seq) : seq_(seq) {}

  // A flipped entry already paid for its substitution; rewriting it into
  // a deletion keeps the op count unchanged.
  void DeleteTop(const GreedyEntry& top) {
    if (top.op_index < 0) ++count_;
  }
  void DeleteCloser(int64_t) { ++count_; }
  int32_t FlipOpener(int64_t, ParenType) {
    ++count_;
    return 0;  // "has an op" flag; the index itself is never dereferenced
  }
  void RetypeCloser(const GreedyEntry&, int64_t) { ++count_; }
  void PairLeftovers(const GreedyEntry& first, const GreedyEntry& second) {
    if (second.op_index >= 0) {
      // In-place rewrite of the flip op (no new op) — unless the original
      // symbol already is the needed closer, where the flip op tombstones
      // away entirely.
      if (seq_[second.pos] == Paren::Close(first.type)) --count_;
    } else {
      ++count_;
    }
  }
  void DeleteLeftover(const GreedyEntry& e) {
    if (e.op_index < 0) ++count_;
  }

  int64_t count() const { return count_; }

 private:
  Seq seq_;
  int64_t count_ = 0;
};

template <typename Seq>
int64_t CountEdits(const Seq& seq, bool allow_substitutions,
                   std::vector<GreedyEntry>& stack) {
  CountPolicy<Seq> policy(seq);
  GreedyScan(seq, allow_substitutions, stack, policy);
  return policy.count();
}

}  // namespace

GreedyResult GreedyRepair(ParenSpan seq, bool allow_substitutions,
                          std::vector<GreedyEntry>* stack_scratch) {
  GreedyResult result;
  std::vector<GreedyEntry> local;
  ScriptPolicy policy(seq, &result);
  GreedyScan(seq, allow_substitutions,
             stack_scratch != nullptr ? *stack_scratch : local, policy);
  policy.Finish();
  return result;
}

int64_t EstimateDistanceUpperBound(ParenSpan seq, bool allow_substitutions,
                                   std::vector<GreedyEntry>* stack_scratch) {
  std::vector<GreedyEntry> local;
  return CountEdits(seq, allow_substitutions,
                    stack_scratch != nullptr ? *stack_scratch : local);
}

int64_t EstimateDistanceUpperBoundBidirectional(
    ParenSpan seq, bool allow_substitutions,
    std::vector<GreedyEntry>* stack_scratch) {
  std::vector<GreedyEntry> local;
  std::vector<GreedyEntry>& stack =
      stack_scratch != nullptr ? *stack_scratch : local;
  const int64_t forward = CountEdits(seq, allow_substitutions, stack);
  if (forward <= 1) return forward;  // already tight: d >= 1 on any conflict
  const int64_t backward =
      CountEdits(ReversedFlippedView(seq), allow_substitutions, stack);
  return std::min(forward, backward);
}

}  // namespace dyck
