// Linear-time reduction establishing Property 19 (paper §3.2).
//
// "As long as there are two neighboring symbols that can be aligned, remove
// them." The removal relation is confluent, so a single stack pass computes
// the unique fully-reduced sequence: push openings; when a closing matches
// the type of the top-of-stack opening, drop both. By Fact 18 the reduction
// preserves both edit1 and edit2. The dropped pairs are parentheses matched
// at zero cost; solvers need only the survivors' original positions, and
// AlignedPairs (src/core/edit_script.h) recovers the full alignment of a
// finished script on request.

#ifndef DYCKFIX_SRC_PROFILE_REDUCE_H_
#define DYCKFIX_SRC_PROFILE_REDUCE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/alphabet/paren.h"
#include "src/profile/height.h"

namespace dyck {

/// Result of reducing a sequence to Property-19 form.
struct Reduced {
  /// The reduced sequence; satisfies Property 19.
  ParenSeq seq;
  /// orig_pos[i] = index in the original sequence of reduced symbol i.
  /// Strictly increasing.
  std::vector<int64_t> orig_pos;
  /// Never filled: nothing in the library reads the pairs the reduction
  /// drops. Kept only because e2ebench/splice_edit.cc clears it.
  std::vector<std::pair<int64_t, int64_t>> matched_pairs;
};

/// Reduces `seq`; O(n) time and space.
Reduced Reduce(ParenSpan seq);

/// Reduce into caller-owned storage: `out`'s members are cleared and
/// refilled, retaining their capacity across documents (RepairContext
/// scratch). out->orig_pos doubles as the working survivor stack, so no
/// scratch beyond the result itself is touched.
void Reduce(ParenSpan seq, Reduced* out);

/// True iff no two adjacent symbols of `seq` can be aligned (Property 19).
bool SatisfiesProperty19(ParenSpan seq);

/// Per-chunk reduction summary. A chunk's reduction is context-free: the
/// residual (the chunk reduced in isolation) fully determines how the
/// chunk composes with any left context, because replaying the residual
/// against the survivor stack of the preceding chunks performs exactly
/// the cancellations the global stack pass would — the residual satisfies
/// Property 19, so no cancellation internal to it is possible, and the
/// first stack pop a survivor could cause must be against the preceding
/// context. This makes chunk summaries a monoid under ReductionMerger
/// composition, and is what lets a splice recompute one chunk in O(chunk)
/// and re-merge in O(total residual).
struct ChunkSummary {
  /// The chunk reduced in isolation (satisfies Property 19).
  ParenSeq residual;
  /// residual_pos[i] = chunk-local index of residual symbol i.
  std::vector<int64_t> residual_pos;
  /// Untyped balance profile of the raw chunk (not the residual).
  HeightSummary height;
};

/// Summarizes one chunk; O(len) time. Members of `*out` are cleared and
/// refilled, retaining capacity across re-summarizations of the same chunk
/// slot.
void SummarizeChunk(ParenSpan chunk, ChunkSummary* out);

/// Left fold over chunk summaries reconstructing the whole-document
/// reduction byte-identically to Reduce() on the concatenated sequence.
///
///   ReductionMerger m;
///   m.Reset(&reduced);
///   for each chunk: m.Append(summary, absolute_offset);
///
/// After the last Append, `reduced.seq` / `reduced.orig_pos` equal
/// Reduce()'s output on the full document.
class ReductionMerger {
 public:
  void Reset(Reduced* out);

  /// Folds in the next chunk; `offset` is the chunk's absolute start
  /// index in the document. O(residual size) amortized.
  void Append(const ChunkSummary& chunk, int64_t offset);

 private:
  Reduced* out_ = nullptr;
};

}  // namespace dyck

#endif  // DYCKFIX_SRC_PROFILE_REDUCE_H_
