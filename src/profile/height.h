// Height function h (paper Definition 15).
//
// h(0) = 0 (we use 0-based indices; the paper's h(1) = 0). Between
// consecutive symbols the height changes only when they are of the same
// direction: two openings step down, two closings step up, a direction
// change keeps the height. Runs of openings are thus descending slopes and
// runs of closings ascending slopes, giving the "valley" picture of
// Figures 1-3. Fact 20 / Fact 36 bound how far apart in height two symbols
// can sit and still be matched with at most d edits; the FPT algorithms use
// those bounds to prune candidate alignments.

#ifndef DYCKFIX_SRC_PROFILE_HEIGHT_H_
#define DYCKFIX_SRC_PROFILE_HEIGHT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/alphabet/paren.h"

namespace dyck {

/// Monoid summary of a chunk's untyped balance profile. `net` is the
/// opens-minus-closes delta across the chunk; `min_prefix` (always <= 0)
/// is the lowest value the running delta reaches inside the chunk. Chunk
/// summaries compose associatively (MergeHeight), so a document split into
/// chunks re-derives its global profile from per-chunk summaries in O(#chunks)
/// after a splice instead of rescanning all n symbols.
struct HeightSummary {
  int64_t net = 0;
  int64_t min_prefix = 0;

  bool operator==(const HeightSummary& o) const {
    return net == o.net && min_prefix == o.min_prefix;
  }
};

/// Summary of a single chunk; O(len).
HeightSummary SummarizeHeight(ParenSpan seq);

/// Monoid composition: the summary of the concatenation a ++ b.
inline HeightSummary MergeHeight(const HeightSummary& a,
                                 const HeightSummary& b) {
  return {a.net + b.net, a.min_prefix < a.net + b.min_prefix
                             ? a.min_prefix
                             : a.net + b.min_prefix};
}

/// Untyped relaxation lower bound recovered from a whole-document summary;
/// agrees with approx::DyckRelaxationLowerBound by construction:
/// -min_prefix closings arrive below ground and net - min_prefix openings
/// are left unmatched at the end.
int64_t SummaryLowerBound(const HeightSummary& s, bool allow_substitutions);

/// Heights of every symbol per Definition 15; empty for an empty sequence.
std::vector<int64_t> ComputeHeights(ParenSpan seq);

/// ComputeHeights into caller-owned storage: `out` is resized to
/// seq.size(), retaining capacity across calls (RepairContext scratch).
void ComputeHeights(ParenSpan seq, std::vector<int64_t>* out);

/// Renders the height profile as multi-line ASCII art (one column per
/// symbol), reproducing the visual content of the paper's Figures 1-3.
/// `pairs` optionally connects aligned pairs (e.g. AlignedPairs of a
/// repair): each pair (i, j) draws arc endpoints '*' at those columns.
std::string RenderProfile(
    ParenSpan seq, const std::vector<std::pair<int64_t, int64_t>>& pairs = {});

}  // namespace dyck

#endif  // DYCKFIX_SRC_PROFILE_HEIGHT_H_
