// Persistent, splice-updatable repair document (ROADMAP: incremental
// repair for live editing).
//
// Repair() reruns the whole five-stage pipeline per call, so an editor
// paying one repair per keystroke pays O(n) per keystroke. RepairDoc keeps
// the token buffer *and* the pipeline's stage-1/2 artifacts alive between
// calls as a chunked cache: the document is cut into ~target-sized chunks,
// each carrying its Property-19 reduction residual and its untyped height
// summary (src/profile/reduce.h ChunkSummary).
// Chunk summaries compose monoid-style (ReductionMerger / MergeHeight), so
//
//   Splice(pos, erase_len, insert)   dirties only the touched chunks, and
//   Repair(options)                  re-summarizes just those, re-merges
//                                    all residuals, and enters the
//                                    pipeline at stage 3 (Select)
//
// for a per-edit cost of O(chunk + total residual + solver(d)) instead of
// O(n). Results are byte-identical to the eager pipeline by construction:
// the merged artifacts are provably equal to what stages 1-2 would compute
// (see ReductionMerger), and the remaining stages are the very same code,
// entered through pipeline::RunInto's StageArtifacts overload. When a
// splice storm dirties more than half the cache (or chunk bookkeeping
// drifts), Repair falls back to a full rebuild — same answers, telemetry
// reports incremental=false.
//
// Telemetry: each result's RepairTelemetry carries
// {incremental, chunks_reused, chunks_recomputed}; the doc-side refresh /
// merge work is folded into the existing ProfileReduce stage seconds.

#ifndef DYCKFIX_SRC_CORE_DOC_H_
#define DYCKFIX_SRC_CORE_DOC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/alphabet/paren.h"
#include "src/core/context.h"
#include "src/core/dyck.h"
#include "src/profile/reduce.h"

namespace dyck {

namespace cache {
class SequenceInterner;
}  // namespace cache

class RepairDoc {
 public:
  /// An empty document; grow it with Splice.
  RepairDoc() = default;
  /// A document holding a copy of `initial`. `target_chunk_size` overrides
  /// the automatic chunking (clamped to >= 16); 0 keeps the default, which
  /// scales with the document size. Summaries are built lazily on the
  /// first Repair.
  explicit RepairDoc(ParenSeq initial, int64_t target_chunk_size = 0);

  // The doc owns scratch (RepairContext) and cached artifacts; neither is
  // meaningfully copyable.
  RepairDoc(const RepairDoc&) = delete;
  RepairDoc& operator=(const RepairDoc&) = delete;

  /// The current token buffer.
  const ParenSeq& tokens() const { return buffer_; }
  int64_t size() const { return static_cast<int64_t>(buffer_.size()); }

  /// Replaces tokens [pos, pos + erase_len) with `insert`. Touched chunks
  /// are merged into one dirty chunk (split back to target size when the
  /// edit is large); everything else keeps its summary. O(n) for the
  /// buffer memmove, O(#chunks) bookkeeping, no re-summarization here.
  /// Requires 0 <= pos <= size() and erase_len within bounds (checked).
  void Splice(int64_t pos, int64_t erase_len, ParenSpan insert);

  /// Repairs the current buffer. Identical results (distance, script,
  /// repaired sequence, Status codes) to Repair(tokens(), options) for
  /// every Options combination; only the telemetry's incremental counters
  /// and stage timings differ.
  Status RepairInto(const Options& options, RepairResult* out);
  StatusOr<RepairResult> Repair(const Options& options = {});

  /// The untyped-relaxation distance lower bound (== approx::
  /// DyckRelaxationLowerBound on the buffer), folded from the per-chunk
  /// height summaries in O(#chunks). Refreshes dirty chunks if needed.
  int64_t UntypedLowerBound(bool allow_substitutions);

  /// Cache introspection, for tests and reuse stats.
  int64_t chunk_count() const { return static_cast<int64_t>(chunks_.size()); }
  int64_t dirty_chunk_count() const;

  /// The doc's scratch context (also usable to read last_telemetry).
  RepairContext& context() { return ctx_; }
  const RepairContext& context() const { return ctx_; }

 private:
  struct Chunk {
    int64_t len = 0;
    bool dirty = true;
    ChunkSummary summary;
    /// When the doc repairs with a cache active, dirty chunks resolve
    /// their summary through the shared sequence interner; a non-null
    /// pointer supersedes `summary` (which is then moved-from). Repeated
    /// subdocuments across docs share one immutable summary this way.
    std::shared_ptr<const ChunkSummary> interned;

    const ChunkSummary& view() const {
      return interned != nullptr ? *interned : summary;
    }
  };

  // Refreshes the chunk cache: full rebuild when it pays (first repair,
  // > half dirty, or drifted bookkeeping), else re-summarize only dirty
  // chunks. Returns true on full rebuild; counts into *reused /
  // *recomputed.
  bool EnsureSummaries(int64_t* reused, int64_t* recomputed);
  void RebuildChunks();
  void SummarizeDirtyChunks();
  // Folds every chunk summary into merged_.
  void MergeSummaries();

  ParenSeq buffer_;
  std::vector<Chunk> chunks_;
  int64_t target_chunk_ = 0;
  int64_t requested_chunk_ = 0;  // constructor override; 0 = auto

  // Merged stage artifacts, valid until the next Splice.
  Reduced merged_;
  bool merged_valid_ = false;
  // Cached planner d-hint per metric (0: deletions, 1: +substitutions).
  int64_t d_hint_[2] = {-1, -1};
  bool d_hint_valid_[2] = {false, false};

  // Interner engaged for the current repair (null when no cache is
  // active); set by RepairInto before summaries refresh. interned_count_
  // counts dirty chunks served by interner hits during that refresh.
  cache::SequenceInterner* interner_ = nullptr;
  int64_t interned_count_ = 0;

  RepairContext ctx_;
};

}  // namespace dyck

#endif  // DYCKFIX_SRC_CORE_DOC_H_
