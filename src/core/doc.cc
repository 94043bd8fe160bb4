#include "src/core/doc.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/baseline/greedy.h"
#include "src/cache/interner.h"
#include "src/cache/repair_cache.h"
#include "src/core/solver.h"
#include "src/pipeline/pipeline.h"
#include "src/profile/height.h"
#include "src/util/logging.h"

namespace dyck {

namespace {

// Chunk sizing: small enough that one keystroke re-summarizes a sliver of
// the document, large enough that the O(#chunks) merge bookkeeping stays
// negligible next to it. Scales with n so tiny documents use one chunk.
constexpr int64_t kMinChunk = 16;
constexpr int64_t kDefaultMinChunk = 1024;
constexpr int64_t kDefaultMaxChunk = 8192;

int64_t ChooseChunkTarget(int64_t n, int64_t requested) {
  if (requested > 0) return std::max(requested, kMinChunk);
  return std::clamp(n / 64, kDefaultMinChunk, kDefaultMaxChunk);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

RepairDoc::RepairDoc(ParenSeq initial, int64_t target_chunk_size)
    : buffer_(std::move(initial)), requested_chunk_(target_chunk_size) {}

int64_t RepairDoc::dirty_chunk_count() const {
  int64_t dirty = 0;
  for (const Chunk& c : chunks_) dirty += c.dirty ? 1 : 0;
  return dirty;
}

void RepairDoc::Splice(int64_t pos, int64_t erase_len, ParenSpan insert) {
  const int64_t n = size();
  DYCK_CHECK(pos >= 0 && pos <= n);
  DYCK_CHECK(erase_len >= 0 && pos + erase_len <= n);
  const int64_t ins = static_cast<int64_t>(insert.size());
  if (erase_len > 0) {
    buffer_.erase(buffer_.begin() + pos, buffer_.begin() + pos + erase_len);
  }
  if (ins > 0) {
    buffer_.insert(buffer_.begin() + pos, insert.begin(), insert.end());
  }
  merged_valid_ = false;
  d_hint_valid_[0] = d_hint_valid_[1] = false;
  if (chunks_.empty()) return;  // no cache yet; the first Repair builds it

  // Locate the chunk range [a, b] covering [pos, pos + erase_len). A pure
  // insert at a boundary lands in the right-hand chunk (the last chunk for
  // pos == n).
  size_t a = 0;
  int64_t off = 0;  // start offset of chunk a
  while (a + 1 < chunks_.size() && off + chunks_[a].len <= pos) {
    off += chunks_[a].len;
    ++a;
  }
  size_t b = a;
  int64_t covered = chunks_[a].len;
  while (off + covered < pos + erase_len) {
    ++b;
    DYCK_CHECK(b < chunks_.size());
    covered += chunks_[b].len;
  }

  // Collapse [a, b] into one dirty chunk with the post-edit length.
  chunks_[a].len = covered - erase_len + ins;
  chunks_[a].dirty = true;
  if (b > a) chunks_.erase(chunks_.begin() + a + 1, chunks_.begin() + b + 1);
  if (chunks_[a].len == 0) {
    chunks_.erase(chunks_.begin() + a);
    return;
  }
  // A chunk bloated by repeated inserts (or a huge paste) would make every
  // later edit in it pay O(bloat); split it back toward target size.
  if (target_chunk_ > 0 && chunks_[a].len > 2 * target_chunk_) {
    const int64_t len = chunks_[a].len;
    const int64_t pieces = (len + target_chunk_ - 1) / target_chunk_;
    const int64_t base = len / pieces;
    const int64_t rem = len % pieces;
    chunks_[a].len = base + (rem > 0 ? 1 : 0);
    std::vector<Chunk> extra(static_cast<size_t>(pieces - 1));
    for (int64_t p = 1; p < pieces; ++p) {
      extra[p - 1].len = base + (p < rem ? 1 : 0);
      extra[p - 1].dirty = true;
    }
    chunks_.insert(chunks_.begin() + a + 1,
                   std::make_move_iterator(extra.begin()),
                   std::make_move_iterator(extra.end()));
  }
}

bool RepairDoc::EnsureSummaries(int64_t* reused, int64_t* recomputed) {
  const int64_t n = size();
  if (n == 0) {
    chunks_.clear();
    *reused = 0;
    *recomputed = 0;
    return false;
  }
  const int64_t dirty = dirty_chunk_count();
  const int64_t total = static_cast<int64_t>(chunks_.size());
  const int64_t ideal =
      target_chunk_ > 0 ? (n + target_chunk_ - 1) / target_chunk_ : 0;
  // Rebuild when it pays: no cache yet, more than half the chunks dirty
  // (re-merging them incrementally would cost about as much), or the chunk
  // count has drifted far from ideal after splice-driven merges/splits.
  const bool rebuild = chunks_.empty() || 2 * dirty > total ||
                       total > 4 * ideal + 8;
  if (rebuild) {
    RebuildChunks();
    *reused = 0;
    *recomputed = static_cast<int64_t>(chunks_.size());
    return true;
  }
  *reused = total - dirty;
  *recomputed = dirty;
  if (dirty > 0) SummarizeDirtyChunks();
  return false;
}

void RepairDoc::RebuildChunks() {
  const int64_t n = size();
  target_chunk_ = ChooseChunkTarget(n, requested_chunk_);
  const int64_t count = std::max<int64_t>((n + target_chunk_ - 1) /
                                              target_chunk_,
                                          1);
  chunks_.resize(static_cast<size_t>(count));  // keeps summary capacity
  const int64_t base = n / count;
  const int64_t rem = n % count;
  for (int64_t i = 0; i < count; ++i) {
    chunks_[i].len = base + (i < rem ? 1 : 0);
    chunks_[i].dirty = true;
  }
  SummarizeDirtyChunks();
  merged_valid_ = false;
}

void RepairDoc::SummarizeDirtyChunks() {
  const ParenSpan view(buffer_);
  int64_t off = 0;
  for (Chunk& c : chunks_) {
    if (c.dirty) {
      const ParenSpan chunk_span = view.subspan(off, c.len);
      if (interner_ != nullptr) {
        const uint64_t h = cache::HashContent(chunk_span);
        if (auto shared = interner_->Find(h, chunk_span)) {
          c.interned = std::move(shared);
          ++interned_count_;
        } else {
          SummarizeChunk(chunk_span, &c.summary);
          // Intern the freshly built summary; the returned pointer is
          // canonical (an entry another doc raced in wins), and
          // c.summary is left moved-from behind it.
          c.interned = interner_->Insert(h, chunk_span,
                                         std::move(c.summary));
        }
      } else {
        SummarizeChunk(chunk_span, &c.summary);
        c.interned = nullptr;
      }
      c.dirty = false;
    }
    off += c.len;
  }
  DYCK_DCHECK_EQ(off, size());
}

void RepairDoc::MergeSummaries() {
  ReductionMerger merger;
  merger.Reset(&merged_);
  int64_t off = 0;
  for (const Chunk& c : chunks_) {
    merger.Append(c.view(), off);
    off += c.len;
  }
  merged_valid_ = true;
}

int64_t RepairDoc::UntypedLowerBound(bool allow_substitutions) {
  int64_t reused = 0;
  int64_t recomputed = 0;
  EnsureSummaries(&reused, &recomputed);
  HeightSummary h;
  for (const Chunk& c : chunks_) h = MergeHeight(h, c.view().height);
  return SummaryLowerBound(h, allow_substitutions);
}

Status RepairDoc::RepairInto(const Options& options, RepairResult* out) {
  const auto refresh_start = std::chrono::steady_clock::now();
  DYCK_ASSIGN_OR_RETURN(const Solver* forced, ResolveSolver(options));

  // Whole-document cache consult: the staged RunInto below skips its own
  // consult on the StageArtifacts path, so the doc keys the result on its
  // full buffer here, before any chunk refresh — the replay/revert pattern
  // (splice back to a previously repaired state) hits without touching the
  // chunk machinery.
  cache::RepairCache* repair_cache = cache::ResolveCache(options);
  cache::OptionsKey cache_key;
  uint64_t cache_hash = 0;
  if (repair_cache != nullptr) {
    cache_key = cache::OptionsKey::From(options);
    cache_hash = cache::HashSequence(buffer_, cache_key);
    out->telemetry = RepairTelemetry{};
    if (repair_cache->Lookup(cache_hash, buffer_, cache_key, out)) {
      return Status::OK();
    }
    // Intern chunk summaries while a cache is active, sized off the same
    // knob (the summaries are a fraction of the entry payloads).
    interner_ = cache::SequenceInterner::Shared(
        std::max<int64_t>(repair_cache->byte_budget() / 4, int64_t{1} << 16));
  } else {
    interner_ = nullptr;
  }
  interned_count_ = 0;

  int64_t reused = 0;
  int64_t recomputed = 0;
  const bool rebuilt = EnsureSummaries(&reused, &recomputed);

  const bool subs = options.metric == Metric::kDeletionsAndSubstitutions;
  const bool is_auto = forced == nullptr;
  const bool exact_only = options.max_approximation_factor <= 1.0;
  if (!merged_valid_) MergeSummaries();
  const bool balanced = merged_.seq.empty();

  // Planner d-hint: the greedy scan of the *reduced* sequence (a valid
  // upper bound by Fact 18 — exactly what the planner itself would scan),
  // cached per metric until the next splice. Approximation-admissible
  // configs keep -1: their certified-greedy rung interprets the hint as a
  // full-sequence bound.
  int64_t d_hint = -1;
  if (is_auto && exact_only && !balanced) {
    const int idx = subs ? 1 : 0;
    if (!d_hint_valid_[idx]) {
      d_hint_[idx] = EstimateDistanceUpperBoundBidirectional(
          merged_.seq, subs, &ctx_.greedy_stack());
      d_hint_valid_[idx] = true;
    }
    d_hint = d_hint_[idx];
  }
  const double refresh_seconds = SecondsSince(refresh_start);

  pipeline::StageArtifacts art;
  art.balanced = balanced;
  art.reduced = &merged_;
  art.d_hint = d_hint;
  DYCK_RETURN_NOT_OK(pipeline::RunInto(buffer_, options, &ctx_, out, &art));

  out->telemetry.stage_seconds[static_cast<int>(
      PipelineStage::kProfileReduce)] += refresh_seconds;
  out->telemetry.incremental = !rebuilt;
  out->telemetry.chunks_reused = reused;
  out->telemetry.chunks_recomputed = recomputed;
  out->telemetry.interned_chunks = interned_count_;
  if (repair_cache != nullptr) {
    out->telemetry.cache_miss = true;
    // Seed the cache with the result; degraded answers are refused by
    // Insert itself.
    repair_cache->Insert(cache_hash, buffer_, cache_key, *out);
  }
  return Status::OK();
}

StatusOr<RepairResult> RepairDoc::Repair(const Options& options) {
  RepairResult out;
  DYCK_RETURN_NOT_OK(RepairInto(options, &out));
  return out;
}

}  // namespace dyck
