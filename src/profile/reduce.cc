#include "src/profile/reduce.h"

#include "src/simd/simd.h"

namespace dyck {

Reduced Reduce(ParenSpan seq) {
  Reduced out;
  Reduce(seq, &out);
  return out;
}

void Reduce(ParenSpan seq, Reduced* outp) {
  Reduced& out = *outp;
  out.seq.clear();
  // out.orig_pos holds indices into `seq` of the symbols that survive. A
  // closing symbol can only ever cancel against the nearest surviving
  // opening to its left, so the single stack pass inside ReduceSpan
  // performs every possible neighbor removal; the survivor list stays
  // strictly increasing (pushes are increasing, pops are from the back),
  // so it IS the survivor index map.
  simd::ReduceSpan(seq.data(), seq.size(), &out.orig_pos, nullptr);
  out.seq.reserve(out.orig_pos.size());
  for (int64_t idx : out.orig_pos) out.seq.push_back(seq[idx]);
}

bool SatisfiesProperty19(ParenSpan seq) {
  for (size_t i = 0; i + 1 < seq.size(); ++i) {
    if (seq[i].Matches(seq[i + 1])) return false;
  }
  return true;
}

void SummarizeChunk(ParenSpan chunk, ChunkSummary* out) {
  out->residual.clear();
  // residual_pos is the survivor list of the stack pass, exactly like
  // Reduce's orig_pos: strictly increasing pushes, pops from the back.
  simd::SpanHeight h;
  simd::ReduceSpan(chunk.data(), chunk.size(), &out->residual_pos, &h);
  out->height.net = h.net;
  out->height.min_prefix = h.min_prefix;
  out->residual.reserve(out->residual_pos.size());
  for (int64_t idx : out->residual_pos) out->residual.push_back(chunk[idx]);
}

void ReductionMerger::Reset(Reduced* out) {
  out_ = out;
  out_->seq.clear();
  out_->orig_pos.clear();
}

void ReductionMerger::Append(const ChunkSummary& chunk, int64_t offset) {
  Reduced& out = *out_;
  // Replay the residual against the accumulated survivor stack. out.seq
  // and out.orig_pos act as parallel stacks; pushes are ascending in
  // absolute position and pops come from the back, so when the fold ends
  // they already hold the final reduction (Reduce's `kept` invariant).
  // Every pop here is a cancellation the global pass would perform, and no
  // cancellation internal to the residual is possible (Property 19), so
  // the replay reproduces the global reduction exactly.
  for (size_t i = 0; i < chunk.residual.size(); ++i) {
    const Paren& p = chunk.residual[i];
    if (!p.is_open && !out.seq.empty() && out.seq.back().Matches(p)) {
      out.seq.pop_back();
      out.orig_pos.pop_back();
    } else {
      out.seq.push_back(p);
      out.orig_pos.push_back(offset + chunk.residual_pos[i]);
    }
  }
}

}  // namespace dyck
