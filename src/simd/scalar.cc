// Scalar reference backend. Every other backend is pinned byte-identical
// to these implementations by tests/simd_test.cc; they are also the
// fallback entries for kernels a vector backend does not implement.

#include <algorithm>
#include <cstring>

#include "src/simd/kernels.h"

namespace dyck::simd::internal {

const Tables& GetTables() {
  static const Tables tables = [] {
    Tables tb;
    for (int b = 0; b < 256; ++b) {
      int h = 0;
      int mp = 0;
      int sm = 0;
      for (int k = 0; k < 8; ++k) {
        const int d = (b >> k) & 1;
        h += 2 * d - 1;
        mp = h < mp ? h : mp;
        const int slot = h - d;
        sm = slot < sm ? slot : sm;
        tb.slot_off[b][k] = static_cast<int8_t>(slot);
      }
      tb.net[b] = static_cast<int8_t>(h);
      tb.minp[b] = static_cast<int8_t>(mp);
      tb.smin[b] = static_cast<int8_t>(sm);
      uint8_t r = 0;
      for (int k = 0; k < 8; ++k) r |= ((b >> k) & 1) << (7 - k);
      tb.rev8[b] = r;
      // In-block matching: run the direction stack over the block; every
      // close that pops an in-block open is adjacency-matched to it.
      int open_stack[8];
      int sp = 0;
      bool paired[8] = {};
      tb.inblock_close[b] = 0;
      for (int k = 0; k < 8; ++k) {
        tb.match_src[b][k] = 0;
        if ((b >> k) & 1) {
          open_stack[sp++] = k;
        } else if (sp > 0) {
          const int a = open_stack[--sp];
          tb.match_src[b][k] = static_cast<int8_t>(a);
          tb.inblock_close[b] |= static_cast<uint8_t>(1u << k);
          paired[a] = true;
          paired[k] = true;
        }
      }
      int ext = 0;
      for (int k = 0; k < 8; ++k) {
        if (!paired[k]) tb.ext_perm[b][ext++] = static_cast<int8_t>(k);
      }
      tb.ext_count[b] = static_cast<uint8_t>(ext);
      for (int k = ext; k < 8; ++k) tb.ext_perm[b][k] = 0;
    }
    return tb;
  }();
  return tables;
}

SpanHeight SummarizeScalar(const Paren* p, size_t n) {
  int64_t h = 0;
  int64_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    h += p[i].is_open ? +1 : -1;
    m = h < m ? h : m;
  }
  return {h, m};
}

Pass1Info Pass1Scalar(const Paren* p, size_t n, int32_t* slots) {
  int64_t h = 0;
  int64_t sm = 0;
  int64_t mp = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t o = p[i].is_open ? 1 : 0;
    h += 2 * o - 1;
    mp = h < mp ? h : mp;
    const int64_t s = h - o;
    sm = s < sm ? s : sm;
    slots[i] = static_cast<int32_t>(s);
  }
  return {h, sm, mp};
}

int64_t GreedyAdvanceScalar(const Paren* data, int64_t n, int64_t i,
                            bool reversed_flipped,
                            std::vector<GreedyEntry>* stack) {
  while (i < n) {
    Paren p = data[reversed_flipped ? n - 1 - i : i];
    if (reversed_flipped) p.is_open = !p.is_open;
    if (p.is_open) {
      stack->push_back({p.type, i, -1});
    } else if (!stack->empty() && stack->back().type == p.type) {
      stack->pop_back();
    } else {
      return i;
    }
    ++i;
  }
  return n;
}

size_t FindByteScalar(const char* s, size_t n, char c) {
  const void* hit = std::memchr(s, static_cast<unsigned char>(c), n);
  return hit == nullptr
             ? n
             : static_cast<size_t>(static_cast<const char*>(hit) - s);
}

size_t TokenizeScalar(const char* s, size_t n, const int32_t* char_map,
                      const ByteSet* /*set*/, Paren* out) {
  for (size_t i = 0; i < n; ++i) {
    const int32_t entry = char_map[static_cast<unsigned char>(s[i])];
    if (entry < 0) return i;
    out[i] = Paren{entry >> 1, (entry & 1) != 0};
  }
  return n;
}

size_t TokenizeLenientScalar(const char* s, size_t n, const int32_t* char_map,
                             const ByteSet* /*set*/, Paren* out) {
  size_t written = 0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t entry = char_map[static_cast<unsigned char>(s[i])];
    if (entry >= 0) out[written++] = Paren{entry >> 1, (entry & 1) != 0};
  }
  return written;
}

void WaveCombineScalar(const int64_t* prev, int64_t span, int64_t a_len,
                       int64_t b_len, bool subs, int64_t unreached,
                       int64_t* cand) {
  const int64_t stride = 2 * span + 1;
  for (int64_t idx = 0; idx < stride; ++idx) {
    const int64_t k = idx - span;
    int64_t best = unreached;
    // Carry-over: D <= h-1 implies D <= h.
    if (prev[idx] != unreached) best = std::max(best, prev[idx]);
    const auto consider = [&](int64_t diag_delta, int64_t row_delta) {
      int64_t src = prev[idx + diag_delta];
      if (src == unreached) return;
      src = std::min(src, a_len - row_delta);
      src = std::min(src, b_len - k - row_delta);
      if (src < 0 || src + k + diag_delta < 0) return;
      const int64_t r = src + row_delta;
      if (r < 0 || r + k < 0) return;
      best = std::max(best, r);
    };
    consider(+1, +1);
    consider(-1, 0);
    if (subs) {
      consider(0, +1);
      consider(+2, +2);
      consider(-2, 0);
    }
    cand[idx] = best;
  }
}

const KernelOps& ScalarOps() {
  static const KernelOps ops = {
      &Pass1Scalar,          &SummarizeScalar,
      &GreedyAdvanceScalar,  &FindByteScalar,
      &TokenizeScalar,       &TokenizeLenientScalar,
      &WaveCombineScalar,
      nullptr,  // balance_blocks: the driver's height-tracked pass is the
      nullptr,  // scalar path; staging would only add traffic here.
  };
  return ops;
}

}  // namespace dyck::simd::internal
