// AVX2+BMI2 backend. Compiled with -mavx2 -mbmi2 (per-file flags in
// src/CMakeLists.txt); only reachable through the dispatch table after a
// runtime __builtin_cpu_supports("avx2") && ("bmi2") check.

#if defined(DYCKFIX_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "src/simd/span_core.h"

namespace dyck::simd::internal {
namespace {

// Direction bits of p[0..8) in one byte, shuffle-port-free: the is_open
// byte of each 8-byte Paren moves its bit 0 to the byte's top bit with a
// lane shift, MOVMSKB collects one bit per byte, and PEXT picks the eight
// positions that correspond to the is_open bytes (4, 12, ..., 60). The
// type and padding bytes contribute garbage bits at positions PEXT
// discards.
inline uint32_t DirByte8(const Paren* p) {
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4));
  const auto am =
      static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_slli_epi64(a, 7)));
  const auto bm =
      static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_slli_epi64(b, 7)));
  const uint64_t m64 = static_cast<uint64_t>(am) | (static_cast<uint64_t>(bm) << 32);
  return static_cast<uint32_t>(_pext_u64(m64, 0x1010101010101010ull));
}

SpanHeight SummarizeAvx2(const Paren* p, size_t n) {
  return SummarizeCore(p, n, [](const Paren* q) { return DirByte8(q); });
}

Pass1Info Pass1Avx2(const Paren* p, size_t n, int32_t* slots) {
  const Tables& tb = GetTables();
  int64_t h = 0;
  int64_t mp = 0;
  __m256i vmin = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint32_t b = DirByte8(p + i);
    const __m128i row = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(tb.slot_off[b]));
    const __m256i slot = _mm256_add_epi32(
        _mm256_cvtepi8_epi32(row), _mm256_set1_epi32(static_cast<int32_t>(h)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(slots + i), slot);
    vmin = _mm256_min_epi32(vmin, slot);
    const int64_t m = h + tb.minp[b];
    mp = m < mp ? m : mp;
    h += tb.net[b];
  }
  __m128i lo = _mm_min_epi32(_mm256_castsi256_si128(vmin),
                             _mm256_extracti128_si256(vmin, 1));
  lo = _mm_min_epi32(lo, _mm_shuffle_epi32(lo, 0x4E));
  lo = _mm_min_epi32(lo, _mm_shuffle_epi32(lo, 0xB1));
  int64_t sm = _mm_cvtsi128_si32(lo);
  for (; i < n; ++i) {
    const uint64_t w = LoadWord(p + i);
    const int64_t o = WordOpen(w);
    h += 2 * o - 1;
    mp = h < mp ? h : mp;
    const int64_t s = h - o;
    sm = s < sm ? s : sm;
    slots[i] = static_cast<int32_t>(s);
  }
  return {h, sm, mp};
}

int64_t GreedyAdvanceAvx2(const Paren* data, int64_t n, int64_t i,
                          bool reversed_flipped,
                          std::vector<GreedyEntry>* stack) {
  return GreedyAdvanceCore(data, n, i, reversed_flipped, *stack,
                           [](const Paren* q) { return DirByte8(q); });
}

// Staged balance kernel (kernels.h has the contract). Per 8-symbol block:
// the types of in-block matched pairs are compared entirely in registers
// (a table-driven VPERMD routes each close lane its matching open's
// type), and only the external lanes — on uniform inputs about a third —
// are left-packed into the staging arrays for the driver's slot replay.
// In-block pairs thus generate no memory traffic at all, which is where
// this wins over a full slot-array pass.
size_t BalanceBlocksAvx2(const Paren* p, size_t n, int32_t* codes_stage,
                         int32_t* slots_stage, Pass1Info* info,
                         uint32_t* bad) {
  const Tables& tb = GetTables();
  const __m256i lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i ones = _mm256_set1_epi32(1);
  int64_t h = 0;
  int64_t mp = 0;
  size_t cnt = 0;
  uint32_t badm = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + 4));
    // Dirbyte, sharing the two loads with the type extraction below.
    const auto am =
        static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_slli_epi64(a, 7)));
    const auto bm =
        static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_slli_epi64(c, 7)));
    const uint64_t m64 =
        static_cast<uint64_t>(am) | (static_cast<uint64_t>(bm) << 32);
    const uint32_t b =
        static_cast<uint32_t>(_pext_u64(m64, 0x1010101010101010ull));
    // Even dwords of a|c are the 8 types. SHUFPS 0x88 gathers them per
    // 128-bit half as [t0 t1 t4 t5 | t2 t3 t6 t7]; the qword permute
    // restores lane order.
    const __m256i tmix = _mm256_castps_si256(_mm256_shuffle_ps(
        _mm256_castsi256_ps(a), _mm256_castsi256_ps(c), 0x88));
    const __m256i types = _mm256_permute4x64_epi64(tmix, 0xD8);
    // In-block pair check: close lane k must equal its open's type.
    const __m256i msrc = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(tb.match_src[b])));
    const __m256i shuf = _mm256_permutevar8x32_epi32(types, msrc);
    const auto eq = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(shuf, types))));
    badm |= tb.inblock_close[b] & ~eq;
    // codes = (type << 1) | direction, slots = h + per-lane offset.
    const __m256i openb = _mm256_and_si256(
        _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int32_t>(b)),
                          lane_idx),
        ones);
    const __m256i codes =
        _mm256_or_si256(_mm256_slli_epi32(types, 1), openb);
    const __m128i row = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(tb.slot_off[b]));
    const __m256i slots = _mm256_add_epi32(
        _mm256_cvtepi8_epi32(row),
        _mm256_set1_epi32(static_cast<int32_t>(h)));
    // Left-pack the external lanes; the full-width store clobbers up to
    // 8 don't-care lanes past cnt (staging arrays have n + 8 room).
    const __m256i perm = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(tb.ext_perm[b])));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(codes_stage + cnt),
                        _mm256_permutevar8x32_epi32(codes, perm));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(slots_stage + cnt),
                        _mm256_permutevar8x32_epi32(slots, perm));
    cnt += tb.ext_count[b];
    const int64_t m = h + tb.minp[b];
    mp = m < mp ? m : mp;
    h += tb.net[b];
  }
  *info = {h, mp, mp};
  *bad |= badm;
  return cnt;
}

// Second-level cancellation over the staged stream (kernels.h has the
// contract). The staged entries are already codes + slots, so a block of 8
// is two plain 32-byte loads and the direction byte is one movemask of the
// code LSBs — denser than the Paren form the first pass chews through.
size_t ReduceStageAvx2(int32_t* codes, int32_t* slots, size_t cnt,
                       uint32_t* bad) {
  const Tables& tb = GetTables();
  size_t out = 0;
  uint32_t badm = 0;
  size_t i = 0;
  for (; i + 8 <= cnt; i += 8) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slots + i));
    const auto b = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_slli_epi32(c, 31))));
    const __m256i types = _mm256_srli_epi32(c, 1);
    const __m256i msrc = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(tb.match_src[b])));
    const __m256i shuf = _mm256_permutevar8x32_epi32(types, msrc);
    const auto eq = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(shuf, types))));
    badm |= tb.inblock_close[b] & ~eq;
    // In-place left-pack: out <= i always, and the full-width store tops
    // out at out + 7 <= i + 7, inside the block just loaded.
    const __m256i perm = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(tb.ext_perm[b])));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(codes + out),
                        _mm256_permutevar8x32_epi32(c, perm));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(slots + out),
                        _mm256_permutevar8x32_epi32(s, perm));
    out += tb.ext_count[b];
  }
  if (out != i && i < cnt) {
    std::memmove(codes + out, codes + i, (cnt - i) * sizeof(int32_t));
    std::memmove(slots + out, slots + i, (cnt - i) * sizeof(int32_t));
  }
  out += cnt - i;
  *bad |= badm;
  return out;
}

size_t FindByteAvx2(const char* s, size_t n, char c) {
  const __m256i needle = _mm256_set1_epi8(c);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + i));
    const auto hits = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(chunk, needle)));
    if (hits != 0) {
      return i + static_cast<size_t>(__builtin_ctz(hits));
    }
  }
  for (; i < n; ++i) {
    if (s[i] == c) return i;
  }
  return n;
}

// Mapped-character mask of 32 bytes via nibble set-membership (bit i of
// the result = s[i] is in the alphabet). Characters >= 0x80 index past the
// hi table's populated half and come out unmapped, matching char_map.
inline uint32_t MappedMask32(const char* s, const __m256i lo_tbl,
                             const __m256i hi_tbl) {
  const __m256i chunk =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
  const __m256i nib_mask = _mm256_set1_epi8(0x0F);
  const __m256i lonib = _mm256_and_si256(chunk, nib_mask);
  const __m256i hinib = _mm256_and_si256(
      _mm256_srli_epi16(chunk, 4), nib_mask);
  const __m256i hit =
      _mm256_and_si256(_mm256_shuffle_epi8(lo_tbl, lonib),
                       _mm256_shuffle_epi8(hi_tbl, hinib));
  const auto zero = static_cast<uint32_t>(_mm256_movemask_epi8(
      _mm256_cmpeq_epi8(hit, _mm256_setzero_si256())));
  return ~zero;
}

size_t TokenizeAvx2(const char* s, size_t n, const int32_t* char_map,
                    const ByteSet* set, Paren* out) {
  if (set == nullptr || !set->usable) {
    return TokenizeScalar(s, n, char_map, set, out);
  }
  const __m256i lo_tbl = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(set->lo)));
  const __m256i hi_tbl = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(set->hi)));
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const uint32_t mapped = MappedMask32(s + i, lo_tbl, hi_tbl);
    if (mapped != 0xFFFFFFFFu) break;
    for (size_t j = 0; j < 32; ++j) {
      const int32_t entry = char_map[static_cast<unsigned char>(s[i + j])];
      out[i + j] = Paren{entry >> 1, (entry & 1) != 0};
    }
  }
  const size_t k = TokenizeScalar(s + i, n - i, char_map, set, out + i);
  return i + k;
}

size_t TokenizeLenientAvx2(const char* s, size_t n, const int32_t* char_map,
                           const ByteSet* set, Paren* out) {
  if (set == nullptr || !set->usable) {
    return TokenizeLenientScalar(s, n, char_map, set, out);
  }
  const __m256i lo_tbl = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(set->lo)));
  const __m256i hi_tbl = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(set->hi)));
  size_t written = 0;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    uint32_t mapped = MappedMask32(s + i, lo_tbl, hi_tbl);
    if (mapped == 0) continue;  // prose block: nothing to extract
    if (mapped == 0xFFFFFFFFu) {
      for (size_t j = 0; j < 32; ++j) {
        const int32_t entry = char_map[static_cast<unsigned char>(s[i + j])];
        out[written++] = Paren{entry >> 1, (entry & 1) != 0};
      }
      continue;
    }
    while (mapped != 0) {
      const auto j = static_cast<size_t>(__builtin_ctz(mapped));
      mapped &= mapped - 1;
      const int32_t entry = char_map[static_cast<unsigned char>(s[i + j])];
      out[written++] = Paren{entry >> 1, (entry & 1) != 0};
    }
  }
  written += TokenizeLenientScalar(s + i, n - i, char_map, set, out + written);
  return written;
}

inline __m256i Min64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}
inline __m256i Max64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b));
}

void WaveCombineAvx2(const int64_t* prev, int64_t span, int64_t a_len,
                     int64_t b_len, bool subs, int64_t unreached,
                     int64_t* cand) {
  const int64_t stride = 2 * span + 1;
  const __m256i zero = _mm256_setzero_si256();
  int64_t idx = 0;
  for (; idx + 4 <= stride; idx += 4) {
    // k = idx + lane - span, per lane.
    const __m256i k = _mm256_add_epi64(_mm256_set1_epi64x(idx - span),
                                       _mm256_setr_epi64x(0, 1, 2, 3));
    // Carry-over (unreached sorts below every real frontier row).
    __m256i best =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + idx));
    const auto consider = [&](int64_t diag_delta, int64_t row_delta) {
      __m256i src = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(prev + idx + diag_delta));
      // r <= a_len and c <= b_len clamps; an unreached source (-2) stays
      // negative through the mins and fails the src >= 0 test below.
      src = Min64(src, _mm256_set1_epi64x(a_len - row_delta));
      src = Min64(src,
                  _mm256_sub_epi64(_mm256_set1_epi64x(b_len - row_delta), k));
      const __m256i src_col = _mm256_add_epi64(
          _mm256_add_epi64(src, k), _mm256_set1_epi64x(diag_delta));
      const __m256i r =
          _mm256_add_epi64(src, _mm256_set1_epi64x(row_delta));
      const __m256i r_col = _mm256_add_epi64(r, k);
      // valid = src >= 0 && src + k + diag_delta >= 0 && r + k >= 0
      __m256i invalid = _mm256_cmpgt_epi64(zero, src);
      invalid = _mm256_or_si256(invalid, _mm256_cmpgt_epi64(zero, src_col));
      invalid = _mm256_or_si256(invalid, _mm256_cmpgt_epi64(zero, r_col));
      const __m256i candidate =
          _mm256_blendv_epi8(r, _mm256_set1_epi64x(unreached), invalid);
      best = Max64(best, candidate);
    };
    consider(+1, +1);
    consider(-1, 0);
    if (subs) {
      consider(0, +1);
      consider(+2, +2);
      consider(-2, 0);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cand + idx), best);
  }
  for (; idx < stride; ++idx) {
    const int64_t k = idx - span;
    int64_t best = prev[idx];  // carry; unreached sorts below frontiers
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

}  // namespace

const KernelOps& Avx2Ops() {
  static const KernelOps ops = {
      &Pass1Avx2,          &SummarizeAvx2,
      &GreedyAdvanceAvx2,  &FindByteAvx2,
      &TokenizeAvx2,       &TokenizeLenientAvx2,
      &WaveCombineAvx2,    &BalanceBlocksAvx2,
      &ReduceStageAvx2,
  };
  return ops;
}

}  // namespace dyck::simd::internal

#endif  // DYCKFIX_SIMD_HAVE_AVX2
