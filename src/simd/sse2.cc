// SSE2 backend (x86 baseline, no SSSE3/SSE4/BMI2 assumed). Vectorizes the
// dirbyte extraction and slot-row widening; tokenization and the wave
// combine fall back to the scalar implementations (they need PSHUFB /
// 64-bit compares that SSE2 lacks).

#if defined(DYCKFIX_SIMD_HAVE_SSE2)

#include <emmintrin.h>

#include "src/simd/span_core.h"

namespace dyck::simd::internal {
namespace {

// Direction bits of p[0..8): four 16-byte loads cover 8 Parens; MOVMSKB
// after a lane shift puts each is_open bit at positions 4 + 8k of a 64-bit
// word, and the classic multiply-gather packs those into one byte (the
// bitboard file-to-rank identity; carries cannot reach bits 56..63).
inline uint32_t DirByte8(const Paren* p) {
  const auto mask16 = [](const Paren* q) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
    return static_cast<uint64_t>(
        static_cast<uint32_t>(_mm_movemask_epi8(_mm_slli_epi64(v, 7))) &
        0xFFFFu);
  };
  const uint64_t m64 = mask16(p) | (mask16(p + 2) << 16) |
                       (mask16(p + 4) << 32) | (mask16(p + 6) << 48);
  const uint64_t bits = (m64 >> 4) & 0x0101010101010101ull;
  return static_cast<uint32_t>((bits * 0x0102040810204080ull) >> 56);
}

// slots[0..8) = base + row[0..8), widening int8 -> int32 with SSE2
// unpack/shift sign extension.
inline void StoreRow(int32_t* dst, const int8_t* row, int32_t base) {
  const __m128i b8 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row));
  const __m128i w16 = _mm_srai_epi16(_mm_unpacklo_epi8(b8, b8), 8);
  const __m128i lo =
      _mm_srai_epi32(_mm_unpacklo_epi16(w16, w16), 16);
  const __m128i hi =
      _mm_srai_epi32(_mm_unpackhi_epi16(w16, w16), 16);
  const __m128i vbase = _mm_set1_epi32(base);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                   _mm_add_epi32(lo, vbase));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 4),
                   _mm_add_epi32(hi, vbase));
}

SpanHeight SummarizeSse2(const Paren* p, size_t n) {
  return SummarizeCore(p, n, [](const Paren* q) { return DirByte8(q); });
}

Pass1Info Pass1Sse2(const Paren* p, size_t n, int32_t* slots) {
  return Pass1Core(p, n, slots, [](const Paren* q) { return DirByte8(q); },
                   [](int32_t* dst, const int8_t* row, int32_t base) {
                     StoreRow(dst, row, base);
                   });
}

int64_t GreedyAdvanceSse2(const Paren* data, int64_t n, int64_t i,
                          bool reversed_flipped,
                          std::vector<GreedyEntry>* stack) {
  return GreedyAdvanceCore(data, n, i, reversed_flipped, *stack,
                           [](const Paren* q) { return DirByte8(q); });
}

size_t FindByteSse2(const char* s, size_t n, char c) {
  const __m128i needle = _mm_set1_epi8(c);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i));
    const auto hits = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(chunk, needle)));
    if (hits != 0) {
      return i + static_cast<size_t>(__builtin_ctz(hits));
    }
  }
  for (; i < n; ++i) {
    if (s[i] == c) return i;
  }
  return n;
}

}  // namespace

const KernelOps& Sse2Ops() {
  static const KernelOps ops = {
      &Pass1Sse2,          &SummarizeSse2,
      &GreedyAdvanceSse2,  &FindByteSse2,
      &TokenizeScalar,     &TokenizeLenientScalar,
      &WaveCombineScalar,
      nullptr,  // balance_blocks: needs VPERMD (AVX2) for the table-driven
      nullptr,  // in-register pair check; SSE2 keeps the height-tracked pass.
  };
  return ops;
}

}  // namespace dyck::simd::internal

#endif  // DYCKFIX_SIMD_HAVE_SSE2
