// NEON backend (aarch64). De-interleaving structure loads extract the
// is_open words of 8 Parens; the rest of each kernel shares the templated
// cores. Tokenization and the wave combine use the scalar implementations.
//
// Note: this TU is compile-gated to aarch64 builds and exercised by the
// same differential suite (tests/simd_test.cc) as the x86 backends.

#if defined(DYCKFIX_SIMD_HAVE_NEON)

#include <arm_neon.h>

#include "src/simd/span_core.h"

namespace dyck::simd::internal {
namespace {

// Direction bits of p[0..8). vld2q deinterleaves {type, dir+padding} word
// pairs; bit 0 of each dir word is is_open (padding bytes occupy bits
// 8..31 and are masked off). The narrowed 0/1 bytes pack into one byte
// with the multiply-gather identity.
inline uint32_t DirByte8(const Paren* p) {
  const uint32x4x2_t a =
      vld2q_u32(reinterpret_cast<const uint32_t*>(p));
  const uint32x4x2_t b =
      vld2q_u32(reinterpret_cast<const uint32_t*>(p + 4));
  const uint32x4_t one = vdupq_n_u32(1);
  const uint16x4_t n0 = vmovn_u32(vandq_u32(a.val[1], one));
  const uint16x4_t n1 = vmovn_u32(vandq_u32(b.val[1], one));
  const uint8x8_t bytes = vmovn_u16(vcombine_u16(n0, n1));
  const uint64_t x = vget_lane_u64(vreinterpret_u64_u8(bytes), 0);
  return static_cast<uint32_t>((x * 0x0102040810204080ull) >> 56);
}

// slots[0..8) = base + row[0..8) via int8 -> int32 widening.
inline void StoreRow(int32_t* dst, const int8_t* row, int32_t base) {
  const int16x8_t w16 = vmovl_s8(vld1_s8(row));
  const int32x4_t vbase = vdupq_n_s32(base);
  vst1q_s32(dst, vaddq_s32(vmovl_s16(vget_low_s16(w16)), vbase));
  vst1q_s32(dst + 4, vaddq_s32(vmovl_s16(vget_high_s16(w16)), vbase));
}

SpanHeight SummarizeNeon(const Paren* p, size_t n) {
  return SummarizeCore(p, n, [](const Paren* q) { return DirByte8(q); });
}

Pass1Info Pass1Neon(const Paren* p, size_t n, int32_t* slots) {
  return Pass1Core(p, n, slots, [](const Paren* q) { return DirByte8(q); },
                   [](int32_t* dst, const int8_t* row, int32_t base) {
                     StoreRow(dst, row, base);
                   });
}

int64_t GreedyAdvanceNeon(const Paren* data, int64_t n, int64_t i,
                          bool reversed_flipped,
                          std::vector<GreedyEntry>* stack) {
  return GreedyAdvanceCore(data, n, i, reversed_flipped, *stack,
                           [](const Paren* q) { return DirByte8(q); });
}

}  // namespace

const KernelOps& NeonOps() {
  static const KernelOps ops = {
      &Pass1Neon,          &SummarizeNeon,
      &GreedyAdvanceNeon,  &FindByteScalar,
      &TokenizeScalar,     &TokenizeLenientScalar,
      &WaveCombineScalar,
      nullptr,  // balance_blocks / reduce_stage: the staged kernel relies
      nullptr,  // on a cross-lane permute NEON lacks at dword width.
  };
  return ops;
}

}  // namespace dyck::simd::internal

#endif  // DYCKFIX_SIMD_HAVE_NEON
