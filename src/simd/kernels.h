// Internal kernel plumbing shared by the backend translation units and the
// dispatch layer. Not part of the public surface — include src/simd/simd.h
// (or src/simd/greedy_kernel.h) from outside src/simd/.

#ifndef DYCKFIX_SRC_SIMD_KERNELS_H_
#define DYCKFIX_SRC_SIMD_KERNELS_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/alphabet/paren.h"
#include "src/baseline/greedy.h"
#include "src/simd/simd.h"

namespace dyck::simd::internal {

// ---------------------------------------------------------------------------
// Dirbyte tables. The direction bits (is_open) of 8 consecutive symbols,
// LSB = first symbol, index precomputed per-block quantities:
//   slot_off[b][k]  stack slot of symbol k relative to the block-entry
//                   height: h_after(k) - is_open(k). An open's slot is the
//                   depth it is pushed at; a close's slot is the depth of
//                   the entry it pops.
//   net[b]          height change across the block.
//   minp[b]         min over k of h_after(k) (<= 0).
//   smin[b]         min over k of slot_off[b][k] (<= 0).
//   rev8[b]         b with its 8 bits reversed (for reversed-view scans).
struct Tables {
  alignas(64) int8_t slot_off[256][8];
  alignas(64) int8_t net[256];
  alignas(64) int8_t minp[256];
  alignas(64) int8_t smin[256];
  alignas(64) uint8_t rev8[256];
  // In-block matching (the staged balance kernel): cancelling adjacent
  // open/close direction pairs within the block matches each close to an
  // open — and any such adjacency-matched pair is also matched in the
  // global parse, independent of what surrounds the block.
  //   match_src[b][k]   lane of the open that close-lane k pops when the
  //                     pair completes inside the block; 0 (ignored) when
  //                     k is an open or pops outside the block.
  //   inblock_close[b]  bitmask of the close lanes covered by match_src.
  //   ext_perm[b]       dword left-pack permutation: the ext_count[b]
  //                     external (not in-block-matched) lanes first, in
  //                     ascending order; trailing lanes are don't-cares.
  // Byte rows (expanded with cvtepi8_epi32 at use) keep the combined
  // footprint small enough to stay L1-resident next to the streamed data.
  alignas(64) int8_t match_src[256][8];
  alignas(64) int8_t ext_perm[256][8];
  alignas(64) uint8_t inblock_close[256];
  alignas(64) uint8_t ext_count[256];
};

const Tables& GetTables();

// Loads one Paren as a raw 64-bit word. Bits [0,32) are the type, bit 32
// is is_open; bits [40,64) are padding and must never be interpreted.
inline uint64_t LoadWord(const Paren* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

inline int32_t WordType(uint64_t w) {
  return static_cast<int32_t>(static_cast<uint32_t>(w));
}
inline uint32_t WordOpen(uint64_t w) {
  return static_cast<uint32_t>(w >> 32) & 1u;
}
// (type << 1) | is_open — the same code ParenAlphabet's char map stores.
inline int32_t WordCode(uint64_t w) {
  return static_cast<int32_t>((static_cast<uint32_t>(w) << 1) | WordOpen(w));
}

// Scalar dirbyte: direction bits of p[0..8).
inline uint32_t DirByte8Scalar(const Paren* p) {
  uint32_t b = 0;
  for (int k = 0; k < 8; ++k) b |= WordOpen(LoadWord(p + k)) << k;
  return b;
}

// ---------------------------------------------------------------------------
// Per-backend kernel table. Entries may point at the scalar implementation
// when a backend has no profitable vector variant (documented per backend).

struct Pass1Info {
  int64_t h_end = 0;      // net height across the span
  int64_t slot_min = 0;   // min slot (<= 0); lower bound for slot arrays
  int64_t min_prefix = 0; // min prefix height (<= 0)
};

struct KernelOps {
  // Fills slots[0..n) with each symbol's absolute stack slot (entry height
  // h == 0) and returns {h_end, slot_min, min_prefix}. slots has room for
  // n + 8.
  Pass1Info (*pass1)(const Paren* p, size_t n, int32_t* slots);
  SpanHeight (*summarize)(const Paren* p, size_t n);
  // Greedy fast-advance; see greedy_kernel.h for the contract.
  int64_t (*greedy_advance)(const Paren* data, int64_t n, int64_t i,
                            bool reversed_flipped,
                            std::vector<GreedyEntry>* stack);
  size_t (*find_byte)(const char* s, size_t n, char c);
  size_t (*tokenize)(const char* s, size_t n, const int32_t* char_map,
                     const ByteSet* set, Paren* out);
  size_t (*tokenize_lenient)(const char* s, size_t n, const int32_t* char_map,
                             const ByteSet* set, Paren* out);
  // prev is padded: prev[-2..stride+1] are readable, pads = unreached.
  void (*wave_combine)(const int64_t* prev, int64_t span, int64_t a_len,
                       int64_t b_len, bool subs, int64_t unreached,
                       int64_t* cand);
  // Optional staged balance kernel; nullptr when the backend has none
  // (the driver then runs its height-tracked array pass). Processes the
  // first floor(n/8) * 8 symbols: verifies type equality of every
  // in-block matched pair (OR-ing close-lane failure bits into *bad),
  // left-packs the external symbols' codes and absolute slots into the
  // staging arrays (each with room for n + 8), and returns the staged
  // count. info->h_end and info->min_prefix describe the processed
  // prefix (slot_min mirrors min_prefix) — the driver's shape check,
  // which it must apply before replaying the staged slots (min_prefix
  // >= 0 and a zero final height bound every staged slot to [0, n/2)).
  size_t (*balance_blocks)(const Paren* p, size_t n, int32_t* codes_stage,
                           int32_t* slots_stage, Pass1Info* info,
                           uint32_t* bad);
  // Optional follow-up to balance_blocks (nullptr when absent). The staged
  // stream is itself a parenthesis stream in original order, so the same
  // in-block cancellation applies to it verbatim: verifies every pair
  // matched within a block of 8 staged entries (OR-ing failures into
  // *bad), left-packs the survivors in place, and returns the new count.
  // In-place is safe: the write cursor never passes the read cursor and
  // the full-width stores stay within the current block. The driver calls
  // this repeatedly while the stream keeps shrinking, then replays only
  // what remains.
  size_t (*reduce_stage)(int32_t* codes, int32_t* slots, size_t cnt,
                         uint32_t* bad);
};

// Scalar reference implementations (always compiled; other backends reuse
// them for kernels they do not vectorize).
Pass1Info Pass1Scalar(const Paren* p, size_t n, int32_t* slots);
SpanHeight SummarizeScalar(const Paren* p, size_t n);
int64_t GreedyAdvanceScalar(const Paren* data, int64_t n, int64_t i,
                            bool reversed_flipped,
                            std::vector<GreedyEntry>* stack);
size_t FindByteScalar(const char* s, size_t n, char c);
size_t TokenizeScalar(const char* s, size_t n, const int32_t* char_map,
                      const ByteSet* set, Paren* out);
size_t TokenizeLenientScalar(const char* s, size_t n, const int32_t* char_map,
                             const ByteSet* set, Paren* out);
void WaveCombineScalar(const int64_t* prev, int64_t span, int64_t a_len,
                       int64_t b_len, bool subs, int64_t unreached,
                       int64_t* cand);

const KernelOps& ScalarOps();
#if defined(__x86_64__) || defined(__i386__)
#if defined(DYCKFIX_SIMD_HAVE_SSE2)
const KernelOps& Sse2Ops();
#endif
#if defined(DYCKFIX_SIMD_HAVE_AVX2)
const KernelOps& Avx2Ops();
#endif
#endif
#if defined(DYCKFIX_SIMD_HAVE_NEON)
const KernelOps& NeonOps();
#endif

// Active table after backend selection (dispatch.cc).
const KernelOps& ActiveOps();
// True when drivers should bypass thresholds and shape probes (test hook).
bool VectorPathForced();

}  // namespace dyck::simd::internal

#endif  // DYCKFIX_SRC_SIMD_KERNELS_H_
