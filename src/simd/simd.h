// Portable fixed-width vector kernel layer.
//
// Every byte-at-a-time scan in the hot pipeline path — tokenization,
// balance checking, height summarization, matched-pair reduction, the
// greedy counting scan, and the LMS wave combine — bottoms out in a small
// set of span kernels declared here. Each kernel has one scalar reference
// implementation plus optional SSE2/AVX2/NEON implementations compiled
// into their own translation units with per-file target flags; a runtime
// dispatch table picks the best backend the CPU supports (overridable via
// the DYCKFIX_SIMD environment variable or ForceBackend()).
//
// Design (DESIGN.md §5.14 has the full story):
//   - A Paren is 8 bytes ({int32 type, bool is_open} + padding), so eight
//     symbols fit in two 256-bit loads. The direction bits of 8 symbols
//     are extracted into one "dirbyte", which indexes 256-entry tables of
//     per-block net height, min-prefix, and per-symbol stack-slot offsets
//     (the height prefix sum is a monoid, so 8-symbol blocks compose
//     exactly like ChunkSummary heights do in ReductionMerger).
//   - Stack-shaped scans (balance, reduce, greedy) become two passes:
//     pass 1 computes each symbol's stack slot (= height) vectorized;
//     pass 2 replays the slots through a flat array with no unpredictable
//     branches. Reduce and greedy run pass 2 optimistically in groups of
//     eight with a register journal and roll back to an exact scalar
//     replay on the rare conflicting group.
//   - Run-heavy inputs (long open/close runs, e.g. deeply nested docs) are
//     branch-predictor friendly, so the slot path loses to plain scalar
//     there; drivers probe the direction-alternation rate on a sample and
//     fall back to scalar scans when runs dominate. The fallback changes
//     timing only — every backend is pinned byte-identical to the scalar
//     reference by tests/simd_test.cc.
//
// Thread safety: kernels are pure or use thread_local scratch; the active
// backend is a process-global atomic. ForceBackend()/ForceVectorPathForTest()
// are test/bench hooks and must not race with concurrent repairs.

#ifndef DYCKFIX_SRC_SIMD_SIMD_H_
#define DYCKFIX_SRC_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/alphabet/paren.h"

namespace dyck::simd {

// Keep names/order in sync with BackendName() and kAllBackends.
enum class Backend : int32_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

inline constexpr Backend kAllBackends[] = {Backend::kScalar, Backend::kSse2,
                                           Backend::kAvx2, Backend::kNeon};

/// Lower-case stable name ("scalar", "sse2", "avx2", "neon") — the value
/// accepted by DYCKFIX_SIMD and reported by telemetry.
const char* BackendName(Backend backend);

/// Inverse of BackendName. False on unknown names (no partial matches).
bool ParseBackendName(std::string_view name, Backend* out);

/// True when `backend` is compiled into this binary and usable on this CPU.
bool BackendAvailable(Backend backend);

/// Every available backend, scalar first.
std::vector<Backend> AvailableBackends();

/// The backend kernels dispatch to: ForceBackend() override if set, else a
/// valid DYCKFIX_SIMD value, else the best available.
Backend ActiveBackend();

/// Validates DYCKFIX_SIMD without changing state. Returns false and fills
/// `error` when the variable names an unknown or unavailable backend (the
/// library then ignores it and auto-selects; front ends call this at
/// startup to fail loudly instead of running silently on scalar).
bool CheckEnv(std::string* error);

/// Test/bench hook: pin dispatch to `backend`. False if unavailable.
bool ForceBackend(Backend backend);
/// Undoes ForceBackend (back to env/auto selection).
void ClearForcedBackend();

/// Test hook: when true, drivers skip the size thresholds and the
/// run-heaviness probe so differential tests exercise the vector code
/// paths on arbitrarily small and arbitrarily shaped inputs.
void ForceVectorPathForTest(bool force);

// ---------------------------------------------------------------------------
// Span kernels. All are byte-identical to their scalar reference on every
// backend; drivers may route small spans to the scalar path internally.

/// Height summary of a raw span: net height change and minimum prefix
/// height (both 0 for the empty span; min_prefix <= 0). The same monoid as
/// profile/height.h's HeightSummary.
struct SpanHeight {
  int64_t net = 0;
  int64_t min_prefix = 0;
};

SpanHeight Summarize(const Paren* p, size_t n);

/// Exactly IsBalanced(span): every close matches the nearest open and the
/// final height is zero.
bool IsBalancedSpan(const Paren* p, size_t n);

/// Exactly the Reduce/SummarizeChunk stack pass: `kept` (cleared first)
/// receives the surviving positions in ascending order; `height`
/// (optional) receives the span's height summary.
void ReduceSpan(const Paren* p, size_t n, std::vector<int64_t>* kept,
                SpanHeight* height);

/// Index of the first `c` in s[0..n), or n. (The scalar backend defers to
/// memchr; vector backends use explicit compare loops.)
size_t FindByte(const char* s, size_t n, char c);

// ---------------------------------------------------------------------------
// Tokenization kernels.

/// Nibble-decomposed membership tables for the set of mapped characters
/// (char_map[c] >= 0). `usable` is false when any mapped character is
/// >= 0x80 (the PSHUFB trick can only index 7-bit chars); kernels then run
/// their scalar paths. Plain POD so it can live inside ParenAlphabet.
struct ByteSet {
  alignas(16) uint8_t lo[16] = {};
  alignas(16) uint8_t hi[16] = {};
  bool usable = false;
};

/// Builds the membership tables from a 256-entry char map (-1 = unmapped).
void BuildByteSet(const int32_t* char_map, ByteSet* out);

/// Strict tokenizer: converts s[0..k) into out[0..k) where k is the index
/// of the first unmapped character (k == n when fully mapped). Returns k.
/// Mirrors ParenAlphabet::Parse's per-char decode byte for byte.
size_t Tokenize(const char* s, size_t n, const int32_t* char_map,
                const ByteSet& set, Paren* out);

/// Lenient tokenizer: converts every mapped character of s[0..n), skipping
/// the rest. Returns the number of Parens written (out needs room for n).
size_t TokenizeLenient(const char* s, size_t n, const int32_t* char_map,
                       const ByteSet& set, Paren* out);

// ---------------------------------------------------------------------------
// LMS wave kernel.

/// Computes the pre-Slide candidate frontier row of wave h from the row of
/// wave h-1: for every diagonal index i in [0, 2*span], cand[i] is the
/// best row reachable by carry-over or one edit move (with the boundary
/// clamps of lms/wave.cc), or `unreached` when no move lands there.
/// `scratch` holds the padded copy of `prev` between calls.
void WaveCombineRow(const int64_t* prev, int64_t span, int64_t a_len,
                    int64_t b_len, bool substitutions, int64_t unreached,
                    int64_t* cand, std::vector<int64_t>* scratch);

}  // namespace dyck::simd

#endif  // DYCKFIX_SRC_SIMD_SIMD_H_
