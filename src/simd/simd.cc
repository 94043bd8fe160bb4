// Public kernel drivers: adaptive routing between the plain scalar scans
// and the two-pass vector kernels, plus the backend-independent pass-2
// replays (balance's type-only array pass and reduce's journaled stack
// replay) that consume the vectorized slot arrays.

#include <algorithm>
#include <cstring>

#include "src/simd/greedy_kernel.h"
#include "src/simd/kernels.h"
#include "src/simd/simd.h"

namespace dyck::simd {

namespace {

using internal::ActiveOps;
using internal::KernelOps;
using internal::LoadWord;
using internal::Pass1Info;
using internal::VectorPathForced;
using internal::WordCode;
using internal::WordOpen;
using internal::WordType;

// Size floors below which the two-pass structure cannot pay for itself.
// The reduce floor is the largest: its pass 2 re-touches every slot, so
// the win over the (branch-predictable on repeated inputs) plain loop
// only materializes on spans that exceed the predictor's memory.
constexpr size_t kMinVectorSummarize = 64;
constexpr size_t kMinVectorBalance = 512;
constexpr size_t kMinVectorReduce = 8192;
constexpr int64_t kMinVectorGreedy = 512;

// Reusable per-thread buffers for the slot arrays and pass-2 state. Sized
// to the largest span seen; never shrunk.
struct Scratch {
  std::vector<int32_t> slots;  // pass-1 output, capacity n + 8
  std::vector<int32_t> type_at;  // balance pass 2: type by stack slot
  std::vector<uint64_t> entries;  // reduce pass 2: code | pos<<32 by slot
  std::vector<int32_t> codes;  // staged balance: external-symbol codes
};

Scratch& TlsScratch() {
  static thread_local Scratch scratch;
  return scratch;
}

// Direction-alternation probe: fraction of adjacent pairs that change
// direction, over ~1k symbols sampled across the span. Run-heavy inputs
// (long open/close runs — deeply nested documents) parse with near-perfect
// branch prediction, where the slot path's extra pass loses to the plain
// scan; route those to scalar.
bool RunHeavy(const Paren* p, size_t n) {
  constexpr size_t kProbes = 128;
  constexpr size_t kProbeLen = 9;  // 8 adjacent pairs per probe
  size_t transitions = 0;
  size_t samples = 0;
  if (n <= kProbes * kProbeLen) {
    for (size_t i = 1; i < n; ++i) {
      transitions += p[i - 1].is_open != p[i].is_open;
    }
    samples = n - 1;
  } else {
    const size_t step = n / kProbes;
    for (size_t b = 0; b + kProbeLen <= n; b += step) {
      for (size_t j = 1; j < kProbeLen; ++j) {
        transitions += p[b + j - 1].is_open != p[b + j].is_open;
      }
      samples += kProbeLen - 1;
    }
  }
  // Alternation under 25% => runs dominate.
  return transitions * 4 < samples;
}

bool IsBalancedScalar(const Paren* p, size_t n) {
  Scratch& sc = TlsScratch();
  std::vector<int32_t>& stack = sc.type_at;  // reused as a plain type stack
  stack.clear();
  for (size_t i = 0; i < n; ++i) {
    const Paren& cur = p[i];
    if (cur.is_open) {
      stack.push_back(cur.type);
    } else if (!stack.empty() && stack.back() == cur.type) {
      stack.pop_back();
    } else {
      return false;
    }
  }
  return stack.empty();
}

void ReduceScalar(const Paren* p, size_t n, std::vector<int64_t>* kept,
                  SpanHeight* height) {
  int64_t h = 0;
  int64_t mp = 0;
  for (int64_t i = 0; i < static_cast<int64_t>(n); ++i) {
    const Paren& cur = p[i];
    h += cur.is_open ? +1 : -1;
    mp = h < mp ? h : mp;
    if (!cur.is_open && !kept->empty() &&
        p[static_cast<size_t>(kept->back())].Matches(cur)) {
      kept->pop_back();
    } else {
      kept->push_back(i);
    }
  }
  if (height != nullptr) *height = {h, mp};
}

}  // namespace

SpanHeight Summarize(const Paren* p, size_t n) {
  if (!VectorPathForced() &&
      (n < kMinVectorSummarize || ActiveBackend() == Backend::kScalar)) {
    return internal::SummarizeScalar(p, n);
  }
  return ActiveOps().summarize(p, n);
}

bool IsBalancedSpan(const Paren* p, size_t n) {
  if (!VectorPathForced() &&
      (n < kMinVectorBalance || ActiveBackend() == Backend::kScalar ||
       RunHeavy(p, n))) {
    return IsBalancedScalar(p, n);
  }
  const KernelOps& ops = ActiveOps();
  Scratch& sc = TlsScratch();
  if (sc.type_at.size() < n / 2 + 2) sc.type_at.resize(n / 2 + 2);
  int32_t* type_at = sc.type_at.data();

  if (ops.balance_blocks != nullptr) {
    // Staged pass: the kernel checks in-block pairs in registers, tracks
    // the height shape, and stages only the block-external symbols; the
    // tail joins the staging arrays verbatim. The replay then needs one
    // memory touch per staged symbol: opens write their type at their
    // slot, closes read it — a close never needs to write, because the
    // next access to its slot (if any) is always an open's write.
    if (sc.slots.size() < n + 8) sc.slots.resize(n + 8);
    if (sc.codes.size() < n + 8) sc.codes.resize(n + 8);
    int32_t* codes = sc.codes.data();
    int32_t* slots = sc.slots.data();
    uint32_t block_bad = 0;
    Pass1Info p1;
    size_t cnt = ops.balance_blocks(p, n, codes, slots, &p1, &block_bad);
    int64_t h = p1.h_end;
    int64_t mp = p1.min_prefix;
    for (size_t i = n & ~size_t{7}; i < n; ++i) {
      const uint64_t w = LoadWord(p + i);
      const int64_t o = WordOpen(w);
      codes[cnt] = WordCode(w);
      slots[cnt] = static_cast<int32_t>(h - 1 + o);
      ++cnt;
      h += 2 * o - 1;
      mp = h < mp ? h : mp;
    }
    // Shape check: a negative dip (close with no open to pop) or leftover
    // height is an imbalance regardless of types — and its absence bounds
    // every staged slot to [0, n/2), making the replay's indexing safe.
    if (mp < 0 || h != 0) return false;
    if (block_bad != 0) return false;
    // Second-level cancellation: the staged stream is a parenthesis
    // stream in original order, so the same in-block matching shrinks it
    // again — geometrically on typical inputs. Stop when a pass stops
    // paying for itself (< 1/8 shrink: deeply nested shapes cancel only
    // around their turning points).
    if (ops.reduce_stage != nullptr) {
      while (cnt >= 64) {
        const size_t before = cnt;
        cnt = ops.reduce_stage(codes, slots, cnt, &block_bad);
        if (before - cnt < before / 8) break;
      }
      if (block_bad != 0) return false;
    }
    // Branchless replay (mask selects, no data-dependent branches): the
    // non-taken memory op of each entry is routed to a dummy slot above
    // the live range.
    const size_t dummy = n / 2 + 1;
    uint32_t bad = 0;
    for (size_t k = 0; k < cnt; ++k) {
      const auto c = static_cast<uint32_t>(codes[k]);
      const uint32_t o = c & 1;
      const auto t = static_cast<int32_t>(c >> 1);
      const auto s = static_cast<size_t>(static_cast<uint32_t>(slots[k]));
      const size_t open_mask = size_t{0} - static_cast<size_t>(o);
      const size_t widx = (s & open_mask) | (dummy & ~open_mask);
      const size_t ridx = (s & ~open_mask) | (dummy & open_mask);
      const int32_t prev = type_at[ridx];
      type_at[widx] = t;
      bad |= ~o & static_cast<uint32_t>(prev != t);
    }
    return (bad & 1u) == 0;
  }

  // Shape check first: one store-free vector pass rejects any negative dip
  // or leftover height. Its min_prefix >= 0 guarantee also bounds pass 2's
  // running height to [0, n/2], so the slot can be recomputed on the fly —
  // cheaper than materializing pass 1's slot array only to stream it
  // straight back in.
  const SpanHeight shape = ops.summarize(p, n);
  if (shape.min_prefix < 0 || shape.net != 0) return false;
  // Pass 2, type-only: every slot's last writer must be an open of the
  // close's type. The balanced-shape precondition means each close at slot
  // s pops exactly the open that last wrote s, so one flat array replaces
  // the stack and the loop has no unpredictable branches.
  uint32_t bad = 0;
  int64_t h = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = LoadWord(p + i);
    const int32_t t = WordType(w);
    const uint32_t o = WordOpen(w);
    const int64_t s = h - 1 + static_cast<int64_t>(o);  // open: h, close: h-1
    h += static_cast<int64_t>(o) * 2 - 1;
    const int32_t prev = type_at[s];
    type_at[s] = t;
    bad |= ~o & static_cast<uint32_t>(prev != t);
  }
  return (bad & 1u) == 0;
}

void ReduceSpan(const Paren* p, size_t n, std::vector<int64_t>* kept,
                SpanHeight* height) {
  kept->clear();
  if (!VectorPathForced() &&
      (n < kMinVectorReduce || ActiveBackend() == Backend::kScalar ||
       RunHeavy(p, n))) {
    ReduceScalar(p, n, kept, height);
    return;
  }
  Scratch& sc = TlsScratch();
  if (sc.slots.size() < n + 8) sc.slots.resize(n + 8);
  const Pass1Info p1 = ActiveOps().pass1(p, n, sc.slots.data());
  if (height != nullptr) *height = {p1.h_end, p1.min_prefix};
  const int32_t* slots = sc.slots.data();

  // Pass 2: replay the slots through a flat array of (code, position)
  // entries. Indices range over [slot_min, n]; `lo` leaves one spare slot
  // below for the deepest close.
  const int64_t lo = p1.slot_min - 1;
  const size_t entries_size = n + 2 + static_cast<size_t>(-lo);
  if (sc.entries.size() < entries_size) sc.entries.resize(entries_size);
  uint64_t* entry_at = sc.entries.data() - lo;

  // `base` is the stack floor: slots below it hold dead entries (survivor
  // closes and the opens they buried). A close only cancels when its slot
  // is live (s >= base) and the last writer is an open of its type.
  int64_t base = 0;

  // Exact replay of one symbol, with the survivor bookkeeping. Only runs
  // for the rare group that contains a non-canceling close.
  const auto replay = [&](size_t i) {
    const uint64_t w = LoadWord(p + i);
    const int32_t c = WordCode(w);
    const int64_t s = slots[i];
    const uint64_t pos = static_cast<uint64_t>(i);
    if ((c & 1) != 0) {  // open: push
      entry_at[s] = static_cast<uint32_t>(c) | (pos << 32);
      return;
    }
    const uint64_t prev = entry_at[s];
    if (s < base ||
        static_cast<int32_t>(static_cast<uint32_t>(prev)) != (c | 1)) {
      // Survivor close: everything live below it survives too (those
      // opens can never cancel against a later close), then the close
      // itself becomes the new floor.
      for (int64_t q = base; q < s + 1; ++q) {
        kept->push_back(static_cast<int64_t>(entry_at[q] >> 32));
      }
      kept->push_back(static_cast<int64_t>(pos));
      base = s;
    }
    entry_at[s] = static_cast<uint32_t>(c) | (pos << 32);
  };

  size_t i = 0;
  const size_t n8 = n & ~static_cast<size_t>(7);
  while (i < n8) {
    // Optimistic group of 8: journal the previous entries and write
    // unconditionally. If any close fails to cancel, roll everything back
    // and replay exactly.
    uint64_t journal[8];
    uint32_t bad = 0;
    for (size_t j = 0; j < 8; ++j) {
      const uint64_t w = LoadWord(p + i + j);
      const int32_t c = WordCode(w);
      const int64_t s = slots[i + j];
      const uint64_t prev = entry_at[s];
      journal[j] = prev;
      entry_at[s] = static_cast<uint32_t>(c) |
                    (static_cast<uint64_t>(i + j) << 32);
      const uint32_t is_close = ~static_cast<uint32_t>(c) & 1u;
      bad |= is_close &
             (static_cast<uint32_t>(
                  static_cast<int32_t>(static_cast<uint32_t>(prev)) !=
                  (c | 1)) |
              static_cast<uint32_t>(s < base));
    }
    if (bad == 0) {
      i += 8;
      continue;
    }
    for (size_t j = 8; j-- > 0;) entry_at[slots[i + j]] = journal[j];
    for (size_t j = 0; j < 8; ++j) replay(i + j);
    i += 8;
  }
  for (; i < n; ++i) replay(i);

  // The live region [base, h_end) holds the trailing unmatched opens.
  for (int64_t q = base; q < p1.h_end; ++q) {
    kept->push_back(static_cast<int64_t>(entry_at[q] >> 32));
  }
}

size_t FindByte(const char* s, size_t n, char c) {
  return ActiveOps().find_byte(s, n, c);
}

void BuildByteSet(const int32_t* char_map, ByteSet* out) {
  *out = ByteSet{};
  for (int c = 0; c < 256; ++c) {
    if (char_map[c] < 0) continue;
    if (c >= 0x80) {
      // PSHUFB can only classify 7-bit characters; leave the tables
      // unusable and let the kernels run their scalar paths.
      *out = ByteSet{};
      return;
    }
    out->lo[c & 0x0F] |= static_cast<uint8_t>(1u << (c >> 4));
  }
  for (int h = 0; h < 8; ++h) out->hi[h] = static_cast<uint8_t>(1u << h);
  out->usable = true;
}

size_t Tokenize(const char* s, size_t n, const int32_t* char_map,
                const ByteSet& set, Paren* out) {
  return ActiveOps().tokenize(s, n, char_map, &set, out);
}

size_t TokenizeLenient(const char* s, size_t n, const int32_t* char_map,
                       const ByteSet& set, Paren* out) {
  return ActiveOps().tokenize_lenient(s, n, char_map, &set, out);
}

void WaveCombineRow(const int64_t* prev, int64_t span, int64_t a_len,
                    int64_t b_len, bool substitutions, int64_t unreached,
                    int64_t* cand, std::vector<int64_t>* scratch) {
  // Pad the previous row by two unreached cells on each side so the +-1
  // and +-2 diagonal reads need no edge branches.
  const int64_t stride = 2 * span + 1;
  scratch->resize(static_cast<size_t>(stride) + 4);
  int64_t* padded = scratch->data() + 2;
  padded[-2] = unreached;
  padded[-1] = unreached;
  std::memcpy(padded, prev, static_cast<size_t>(stride) * sizeof(int64_t));
  padded[stride] = unreached;
  padded[stride + 1] = unreached;
  ActiveOps().wave_combine(padded, span, a_len, b_len, substitutions,
                           unreached, cand);
}

int64_t GreedyAdvance(const Paren* data, int64_t n, int64_t i,
                      bool reversed_flipped, std::vector<GreedyEntry>* stack) {
  if (!VectorPathForced() && ActiveBackend() == Backend::kScalar) {
    return internal::GreedyAdvanceScalar(data, n, i, reversed_flipped, stack);
  }
  return ActiveOps().greedy_advance(data, n, i, reversed_flipped, stack);
}

bool GreedyKernelProfitable(const Paren* data, int64_t n) {
  if (VectorPathForced()) return true;
  if (n < kMinVectorGreedy || ActiveBackend() == Backend::kScalar) {
    return false;
  }
  return !RunHeavy(data, static_cast<size_t>(n));
}

}  // namespace dyck::simd
