// Templated kernel cores shared by the backend translation units. Each
// backend instantiates these with its own dirbyte / row-store functors, so
// the block structure (and therefore the exact arithmetic) is identical
// across backends and only the symbol-load primitives differ.

#ifndef DYCKFIX_SRC_SIMD_SPAN_CORE_H_
#define DYCKFIX_SRC_SIMD_SPAN_CORE_H_

#include <cstdint>
#include <vector>

#include "src/simd/kernels.h"

namespace dyck::simd::internal {

// Height summary, 32 symbols per iteration. The four dirbyte table chains
// are paired into a min tree to shorten the dependency chain.
template <class DirByteFn>
SpanHeight SummarizeCore(const Paren* p, size_t n, DirByteFn dirbyte8) {
  const Tables& tb = GetTables();
  int64_t h = 0;
  int64_t m = 0;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const uint32_t b0 = dirbyte8(p + i);
    const uint32_t b1 = dirbyte8(p + i + 8);
    const uint32_t b2 = dirbyte8(p + i + 16);
    const uint32_t b3 = dirbyte8(p + i + 24);
    int64_t m0 = h + tb.minp[b0];
    const int64_t h0 = h + tb.net[b0];
    const int64_t m1 = h0 + tb.minp[b1];
    const int64_t h1 = h0 + tb.net[b1];
    int64_t m2 = h1 + tb.minp[b2];
    const int64_t h2 = h1 + tb.net[b2];
    const int64_t m3 = h2 + tb.minp[b3];
    h = h2 + tb.net[b3];
    m0 = m1 < m0 ? m1 : m0;
    m2 = m3 < m2 ? m3 : m2;
    m0 = m2 < m0 ? m2 : m0;
    m = m0 < m ? m0 : m;
  }
  for (; i + 8 <= n; i += 8) {
    const uint32_t b = dirbyte8(p + i);
    const int64_t mm = h + tb.minp[b];
    m = mm < m ? mm : m;
    h += tb.net[b];
  }
  for (; i < n; ++i) {
    h += WordOpen(LoadWord(p + i)) != 0 ? +1 : -1;
    m = h < m ? h : m;
  }
  return {h, m};
}

// Slot pass. `store_row` writes slots[0..8) = base + row[0..8) (row is the
// int8 slot_off table row); the chains for net/min run scalar through the
// byte tables.
template <class DirByteFn, class StoreRowFn>
Pass1Info Pass1Core(const Paren* p, size_t n, int32_t* slots,
                    DirByteFn dirbyte8, StoreRowFn store_row) {
  const Tables& tb = GetTables();
  int64_t h = 0;
  int64_t sm = 0;
  int64_t mp = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint32_t b = dirbyte8(p + i);
    store_row(slots + i, tb.slot_off[b], static_cast<int32_t>(h));
    const int64_t s = h + tb.smin[b];
    sm = s < sm ? s : sm;
    const int64_t m = h + tb.minp[b];
    mp = m < mp ? m : mp;
    h += tb.net[b];
  }
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

// Greedy fast-advance. Optimistic branch-free groups of 8 with a register
// journal; a group containing a conflict (type mismatch) or potential
// underflow is rolled back and replayed symbol by symbol, stopping exactly
// where GreedyScan's scalar fast path would stop.
template <class DirByteFn>
int64_t GreedyAdvanceCore(const Paren* data, int64_t n, int64_t i0, bool rev,
                          std::vector<GreedyEntry>& stack,
                          DirByteFn dirbyte8) {
  const Tables& tb = GetTables();
  int64_t i = i0;
  int64_t d = static_cast<int64_t>(stack.size());
  const auto view = [&](int64_t idx) {
    Paren p = data[rev ? n - 1 - idx : idx];
    if (rev) p.is_open = !p.is_open;
    return p;
  };
  // Consumes up to `lim` symbols with the plain stack loop; false when a
  // conflict stops it (i then points at the conflicting symbol).
  const auto scalar_run = [&](int64_t lim) {
    stack.resize(static_cast<size_t>(d));
    const int64_t end = i + lim < n ? i + lim : n;
    while (i < end) {
      const Paren p = view(i);
      if (p.is_open) {
        stack.push_back({p.type, i, -1});
      } else if (!stack.empty() && stack.back().type == p.type) {
        stack.pop_back();
      } else {
        d = static_cast<int64_t>(stack.size());
        return false;
      }
      ++i;
    }
    d = static_cast<int64_t>(stack.size());
    return true;
  };
  while (i + 8 <= n) {
    uint32_t b;
    if (!rev) {
      b = dirbyte8(data + i);
    } else {
      b = static_cast<uint32_t>(tb.rev8[dirbyte8(data + (n - 1 - i - 7))]) ^
          0xFFu;
    }
    if (d + tb.smin[b] < 0) {
      // The group may pop below the current depth — run it scalar.
      if (!scalar_run(8)) return i;
      continue;
    }
    if (static_cast<int64_t>(stack.size()) < d + 8) {
      stack.resize(static_cast<size_t>(d + 8));
    }
    GreedyEntry* st = stack.data();
    GreedyEntry journal[8];
    uint32_t bad = 0;
    for (int j = 0; j < 8; ++j) {
      const int64_t pos = i + j;
      const Paren p = view(pos);
      const int64_t s = d + tb.slot_off[b][j];
      const GreedyEntry prev = st[s];
      journal[j] = prev;
      st[s] = {p.type, pos, -1};
      const uint32_t is_close = p.is_open ? 0u : 1u;
      bad |= is_close & static_cast<uint32_t>(prev.type != p.type);
    }
    if (bad == 0) {
      d += tb.net[b];
      i += 8;
      continue;
    }
    for (int j = 7; j >= 0; --j) {
      st[d + tb.slot_off[b][j]] = journal[j];
    }
    if (!scalar_run(8)) return i;
  }
  if (!scalar_run(n - i)) return i;
  return n;
}

}  // namespace dyck::simd::internal

#endif  // DYCKFIX_SRC_SIMD_SPAN_CORE_H_
