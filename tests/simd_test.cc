// Differential tests for the vector kernel layer (src/simd): every kernel,
// on every backend compiled into this binary and usable on this CPU, is
// pinned byte-identical to an independent plain-loop reference across
// adversarial shapes, sizes around every vector-width boundary, unaligned
// span starts, and resumed scans. ForceVectorPathForTest() bypasses the
// size thresholds and the run-heaviness probe so the vector code paths run
// even on tiny inputs.

#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/alphabet/paren.h"
#include "src/simd/greedy_kernel.h"
#include "src/simd/simd.h"

namespace dyck {
namespace {

using simd::Backend;

// ---------------------------------------------------------------------------
// Independent references (plain loops, written against the documented
// contracts rather than the scalar backend's code).

simd::SpanHeight RefSummarize(const ParenSeq& s) {
  simd::SpanHeight out;
  for (const Paren& p : s) {
    out.net += p.is_open ? +1 : -1;
    if (out.net < out.min_prefix) out.min_prefix = out.net;
  }
  return out;
}

bool RefBalanced(const ParenSeq& s) {
  std::vector<ParenType> stack;
  for (const Paren& p : s) {
    if (p.is_open) {
      stack.push_back(p.type);
    } else if (!stack.empty() && stack.back() == p.type) {
      stack.pop_back();
    } else {
      return false;
    }
  }
  return stack.empty();
}

void RefReduce(const ParenSeq& s, std::vector<int64_t>* kept) {
  kept->clear();
  for (int64_t i = 0; i < static_cast<int64_t>(s.size()); ++i) {
    const Paren& p = s[i];
    if (!p.is_open && !kept->empty() && s[kept->back()].Matches(p)) {
      kept->pop_back();
    } else {
      kept->push_back(i);
    }
  }
}

int64_t RefGreedyAdvance(const Paren* data, int64_t n, int64_t i,
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

// ---------------------------------------------------------------------------
// Corpus generators.

ParenSeq Uniform(size_t n, int types, uint32_t seed) {
  std::mt19937 rng(seed);
  ParenSeq s(n);
  for (auto& p : s) {
    p.type = static_cast<ParenType>(rng() % types);
    p.is_open = (rng() & 1) != 0;
  }
  return s;
}

ParenSeq Balanced(size_t n, int types, uint32_t seed) {
  std::mt19937 rng(seed);
  ParenSeq s;
  s.reserve(n);
  std::vector<ParenType> stack;
  for (size_t i = 0; i < n; ++i) {
    const size_t remaining = n - i;
    const bool must_close = stack.size() >= remaining;
    const bool must_open = stack.empty();
    if (must_open || (!must_close && (rng() & 1) != 0)) {
      const auto t = static_cast<ParenType>(rng() % types);
      stack.push_back(t);
      s.push_back(Paren::Open(t));
    } else {
      s.push_back(Paren::Close(stack.back()));
      stack.pop_back();
    }
  }
  return s;
}

// Long monotone runs: the shape the run-heaviness probe steers to scalar.
ParenSeq Runs(size_t n, int types, uint32_t seed) {
  std::mt19937 rng(seed);
  ParenSeq s;
  s.reserve(n);
  while (s.size() < n) {
    const size_t len = std::min<size_t>(1 + rng() % 200, n - s.size());
    const bool open = (rng() & 1) != 0;
    const auto t = static_cast<ParenType>(rng() % types);
    for (size_t j = 0; j < len; ++j) {
      s.push_back(open ? Paren::Open(t) : Paren::Close(t));
    }
  }
  return s;
}

std::vector<ParenSeq> Corpus() {
  const size_t sizes[] = {0,  1,  2,   7,   8,   9,    15,   16,  17,
                          31, 32, 33,  63,  64,  65,   100,  255, 256,
                          257, 1023, 1024, 4096, 4097, 8192, 20000};
  std::vector<ParenSeq> out;
  uint32_t seed = 1;
  for (const size_t n : sizes) {
    out.push_back(Uniform(n, 1, seed++));
    out.push_back(Uniform(n, 3, seed++));
    out.push_back(Balanced(n & ~size_t{1}, 4, seed++));
    out.push_back(Runs(n, 2, seed++));
    // Balanced with one flipped symbol: balanced shape, type conflict.
    ParenSeq mut = Balanced(n & ~size_t{1}, 4, seed++);
    if (!mut.empty()) mut[mut.size() / 2].type += 1;
    out.push_back(std::move(mut));
  }
  // Extremes around the block width.
  for (const size_t n : {8u, 64u, 4096u}) {
    out.emplace_back(n, Paren::Open(0));
    out.emplace_back(n, Paren::Close(0));
    ParenSeq alt(n);
    for (size_t i = 0; i < n; ++i) alt[i] = (i & 1) ? Paren::Close(0)
                                                    : Paren::Open(0);
    out.push_back(std::move(alt));
  }
  return out;
}

// An unaligned view of the same symbols: copy into a buffer at element
// offset 1/2/3 so vector loads start off any 16/32-byte boundary.
ParenSeq Shifted(const ParenSeq& s, size_t shift, ParenSpan* view) {
  ParenSeq buf(s.size() + shift + 8, Paren::Open(7));
  std::copy(s.begin(), s.end(), buf.begin() + shift);
  *view = ParenSpan(buf.data() + shift, s.size());
  return buf;
}

class SimdBackendTest : public ::testing::Test {
 protected:
  void TearDown() override {
    simd::ClearForcedBackend();
    simd::ForceVectorPathForTest(false);
  }

  // Runs `body` once per available backend with dispatch pinned to it and
  // the vector path forced, under a SCOPED_TRACE naming the backend.
  template <typename Body>
  void ForEachBackend(Body body) {
    for (const Backend b : simd::AvailableBackends()) {
      SCOPED_TRACE(simd::BackendName(b));
      ASSERT_TRUE(simd::ForceBackend(b));
      simd::ForceVectorPathForTest(true);
      body();
    }
  }
};

// ---------------------------------------------------------------------------
// Span kernels.

TEST_F(SimdBackendTest, SummarizeMatchesReference) {
  const auto corpus = Corpus();
  ForEachBackend([&] {
    for (const ParenSeq& s : corpus) {
      const simd::SpanHeight want = RefSummarize(s);
      const simd::SpanHeight got = simd::Summarize(s.data(), s.size());
      ASSERT_EQ(want.net, got.net) << "n=" << s.size();
      ASSERT_EQ(want.min_prefix, got.min_prefix) << "n=" << s.size();
    }
  });
}

TEST_F(SimdBackendTest, IsBalancedSpanMatchesReference) {
  const auto corpus = Corpus();
  ForEachBackend([&] {
    for (const ParenSeq& s : corpus) {
      ASSERT_EQ(RefBalanced(s), simd::IsBalancedSpan(s.data(), s.size()))
          << "n=" << s.size();
    }
  });
}

TEST_F(SimdBackendTest, ReduceSpanMatchesReference) {
  const auto corpus = Corpus();
  ForEachBackend([&] {
    for (const ParenSeq& s : corpus) {
      std::vector<int64_t> want_kept;
      RefReduce(s, &want_kept);

      std::vector<int64_t> kept{-11};  // sentinel: cleared, not appended to
      simd::SpanHeight height;
      simd::ReduceSpan(s.data(), s.size(), &kept, &height);

      ASSERT_EQ(want_kept, kept) << "n=" << s.size();
      const simd::SpanHeight want_h = RefSummarize(s);
      ASSERT_EQ(want_h.net, height.net);
      ASSERT_EQ(want_h.min_prefix, height.min_prefix);
    }
  });
}

TEST_F(SimdBackendTest, UnalignedSpansMatchReference) {
  const ParenSeq base = Uniform(1000, 3, 77);
  ForEachBackend([&] {
    for (const size_t shift : {1u, 2u, 3u, 5u}) {
      ParenSpan view;
      const ParenSeq buf = Shifted(base, shift, &view);
      const simd::SpanHeight want = RefSummarize(base);
      const simd::SpanHeight got = simd::Summarize(view.data(), view.size());
      ASSERT_EQ(want.net, got.net) << "shift=" << shift;
      ASSERT_EQ(want.min_prefix, got.min_prefix);
      std::vector<int64_t> want_kept, kept;
      RefReduce(base, &want_kept);
      simd::ReduceSpan(view.data(), view.size(), &kept, nullptr);
      ASSERT_EQ(want_kept, kept) << "shift=" << shift;
    }
  });
}

// A toy delete-on-conflict scan driven by GreedyAdvance, so resumed calls
// (i > 0, live stack, preserved deep entries) are exercised, forwards and
// through the reversed-flipped view.
TEST_F(SimdBackendTest, GreedyAdvanceMatchesReference) {
  const auto corpus = Corpus();
  ForEachBackend([&] {
    for (const ParenSeq& s : corpus) {
      for (const bool rev : {false, true}) {
        const auto n = static_cast<int64_t>(s.size());
        std::vector<GreedyEntry> want_stack{{1000, -5, 42}};
        std::vector<GreedyEntry> stack{{1000, -5, 42}};
        std::vector<int64_t> want_stops, stops;
        for (int64_t i = 0; i < n;) {
          i = RefGreedyAdvance(s.data(), n, i, rev, &want_stack);
          if (i < n) want_stops.push_back(i);
          ++i;
        }
        for (int64_t i = 0; i < n;) {
          i = simd::GreedyAdvance(s.data(), n, i, rev, &stack);
          if (i < n) stops.push_back(i);
          ++i;
        }
        ASSERT_EQ(want_stops, stops) << "n=" << n << " rev=" << rev;
        ASSERT_EQ(want_stack.size(), stack.size()) << "n=" << n;
        for (size_t k = 0; k < stack.size(); ++k) {
          ASSERT_EQ(want_stack[k].type, stack[k].type);
          ASSERT_EQ(want_stack[k].pos, stack[k].pos);
          ASSERT_EQ(want_stack[k].op_index, stack[k].op_index);
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Byte kernels.

TEST_F(SimdBackendTest, FindByteMatchesReference) {
  std::mt19937 rng(9);
  ForEachBackend([&] {
    for (const size_t n : {0u, 1u, 15u, 16u, 31u, 32u, 33u, 100u, 1000u}) {
      std::string s(n, 'x');
      for (auto& c : s) c = static_cast<char>('a' + rng() % 4);
      for (const char needle : {'a', 'z', '\n'}) {
        size_t want = s.find(needle);
        if (want == std::string::npos) want = n;
        ASSERT_EQ(want, simd::FindByte(s.data(), n, needle))
            << "n=" << n << " needle=" << needle;
      }
      if (n > 2) {
        s[n - 1] = '\n';
        ASSERT_EQ(n - 1, simd::FindByte(s.data(), n, '\n'));
      }
    }
  });
}

TEST_F(SimdBackendTest, TokenizeMatchesReference) {
  // "(){}[]<>" style map plus a couple of multi-char types.
  int32_t char_map[256];
  for (auto& e : char_map) e = -1;
  const std::string opens = "([{<";
  const std::string closes = ")]}>";
  for (int t = 0; t < 4; ++t) {
    char_map[static_cast<unsigned char>(opens[t])] = (t << 1) | 1;
    char_map[static_cast<unsigned char>(closes[t])] = t << 1;
  }
  simd::ByteSet set;
  simd::BuildByteSet(char_map, &set);
  ASSERT_TRUE(set.usable);

  std::mt19937 rng(13);
  const std::string mixed = "([{<)]}> \tax\n\xC3\xA9";
  ForEachBackend([&] {
    for (const size_t n : {0u, 1u, 31u, 32u, 33u, 64u, 100u, 1000u, 4096u}) {
      std::string all_mapped(n, '(');
      for (auto& c : all_mapped) {
        c = (rng() & 1) ? opens[rng() % 4] : closes[rng() % 4];
      }
      std::string noisy(n, ' ');
      for (auto& c : noisy) c = mixed[rng() % mixed.size()];

      for (const std::string* sp : {&all_mapped, &noisy}) {
        const std::string& str = *sp;
        // Strict reference: stop at first unmapped char.
        size_t want_k = 0;
        std::vector<Paren> want(n);
        while (want_k < n &&
               char_map[static_cast<unsigned char>(str[want_k])] >= 0) {
          const int32_t e = char_map[static_cast<unsigned char>(str[want_k])];
          want[want_k] = Paren{e >> 1, (e & 1) != 0};
          ++want_k;
        }
        std::vector<Paren> got(n);
        const size_t k =
            simd::Tokenize(str.data(), n, char_map, set, got.data());
        ASSERT_EQ(want_k, k) << "n=" << n;
        for (size_t i = 0; i < k; ++i) ASSERT_EQ(want[i], got[i]) << i;

        // Lenient reference: keep every mapped char.
        std::vector<Paren> want_l;
        for (size_t i = 0; i < n; ++i) {
          const int32_t e = char_map[static_cast<unsigned char>(str[i])];
          if (e >= 0) want_l.push_back(Paren{e >> 1, (e & 1) != 0});
        }
        std::vector<Paren> got_l(n);
        const size_t written = simd::TokenizeLenient(str.data(), n, char_map,
                                                     set, got_l.data());
        ASSERT_EQ(want_l.size(), written) << "n=" << n;
        for (size_t i = 0; i < written; ++i) ASSERT_EQ(want_l[i], got_l[i]);
      }
    }
  });
}

TEST(SimdByteSetTest, HighBitAlphabetIsUnusableButCorrect) {
  int32_t char_map[256];
  for (auto& e : char_map) e = -1;
  char_map[static_cast<unsigned char>('(')] = 1;
  char_map[static_cast<unsigned char>(')')] = 0;
  char_map[0xE9] = 3;  // a high-bit open: defeats the PSHUFB classifier
  char_map[0xE8] = 2;
  simd::ByteSet set;
  simd::BuildByteSet(char_map, &set);
  EXPECT_FALSE(set.usable);
  const std::string s = "(()\xE9\xE8)x()";
  std::vector<Paren> out(s.size());
  const size_t k =
      simd::Tokenize(s.data(), s.size(), char_map, set, out.data());
  EXPECT_EQ(6u, k);  // stops at 'x'
  EXPECT_EQ(Paren::Open(1), out[3]);
  EXPECT_EQ(Paren::Close(1), out[4]);
}

// ---------------------------------------------------------------------------
// Wave combine kernel.

TEST_F(SimdBackendTest, WaveCombineRowMatchesReference) {
  constexpr int64_t kUnreached = -2;
  std::mt19937 rng(21);
  ForEachBackend([&] {
    for (const int64_t span : {0, 1, 2, 3, 4, 7, 8, 16, 33, 100}) {
      const int64_t stride = 2 * span + 1;
      for (int rep = 0; rep < 8; ++rep) {
        const int64_t a_len = static_cast<int64_t>(rng() % 200);
        const int64_t b_len = static_cast<int64_t>(rng() % 200);
        const bool subs = (rng() & 1) != 0;
        std::vector<int64_t> prev(stride);
        for (auto& v : prev) {
          const uint32_t r = rng() % 10;
          v = r == 0 ? kUnreached
                     : (r == 1 ? -1
                               : static_cast<int64_t>(rng() % (a_len + 2)));
        }
        // Reference: scalar combine over an explicitly padded row.
        std::vector<int64_t> padded(prev.size() + 4, kUnreached);
        std::copy(prev.begin(), prev.end(), padded.begin() + 2);
        std::vector<int64_t> want(stride);
        for (int64_t idx = 0; idx < stride; ++idx) {
          const int64_t k = idx - span;
          const int64_t* row = padded.data() + 2;
          int64_t best = row[idx];
          const auto consider = [&](int64_t dd, int64_t rd) {
            int64_t src = row[idx + dd];
            if (src == kUnreached) return;
            src = std::min(src, a_len - rd);
            src = std::min(src, b_len - k - rd);
            if (src < 0 || src + k + dd < 0) return;
            const int64_t r = src + rd;
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
          want[idx] = best;
        }
        std::vector<int64_t> got(stride, -99);
        std::vector<int64_t> scratch;
        simd::WaveCombineRow(prev.data(), span, a_len, b_len, subs,
                             kUnreached, got.data(), &scratch);
        ASSERT_EQ(want, got) << "span=" << span << " subs=" << subs
                             << " a=" << a_len << " b=" << b_len;
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Adaptive drivers (no forcing): thresholds and the run-heaviness probe
// must change timing only, never results.

TEST(SimdAdaptiveTest, DefaultDispatchMatchesReferenceOnLargeSpans) {
  simd::ClearForcedBackend();
  simd::ForceVectorPathForTest(false);
  for (const ParenSeq& s :
       {Uniform(65536, 3, 5), Balanced(65536, 4, 6), Runs(65536, 2, 7)}) {
    EXPECT_EQ(RefBalanced(s), simd::IsBalancedSpan(s.data(), s.size()));
    const simd::SpanHeight want = RefSummarize(s);
    const simd::SpanHeight got = simd::Summarize(s.data(), s.size());
    EXPECT_EQ(want.net, got.net);
    EXPECT_EQ(want.min_prefix, got.min_prefix);
    std::vector<int64_t> want_kept, kept;
    RefReduce(s, &want_kept);
    simd::ReduceSpan(s.data(), s.size(), &kept, nullptr);
    EXPECT_EQ(want_kept, kept);
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.

TEST(SimdDispatchTest, BackendNamesRoundTrip) {
  for (const Backend b : simd::kAllBackends) {
    Backend parsed;
    ASSERT_TRUE(simd::ParseBackendName(simd::BackendName(b), &parsed));
    EXPECT_EQ(b, parsed);
  }
  Backend parsed;
  EXPECT_FALSE(simd::ParseBackendName("AVX2", &parsed));
  EXPECT_FALSE(simd::ParseBackendName("", &parsed));
  EXPECT_FALSE(simd::ParseBackendName("sse", &parsed));
}

TEST(SimdDispatchTest, ScalarAlwaysAvailableAndListedFirst) {
  EXPECT_TRUE(simd::BackendAvailable(Backend::kScalar));
  const auto avail = simd::AvailableBackends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(Backend::kScalar, avail.front());
}

TEST(SimdDispatchTest, ForceBackendRejectsUnavailable) {
  const auto avail = simd::AvailableBackends();
  for (const Backend b : simd::kAllBackends) {
    const bool is_avail =
        std::find(avail.begin(), avail.end(), b) != avail.end();
    EXPECT_EQ(is_avail, simd::ForceBackend(b)) << simd::BackendName(b);
  }
  simd::ClearForcedBackend();
}

TEST(SimdDispatchTest, CheckEnvDiagnoses) {
  ASSERT_EQ(0, setenv("DYCKFIX_SIMD", "quantum", 1));
  std::string error;
  EXPECT_FALSE(simd::CheckEnv(&error));
  EXPECT_NE(std::string::npos, error.find("quantum"));
  EXPECT_NE(std::string::npos, error.find("valid values"));

  ASSERT_EQ(0, setenv("DYCKFIX_SIMD", "scalar", 1));
  error.clear();
  EXPECT_TRUE(simd::CheckEnv(&error));
  EXPECT_TRUE(error.empty());

  // An unavailable-but-valid name reports availability, not spelling.
  const auto avail = simd::AvailableBackends();
  for (const Backend b : simd::kAllBackends) {
    if (std::find(avail.begin(), avail.end(), b) != avail.end()) continue;
    ASSERT_EQ(0, setenv("DYCKFIX_SIMD", simd::BackendName(b), 1));
    error.clear();
    EXPECT_FALSE(simd::CheckEnv(&error));
    EXPECT_NE(std::string::npos, error.find("not available"));
    break;
  }
  ASSERT_EQ(0, unsetenv("DYCKFIX_SIMD"));
  EXPECT_TRUE(simd::CheckEnv(nullptr));
}

}  // namespace
}  // namespace dyck
