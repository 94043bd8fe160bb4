// RepairContext / Arena memory-model tests.
//
// Three layers of guarantees, strongest first:
//   1. The arena and scratch pools behave as documented (alignment, O(1)
//      reset, block reuse, capacity retention).
//   2. Context reuse is invisible in results: fresh-context and
//      reused-context repairs are byte-identical across the adversarial
//      corpus and every algorithm/metric combination.
//   3. The batch worker loop performs ZERO steady-state heap allocations
//      per document on the balanced fast path, and the FPT path's
//      allocation count plateaus (constant per document, strictly below a
//      fresh context's) — measured with a global operator-new hook.
//
// Suite names deliberately contain "Arena"/"Context" so the tsan/asan
// preset filters pick them up (context reuse across pool workers must be
// TSan-clean).

// The replaced operators intentionally pair ::operator delete with
// std::free; GCC cannot see that the matching ::operator new is also
// malloc-backed and warns at inlined call sites throughout the TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/context.h"
#include "src/core/dyck.h"
#include "src/gen/adversarial.h"
#include "src/gen/workload.h"
#include "src/pipeline/pipeline.h"
#include "src/runtime/batch_engine.h"
#include "src/util/arena.h"

namespace {

// Global allocation counter. Replacing the global operators is the only
// way to observe *every* heap allocation the library makes (std::vector,
// unordered_map, make_unique, ...). The replacements must come in
// new/delete pairs backed by the same allocator (malloc/free here).
std::atomic<long long> g_heap_allocs{0};

long long HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// The nothrow variants must be replaced too: libstdc++'s
// get_temporary_buffer (std::stable_sort) allocates through
// operator new(nothrow) — if only the throwing overloads were replaced,
// those allocations would escape the counter, and under ASan they would
// pair the sanitizer's own operator-new interceptor with our free()-based
// operator delete, tripping alloc-dealloc-mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dyck {
namespace {

// ---------------------------------------------------------------------
// Arena basics.

TEST(ArenaTest, AllocationsAreAlignedAndTracked) {
  Arena arena;
  EXPECT_EQ(arena.used_bytes(), 0);
  void* a = arena.Allocate(3, 1);
  void* b = arena.Allocate(8, 8);
  void* c = arena.Allocate(64, 64);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
  EXPECT_GE(arena.used_bytes(), 3 + 8 + 64);
  EXPECT_EQ(arena.high_water_bytes(), arena.used_bytes());
}

TEST(ArenaTest, ZeroByteAllocationsReturnDistinctPointers) {
  Arena arena;
  void* a = arena.Allocate(0, 1);
  void* b = arena.Allocate(0, 1);
  EXPECT_NE(a, b);
}

TEST(ArenaTest, ResetRewindsInConstantTimeAndKeepsBlocks) {
  Arena arena;
  for (int i = 0; i < 100; ++i) arena.Allocate(4096, 8);
  const size_t blocks_before = arena.block_allocs();
  const int64_t high_water = arena.high_water_bytes();
  EXPECT_GT(blocks_before, 1u);

  arena.Reset();
  EXPECT_EQ(arena.used_bytes(), 0);
  EXPECT_EQ(arena.resets(), 1);
  EXPECT_EQ(arena.high_water_bytes(), high_water);

  // The same allocation pattern replays entirely out of retained blocks.
  for (int i = 0; i < 100; ++i) arena.Allocate(4096, 8);
  EXPECT_EQ(arena.block_allocs(), blocks_before);
}

TEST(ArenaTest, OversizedRequestGetsDedicatedBlock) {
  Arena arena;
  void* big = arena.Allocate(1 << 20, 8);  // far above the block size
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.reserved_bytes(), 1 << 20);
  // And the arena keeps working afterwards.
  void* small = arena.Allocate(16, 8);
  ASSERT_NE(small, nullptr);
}

TEST(ArenaAllocatorTest, BacksStandardContainers) {
  Arena arena;
  std::vector<int64_t, ArenaAllocator<int64_t>> v{
      ArenaAllocator<int64_t>(&arena)};
  for (int64_t i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_EQ(v[999], 999);
  EXPECT_GT(arena.used_bytes(), 0);
  EXPECT_TRUE(ArenaAllocator<int64_t>(&arena) ==
              ArenaAllocator<int32_t>(&arena));
}

TEST(ArenaScratchPoolTest, ReleaseThenAcquireRetainsCapacity) {
  ScratchPool<int64_t> pool;
  std::vector<int64_t> buf = pool.Acquire();
  EXPECT_EQ(pool.misses(), 1);
  buf.resize(4096);
  const size_t capacity = buf.capacity();
  pool.Release(std::move(buf));

  std::vector<int64_t> again = pool.Acquire();
  EXPECT_EQ(pool.misses(), 1);  // served from the free list
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), capacity);
}

// ---------------------------------------------------------------------
// Context plumbing.

TEST(ContextTest, ScopeInstallsAndRestores) {
  RepairContext& ambient = RepairContext::CurrentThread();
  RepairContext mine;
  {
    RepairContextScope scope(&mine);
    EXPECT_EQ(&RepairContext::CurrentThread(), &mine);
    RepairContext inner;
    {
      RepairContextScope nested(&inner);
      EXPECT_EQ(&RepairContext::CurrentThread(), &inner);
    }
    EXPECT_EQ(&RepairContext::CurrentThread(), &mine);
  }
  EXPECT_EQ(&RepairContext::CurrentThread(), &ambient);
}

TEST(ContextTest, BeginDocumentResetsArenaAndCounts) {
  RepairContext ctx;
  ctx.arena().Allocate(128, 8);
  EXPECT_GT(ctx.arena().used_bytes(), 0);
  ctx.BeginDocument();
  EXPECT_EQ(ctx.arena().used_bytes(), 0);
  EXPECT_EQ(ctx.documents(), 1);
  ctx.BeginDocument();
  EXPECT_EQ(ctx.documents(), 2);
}

TEST(ContextTelemetryTest, ArenaCountersRideOnResults) {
  RepairContext ctx;
  const ParenSeq seq = gen::ManyValleys(2, 3);
  const auto first = Repair(seq, {}, &ctx);
  ASSERT_TRUE(first.ok());
  const auto second = Repair(seq, {}, &ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->telemetry.arena_resets, 1);
  EXPECT_EQ(second->telemetry.arena_resets, 2);
  EXPECT_GT(second->telemetry.arena_high_water_bytes, 0);
  // A reused context fetches no new heap blocks for an identical document.
  EXPECT_EQ(second->telemetry.heap_allocs, first->telemetry.heap_allocs);
}

// ---------------------------------------------------------------------
// Differential: context reuse must be invisible in results.

std::vector<ParenSeq> AdversarialCorpus() {
  std::vector<ParenSeq> corpus;
  corpus.push_back(gen::ManyValleys(2, 3));
  corpus.push_back(gen::MismatchedV(12, 3, /*seed=*/7));
  corpus.push_back(gen::GreedyTrap(10));
  corpus.push_back(ParenSeq{});  // empty
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    gen::BalancedOptions bopts;
    bopts.length = 96;
    bopts.num_types = 3;
    bopts.shape = seed % 2 == 0 ? gen::Shape::kUniform : gen::Shape::kDeep;
    const ParenSeq balanced = gen::RandomBalanced(bopts, seed);
    corpus.push_back(balanced);  // the balanced fast path
    gen::CorruptionOptions copts;
    copts.num_edits = 3;
    copts.kind = gen::CorruptionKind::kMixed;
    corpus.push_back(gen::Corrupt(balanced, copts, seed * 31).seq);
  }
  return corpus;
}

void ExpectSameResult(const StatusOr<RepairResult>& fresh,
                      const StatusOr<RepairResult>& reused) {
  ASSERT_EQ(fresh.ok(), reused.ok())
      << fresh.status().ToString() << " vs " << reused.status().ToString();
  if (!fresh.ok()) {
    EXPECT_EQ(fresh.status().code(), reused.status().code());
    return;
  }
  EXPECT_EQ(fresh->distance, reused->distance);
  EXPECT_EQ(fresh->degraded, reused->degraded);
  EXPECT_TRUE(fresh->script.ops == reused->script.ops);
  EXPECT_TRUE(fresh->repaired == reused->repaired);
}

TEST(ContextReuseTest, FreshAndReusedContextsAreByteIdentical) {
  const std::vector<ParenSeq> corpus = AdversarialCorpus();
  std::vector<Options> grid;
  for (const Metric metric :
       {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
    for (const char* solver : {"auto", "fpt", "cubic"}) {
      Options options;
      options.metric = metric;
      options.solver = solver;
      grid.push_back(options);
    }
  }

  RepairContext reused;  // serves every (seq, options) pair in sequence
  for (const Options& options : grid) {
    for (const ParenSeq& seq : corpus) {
      RepairContext fresh;
      const auto a = Repair(seq, options, &fresh);
      const auto b = Repair(seq, options, &reused);
      ExpectSameResult(a, b);
    }
  }
  // One context served the whole grid.
  EXPECT_EQ(reused.documents(),
            static_cast<int64_t>(grid.size() * corpus.size()));
}

TEST(ContextReuseTest, RepairIntoMatchesRepair) {
  const std::vector<ParenSeq> corpus = AdversarialCorpus();
  RepairContext ctx;
  RepairResult into;  // reused across all documents
  for (const ParenSeq& seq : corpus) {
    const auto direct = Repair(seq, {});
    const Status status = RepairInto(seq, {}, &ctx, &into);
    ASSERT_EQ(direct.ok(), status.ok());
    if (!direct.ok()) continue;
    EXPECT_EQ(direct->distance, into.distance);
    EXPECT_TRUE(direct->script.ops == into.script.ops);
    EXPECT_TRUE(direct->repaired == into.repaired);
  }
}

// ---------------------------------------------------------------------
// Allocation accounting: the tentpole's acceptance criterion.

TEST(ContextAllocTest, ZeroSteadyStateHeapAllocsPerBalancedDocument) {
  // The batch worker loop's shape: one long-lived context, one reused
  // result, documents streaming through. Balanced inputs take the fast
  // path (no solver), which must be allocation-free once warm.
  std::vector<ParenSeq> docs;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    gen::BalancedOptions bopts;
    bopts.length = 256;
    bopts.num_types = 4;
    bopts.shape = gen::Shape::kUniform;
    docs.push_back(gen::RandomBalanced(bopts, seed));
  }

  RepairContext ctx;
  RepairResult result;
  const Options options;

  // Warmup: two full passes grow every scratch vector and the result's
  // capacity to the corpus maximum.
  for (int pass = 0; pass < 2; ++pass) {
    for (const ParenSeq& doc : docs) {
      ASSERT_TRUE(RepairInto(doc, options, &ctx, &result).ok());
    }
  }

  const long long before = HeapAllocs();
  for (int pass = 0; pass < 3; ++pass) {
    for (const ParenSeq& doc : docs) {
      ASSERT_TRUE(RepairInto(doc, options, &ctx, &result).ok());
      ASSERT_EQ(result.distance, 0);
    }
  }
  const long long after = HeapAllocs();
  EXPECT_EQ(after - before, 0)
      << (after - before) << " heap allocations leaked into the steady "
      << "state of the balanced batch loop";
}

TEST(ContextAllocTest, FptPathAllocsPlateauAndBeatFreshContext) {
  // Unbalanced documents run the FPT solver, whose pimpl and LCE index
  // are per-document by design — the claim is a *plateau*: with a reused
  // context the per-document allocation count is constant (scratch is
  // warm) and strictly below a fresh context's.
  const ParenSeq doc = gen::MismatchedV(16, 2, /*seed=*/3);
  const Options options;

  RepairContext reused;
  RepairResult result;
  for (int i = 0; i < 3; ++i) {  // warm the context
    ASSERT_TRUE(RepairInto(doc, options, &reused, &result).ok());
  }
  long long reused_counts[3] = {};
  for (int i = 0; i < 3; ++i) {
    const long long before = HeapAllocs();
    ASSERT_TRUE(RepairInto(doc, options, &reused, &result).ok());
    reused_counts[i] = HeapAllocs() - before;
  }
  EXPECT_EQ(reused_counts[0], reused_counts[1]);
  EXPECT_EQ(reused_counts[1], reused_counts[2]);

  long long fresh_count = 0;
  {
    RepairContext fresh;
    RepairResult fresh_result;
    const long long before = HeapAllocs();
    ASSERT_TRUE(RepairInto(doc, options, &fresh, &fresh_result).ok());
    fresh_count = HeapAllocs() - before;
  }
  EXPECT_LT(reused_counts[2], fresh_count)
      << "context reuse saved no allocations over a cold context";
}

// ---------------------------------------------------------------------
// Batch: per-worker contexts under threads (TSan coverage).

TEST(ContextBatchTest, WorkerContextReuseIsDeterministicAcrossRuns) {
  std::vector<ParenSeq> docs;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    gen::BalancedOptions bopts;
    bopts.length = 128;
    bopts.num_types = 3;
    bopts.shape = gen::Shape::kUniform;
    const ParenSeq balanced = gen::RandomBalanced(bopts, seed);
    gen::CorruptionOptions copts;
    copts.num_edits = static_cast<int64_t>(seed % 4);  // some stay balanced
    docs.push_back(gen::Corrupt(balanced, copts, seed).seq);
  }

  runtime::BatchOptions batch_options;
  batch_options.jobs = 4;
  runtime::BatchRepairEngine engine(batch_options);

  const auto first = engine.RepairAll(docs, {});
  const auto second = engine.RepairAll(docs, {});  // contexts now warm
  ASSERT_EQ(first.results.size(), docs.size());
  ASSERT_EQ(second.results.size(), docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    ASSERT_TRUE(first.results[i].ok()) << first.results[i].status().ToString();
    ASSERT_TRUE(second.results[i].ok());
    EXPECT_EQ(first.results[i]->distance, second.results[i]->distance);
    EXPECT_TRUE(first.results[i]->repaired == second.results[i]->repaired);
    EXPECT_TRUE(IsBalanced(first.results[i]->repaired));
  }
  // Reuse is observable in the aggregate: some worker context served more
  // than one document.
  EXPECT_GT(second.stats.telemetry.arena_resets, 1);
}

}  // namespace
}  // namespace dyck
