// Unit tests for the content-hash repair cache (src/cache/repair_cache.h)
// and the sequence interner (src/cache/interner.h): key semantics (which
// Options fields participate), collision survival under a forced-narrow
// hash mask, degraded-result bypass, CLOCK eviction under a byte budget,
// budget ratcheting, and interner lifetime (eviction never invalidates a
// summary a document still holds). The differential guarantee (cache-on
// results byte-identical to cache-off) lives in cache_differential_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/cache/interner.h"
#include "src/cache/repair_cache.h"
#include "src/core/dyck.h"
#include "src/textio/bracket_tokenizer.h"

namespace dyck {
namespace {

ParenSeq Tokens(const std::string& text) {
  return textio::TokenizeBrackets(text, ParenAlphabet::Default()).seq;
}

// A clean (non-degraded) repair result to feed Insert.
RepairResult RepairOf(const ParenSeq& seq, const Options& options = {}) {
  auto result = Repair(seq, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(RepairCacheTest, MissThenInsertThenHit) {
  cache::RepairCache cache(1 << 20);
  const ParenSeq seq = Tokens("(()[]");
  const Options options;
  const cache::OptionsKey key = cache::OptionsKey::From(options);
  const uint64_t hash = cache::HashSequence(seq, key);

  RepairResult out;
  EXPECT_FALSE(cache.Lookup(hash, seq, key, &out));
  EXPECT_EQ(cache.Stats().misses, 1);

  const RepairResult computed = RepairOf(seq, options);
  cache.Insert(hash, seq, key, computed);
  EXPECT_EQ(cache.Stats().inserts, 1);

  ASSERT_TRUE(cache.Lookup(hash, seq, key, &out));
  EXPECT_EQ(out.distance, computed.distance);
  EXPECT_TRUE(ParenSpan(out.repaired) == ParenSpan(computed.repaired));
  EXPECT_EQ(out.script.ToString(), computed.script.ToString());
  EXPECT_EQ(out.telemetry.solver_name, computed.telemetry.solver_name);
  EXPECT_TRUE(out.telemetry.cache_hit);
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(cache.Stats().hits, 1);
}

TEST(RepairCacheTest, OptionsParticipateInTheKey) {
  // Same sequence, different metric: distinct entries, no cross-talk.
  cache::RepairCache cache(1 << 20);
  const ParenSeq seq = Tokens("(()[]");

  Options subs;
  subs.metric = Metric::kDeletionsAndSubstitutions;
  Options dels;
  dels.metric = Metric::kDeletionsOnly;
  const cache::OptionsKey subs_key = cache::OptionsKey::From(subs);
  const cache::OptionsKey dels_key = cache::OptionsKey::From(dels);

  cache.Insert(cache::HashSequence(seq, subs_key), seq, subs_key,
               RepairOf(seq, subs));
  RepairResult out;
  EXPECT_FALSE(
      cache.Lookup(cache::HashSequence(seq, dels_key), seq, dels_key, &out));
  ASSERT_TRUE(
      cache.Lookup(cache::HashSequence(seq, subs_key), seq, subs_key, &out));
}

TEST(RepairCacheTest, BudgetFieldsDoNotParticipateInTheKey) {
  // A clean answer computed under a generous budget must serve a request
  // with a different (still-sufficient) budget: only repair-relevant
  // fields key the entry.
  Options generous;
  generous.timeout_ms = 10000;
  Options tight;
  tight.timeout_ms = 1;
  EXPECT_TRUE(cache::OptionsKey::From(generous) ==
              cache::OptionsKey::From(tight));
}

TEST(RepairCacheTest, AutoAndEmptySolverShareEntries) {
  // "" and "auto" both mean the planner, so they are one key; a forced
  // name is another.
  const Options empty;
  Options named_auto;
  named_auto.solver = "auto";
  Options forced;
  forced.solver = "fpt";
  EXPECT_TRUE(cache::OptionsKey::From(empty) ==
              cache::OptionsKey::From(named_auto));
  EXPECT_FALSE(cache::OptionsKey::From(empty) ==
               cache::OptionsKey::From(forced));

  cache::RepairCache cache(1 << 20);
  const ParenSeq seq = Tokens("(()[]");
  ASSERT_TRUE(Repair(seq, {.solver = "", .cache = &cache}).ok());
  const auto hit = Repair(seq, {.solver = "auto", .cache = &cache});
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->telemetry.cache_hit);
  EXPECT_EQ(cache.Stats().hits, 1);
}

TEST(RepairCacheTest, CollisionsSurviveNarrowHashMask) {
  // Mask every hash to zero: all entries share one chain and only the
  // full-key comparison tells them apart.
  cache::RepairCache::Config config;
  config.byte_budget = 1 << 20;
  config.hash_mask = 0;
  cache::RepairCache cache(config);
  const Options options;
  const cache::OptionsKey key = cache::OptionsKey::From(options);

  const ParenSeq a = Tokens("(()");
  const ParenSeq b = Tokens("[[]");
  cache.Insert(cache::HashSequence(a, key), a, key, RepairOf(a, options));
  cache.Insert(cache::HashSequence(b, key), b, key, RepairOf(b, options));

  RepairResult out_a, out_b;
  ASSERT_TRUE(cache.Lookup(cache::HashSequence(a, key), a, key, &out_a));
  ASSERT_TRUE(cache.Lookup(cache::HashSequence(b, key), b, key, &out_b));
  EXPECT_TRUE(IsBalanced(out_a.repaired));
  EXPECT_TRUE(IsBalanced(out_b.repaired));
  EXPECT_FALSE(ParenSpan(out_a.repaired) == ParenSpan(out_b.repaired));
}

TEST(RepairCacheTest, DegradedResultsAreBypassed) {
  cache::RepairCache cache(1 << 20);
  const ParenSeq seq = Tokens("(()[]");
  const Options options;
  const cache::OptionsKey key = cache::OptionsKey::From(options);
  const uint64_t hash = cache::HashSequence(seq, key);

  RepairResult degraded = RepairOf(seq, options);
  degraded.degraded = true;
  cache.Insert(hash, seq, key, degraded);
  EXPECT_EQ(cache.Stats().inserts, 0);
  EXPECT_EQ(cache.Stats().bypasses, 1);

  RepairResult uncertified = RepairOf(seq, options);
  uncertified.telemetry.certified_factor = 0.0;
  cache.Insert(hash, seq, key, uncertified);
  EXPECT_EQ(cache.Stats().inserts, 0);
  EXPECT_EQ(cache.Stats().bypasses, 2);

  RepairResult out;
  EXPECT_FALSE(cache.Lookup(hash, seq, key, &out));
}

TEST(RepairCacheTest, EvictionRespectsByteBudget) {
  // Mask to one shard so the whole (tiny) budget applies to every entry;
  // inserting many distinct documents must evict rather than grow.
  cache::RepairCache::Config config;
  config.byte_budget = 4096;
  config.hash_mask = 0;
  cache::RepairCache cache(config);
  const Options options;
  const cache::OptionsKey key = cache::OptionsKey::From(options);

  for (int i = 1; i <= 64; ++i) {
    const ParenSeq seq = Tokens(std::string(static_cast<size_t>(i), '(') +
                                std::string(static_cast<size_t>(i), ')'));
    cache.Insert(cache::HashSequence(seq, key), seq, key,
                 RepairOf(seq, options));
  }
  const cache::RepairCacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.bytes, 4096);
  EXPECT_GT(stats.entries, 0);
}

TEST(RepairCacheTest, PreflightLookupCanSkipMissCounter) {
  cache::RepairCache cache(1 << 20);
  const ParenSeq seq = Tokens("(()");
  const Options options;
  const cache::OptionsKey key = cache::OptionsKey::From(options);
  RepairResult out;
  EXPECT_FALSE(cache.Lookup(cache::HashSequence(seq, key), seq, key, &out,
                            /*count_miss=*/false));
  EXPECT_EQ(cache.Stats().misses, 0);
}

TEST(RepairCacheTest, BudgetRatchetsUpNeverDown) {
  cache::RepairCache cache(1024);
  cache.RaiseBudget(512);
  EXPECT_EQ(cache.byte_budget(), 1024);
  cache.RaiseBudget(4096);
  EXPECT_EQ(cache.byte_budget(), 4096);
}

TEST(RepairCacheTest, ResolveCachePrecedence) {
  Options off;
  EXPECT_EQ(cache::ResolveCache(off), nullptr);

  Options shared;
  shared.cache_bytes = 1 << 16;
  cache::RepairCache* resolved = cache::ResolveCache(shared);
  ASSERT_NE(resolved, nullptr);
  EXPECT_EQ(resolved, cache::RepairCache::Shared(1));
  EXPECT_GE(resolved->byte_budget(), 1 << 16);

  cache::RepairCache own(1 << 12);
  Options explicit_cache;
  explicit_cache.cache_bytes = 1 << 16;  // ignored when cache is set
  explicit_cache.cache = &own;
  EXPECT_EQ(cache::ResolveCache(explicit_cache), &own);
}

TEST(InternerTest, InsertThenFindSharesOneSummary) {
  cache::SequenceInterner interner(1 << 20);
  const ParenSeq chunk = Tokens("(()[]{})");
  const uint64_t hash = cache::HashContent(chunk);

  EXPECT_EQ(interner.Find(hash, chunk), nullptr);
  ChunkSummary summary;
  SummarizeChunk(chunk, &summary);
  const ParenSeq residual = summary.residual;

  const auto canonical = interner.Insert(hash, chunk, std::move(summary));
  ASSERT_NE(canonical, nullptr);
  EXPECT_TRUE(ParenSpan(canonical->residual) == ParenSpan(residual));

  const auto found = interner.Find(hash, chunk);
  EXPECT_EQ(found.get(), canonical.get());
  EXPECT_EQ(interner.Stats().entries, 1);
}

TEST(InternerTest, RacedInsertReturnsTheExistingEntry) {
  cache::SequenceInterner interner(1 << 20);
  const ParenSeq chunk = Tokens("([])");
  const uint64_t hash = cache::HashContent(chunk);

  ChunkSummary first;
  SummarizeChunk(chunk, &first);
  const auto a = interner.Insert(hash, chunk, std::move(first));

  ChunkSummary second;
  SummarizeChunk(chunk, &second);
  const auto b = interner.Insert(hash, chunk, std::move(second));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(interner.Stats().entries, 1);
}

TEST(InternerTest, EvictionDropsOnlyTheInternersReference) {
  // Tiny budget, one shard: later inserts evict earlier entries, but the
  // shared_ptr a "document" still holds keeps its summary alive.
  // All entries land in shard 0 (mask 0) but the budget is split over all
  // 16 shards, so the active shard's slice holds only a few summaries.
  cache::SequenceInterner::Config config;
  config.byte_budget = 64 << 10;
  config.hash_mask = 0;
  cache::SequenceInterner interner(config);

  const ParenSeq kept_chunk = Tokens("((((((((");
  ChunkSummary kept_summary;
  SummarizeChunk(kept_chunk, &kept_summary);
  const auto kept = interner.Insert(cache::HashContent(kept_chunk),
                                    kept_chunk, std::move(kept_summary));

  for (int i = 1; i <= 64; ++i) {
    ParenSeq chunk = Tokens(std::string(static_cast<size_t>(i), ')'));
    ChunkSummary summary;
    SummarizeChunk(chunk, &summary);
    interner.Insert(cache::HashContent(chunk), chunk, std::move(summary));
  }
  EXPECT_GT(interner.Stats().evictions, 0);
  // The evicted summary is still fully usable through the caller's ref.
  EXPECT_EQ(kept->residual.size(), kept_chunk.size());
}

TEST(InternerTest, ZeroBudgetStillReturnsAWrappedSummary) {
  cache::SequenceInterner interner(0);
  const ParenSeq chunk = Tokens("()");
  ChunkSummary summary;
  SummarizeChunk(chunk, &summary);
  const auto wrapped =
      interner.Insert(cache::HashContent(chunk), chunk, std::move(summary));
  ASSERT_NE(wrapped, nullptr);
  EXPECT_EQ(interner.Stats().entries, 0);
  EXPECT_EQ(interner.Find(cache::HashContent(chunk), chunk), nullptr);
}

}  // namespace
}  // namespace dyck
