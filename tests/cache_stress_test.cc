// Concurrency stress for the content-hash repair cache and the sequence
// interner, designed to run under TSan (the tsan preset's test filter
// includes "Cache"): many threads hammering a small set of keys through a
// narrow hash mask (every probe walks a colliding chain) over a byte
// budget tight enough that eviction races hits and inserts continuously.
// Correctness bar: no data race, no lost update visible as a wrong
// payload — every hit must return the exact result of the key it asked
// for.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/interner.h"
#include "src/cache/repair_cache.h"
#include "src/core/dyck.h"
#include "src/gen/workload.h"
#include "src/runtime/batch_engine.h"
#include "src/textio/bracket_tokenizer.h"

namespace dyck {
namespace {

ParenSeq Tokens(const std::string& text) {
  return textio::TokenizeBrackets(text, ParenAlphabet::Default()).seq;
}

std::vector<ParenSeq> MakeDocs(int count, int64_t length) {
  std::vector<ParenSeq> docs;
  docs.reserve(count);
  for (int i = 0; i < count; ++i) {
    gen::BalancedOptions balanced;
    balanced.length = length;
    gen::CorruptionOptions corrupt;
    corrupt.num_edits = 3;
    docs.push_back(gen::Corrupt(gen::RandomBalanced(balanced, 7000 + 2 * i),
                                corrupt, 7001 + 2 * i)
                       .seq);
  }
  return docs;
}

TEST(CacheStressTest, CollidingHitsInsertsAndEvictionsRace) {
  // hash_mask = 0x3: four distinct masked hashes for 24 documents, so
  // chains are long, shards contended, and -- with a budget sized for
  // only a fraction of the working set -- the CLOCK sweep constantly
  // evicts entries other threads are about to hit.
  const std::vector<ParenSeq> docs = MakeDocs(24, 96);
  const Options options;
  const cache::OptionsKey key = cache::OptionsKey::From(options);

  std::vector<RepairResult> expected(docs.size());
  std::vector<uint64_t> hashes(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    auto result = Repair(docs[i], options);
    ASSERT_TRUE(result.ok());
    expected[i] = std::move(result).value();
    hashes[i] = cache::HashSequence(docs[i], key);
  }

  // The budget is split evenly over all 16 shards even though the mask
  // confines traffic to 4 of them, so each active shard's slice holds
  // only ~2 of the ~6 entries that hash to it: constant eviction churn.
  cache::RepairCache::Config config;
  config.byte_budget = 64 << 10;
  config.hash_mask = 0x3;
  cache::RepairCache cache(config);

  constexpr int kThreads = 8;
  constexpr int kIterations = 400;
  std::atomic<int64_t> observed_hits{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RepairResult out;
      for (int iter = 0; iter < kIterations; ++iter) {
        const size_t i =
            (static_cast<size_t>(t) * 131 + static_cast<size_t>(iter)) %
            docs.size();
        if (cache.Lookup(hashes[i], docs[i], key, &out)) {
          observed_hits.fetch_add(1, std::memory_order_relaxed);
          // A hit must be the payload of *this* key, even mid-eviction.
          if (out.distance != expected[i].distance ||
              !(ParenSpan(out.repaired) == ParenSpan(expected[i].repaired))) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        } else {
          cache.Insert(hashes[i], docs[i], key, expected[i]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(failed.load());
  const cache::RepairCacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.evictions, 0) << "budget did not force eviction races";
  EXPECT_EQ(stats.hits, observed_hits.load());
}

TEST(CacheStressTest, SharedBudgetRatchetRaces) {
  // Concurrent RaiseBudget calls must settle on the maximum.
  cache::RepairCache cache(1);
  std::vector<std::thread> threads;
  for (int t = 1; t <= 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 1000; ++i) {
        cache.RaiseBudget(static_cast<int64_t>(t) * 1000 + i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(cache.byte_budget(), 8999);
}

TEST(CacheStressTest, InternerConcurrentInsertConvergesToOneSummary) {
  // All threads intern the same handful of chunks through colliding
  // hashes under an evicting budget; whoever loses an insert race must
  // still get a usable canonical summary.
  const std::vector<ParenSeq> chunks = {
      Tokens("(()[]{})"), Tokens("(((("), Tokens("))))"),
      Tokens("[<>{}]"),   Tokens(")]})"),
  };
  cache::SequenceInterner::Config config;
  config.byte_budget = 4096;
  config.hash_mask = 0x1;
  cache::SequenceInterner interner(config);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 400; ++iter) {
        const size_t i =
            (static_cast<size_t>(t) + static_cast<size_t>(iter)) %
            chunks.size();
        const uint64_t hash = cache::HashContent(chunks[i]);
        std::shared_ptr<const ChunkSummary> summary =
            interner.Find(hash, chunks[i]);
        if (summary == nullptr) {
          ChunkSummary fresh;
          SummarizeChunk(chunks[i], &fresh);
          summary = interner.Insert(hash, chunks[i], std::move(fresh));
        }
        // The shared summary must describe this chunk regardless of which
        // thread created it or whether it was since evicted.
        ChunkSummary check;
        SummarizeChunk(chunks[i], &check);
        if (summary == nullptr ||
            !(ParenSpan(summary->residual) == ParenSpan(check.residual))) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
}

TEST(CacheStressTest, BatchEngineWorkersShareOneCache) {
  // End-to-end: many workers, repeated documents, small budget — the
  // engine-wide cache is hammered through the real pipeline path.
  std::vector<ParenSeq> docs = MakeDocs(8, 128);
  std::vector<ParenSeq> stream;
  for (int round = 0; round < 12; ++round) {
    for (const ParenSeq& doc : docs) stream.push_back(doc);
  }

  runtime::BatchRepairEngine plain({.jobs = 4});
  runtime::BatchOptions cached_options;
  cached_options.jobs = 4;
  cached_options.cache_bytes = 1 << 20;
  runtime::BatchRepairEngine cached(cached_options);

  const auto reference = plain.RepairAll(stream, {});
  const auto outcome = cached.RepairAll(stream, {});
  ASSERT_EQ(reference.results.size(), outcome.results.size());
  for (size_t i = 0; i < reference.results.size(); ++i) {
    ASSERT_TRUE(reference.results[i].ok());
    ASSERT_TRUE(outcome.results[i].ok());
    EXPECT_EQ(reference.results[i]->distance, outcome.results[i]->distance);
    EXPECT_TRUE(ParenSpan(reference.results[i]->repaired) ==
                ParenSpan(outcome.results[i]->repaired));
  }
  ASSERT_NE(cached.repair_cache(), nullptr);
  EXPECT_GT(cached.repair_cache()->Stats().hits, 0);
}

}  // namespace
}  // namespace dyck
