#include "src/cache/interner.h"

#include <algorithm>
#include <utility>

namespace dyck {
namespace cache {

SequenceInterner::SequenceInterner(const Config& config)
    : byte_budget_(config.byte_budget < 0 ? 0 : config.byte_budget),
      hash_mask_(config.hash_mask) {}

int64_t SequenceInterner::EntryBytes(const Entry& entry) {
  // Payload bytes of the key and the summary's vectors plus a flat
  // overhead estimate (list node, map slot, control block).
  constexpr int64_t kOverhead = 192;
  const ChunkSummary& s = *entry.summary;
  return kOverhead +
         static_cast<int64_t>(entry.key_seq.capacity() * sizeof(Paren)) +
         static_cast<int64_t>(s.residual.capacity() * sizeof(Paren)) +
         static_cast<int64_t>(s.residual_pos.capacity() * sizeof(int64_t));
}

void SequenceInterner::RaiseBudget(int64_t min_byte_budget) {
  int64_t seen = byte_budget_.load(std::memory_order_relaxed);
  while (min_byte_budget > seen &&
         !byte_budget_.compare_exchange_weak(seen, min_byte_budget,
                                             std::memory_order_relaxed)) {
  }
}

std::shared_ptr<const ChunkSummary> SequenceInterner::Find(uint64_t hash,
                                                           ParenSpan chunk) {
  if (byte_budget() <= 0) return nullptr;
  hash &= hash_mask_;
  Shard& shard = shards_[hash % kNumShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(hash);
    if (it != shard.index.end()) {
      for (const auto& entry_it : it->second) {
        Entry& entry = *entry_it;
        if (!(ParenSpan(entry.key_seq) == chunk)) {
          continue;  // hash collision; keep probing the chain
        }
        entry.referenced = true;  // CLOCK second chance, no list splice
        hits_.fetch_add(1, std::memory_order_relaxed);
        return entry.summary;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

std::shared_ptr<const ChunkSummary> SequenceInterner::Insert(
    uint64_t hash, ParenSpan chunk, ChunkSummary summary) {
  auto shared = std::make_shared<const ChunkSummary>(std::move(summary));
  const int64_t budget = byte_budget();
  if (budget <= 0) return shared;
  hash &= hash_mask_;
  Entry fresh;
  fresh.hash = hash;
  fresh.key_seq = chunk.ToSeq();
  fresh.summary = shared;
  fresh.bytes = EntryBytes(fresh);

  const int64_t shard_budget = std::max<int64_t>(budget / kNumShards, 1);
  if (fresh.bytes > shard_budget) return shared;  // too big to retain

  Shard& shard = shards_[hash % kNumShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& chain = shard.index[hash];
  for (const auto& entry_it : chain) {
    Entry& existing = *entry_it;
    if (ParenSpan(existing.key_seq) == ParenSpan(fresh.key_seq)) {
      // Raced with another interning of the same content: the existing
      // entry is canonical, our copy is dropped.
      existing.referenced = true;
      return existing.summary;
    }
  }
  shard.entries.push_back(std::move(fresh));
  auto entry_it = std::prev(shard.entries.end());
  chain.push_back(entry_it);
  shard.bytes += entry_it->bytes;
  inserts_.fetch_add(1, std::memory_order_relaxed);
  EvictLocked(shard, shard_budget);
  return shared;
}

void SequenceInterner::EvictLocked(Shard& shard, int64_t shard_budget) {
  // CLOCK sweep, same shape as RepairCache::EvictLocked. Dropping an entry
  // only releases the interner's shared_ptr; documents still holding the
  // summary keep it alive.
  while (shard.bytes > shard_budget && !shard.entries.empty()) {
    auto victim = shard.entries.begin();
    if (victim->referenced) {
      victim->referenced = false;
      shard.entries.splice(shard.entries.end(), shard.entries, victim);
      continue;
    }
    auto it = shard.index.find(victim->hash);
    if (it != shard.index.end()) {
      auto& chain = it->second;
      for (auto chain_it = chain.begin(); chain_it != chain.end();
           ++chain_it) {
        if (*chain_it == victim) {
          chain.erase(chain_it);
          break;
        }
      }
      if (chain.empty()) shard.index.erase(it);
    }
    shard.bytes -= victim->bytes;
    shard.entries.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

SequenceInternerStats SequenceInterner::Stats() const {
  SequenceInternerStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.byte_budget = byte_budget();
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(shard.mu));
    stats.entries += static_cast<int64_t>(shard.entries.size());
    stats.bytes += shard.bytes;
  }
  return stats;
}

SequenceInterner* SequenceInterner::Shared(int64_t min_byte_budget) {
  static SequenceInterner* shared = new SequenceInterner(Config{0});
  shared->RaiseBudget(min_byte_budget);
  return shared;
}

}  // namespace cache
}  // namespace dyck
