#include "src/cache/repair_cache.h"

#include <algorithm>
#include <utility>

namespace dyck {
namespace cache {

namespace {

// splitmix64 finalizer: the standard 64-bit avalanche mix. Deterministic
// across platforms (pure integer arithmetic).
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline uint64_t Combine(uint64_t h, uint64_t v) {
  return Mix(h ^ Mix(v));
}

uint64_t HashString(uint64_t h, const std::string& s) {
  h = Combine(h, s.size());
  // Strings here are short solver names; fold 8 bytes at a time without
  // relying on alignment.
  uint64_t word = 0;
  int filled = 0;
  for (const char c : s) {
    word = (word << 8) | static_cast<unsigned char>(c);
    if (++filled == 8) {
      h = Combine(h, word);
      word = 0;
      filled = 0;
    }
  }
  if (filled > 0) h = Combine(h, word);
  return h;
}

}  // namespace

OptionsKey OptionsKey::From(const Options& options) {
  OptionsKey key;
  key.metric = options.metric;
  if (options.solver != "auto") key.solver = options.solver;
  key.style = options.style;
  key.max_distance = options.max_distance;
  key.max_approximation_factor =
      options.max_approximation_factor < 1.0
          ? 1.0
          : options.max_approximation_factor;
  return key;
}

uint64_t HashContent(ParenSpan seq) {
  uint64_t h = Combine(0x64796b6669786361ull, seq.size());
  for (const Paren& p : seq) {
    // Mix fields explicitly: Paren carries padding bytes, so hashing its
    // object representation would be nondeterministic.
    h = Combine(h, (static_cast<uint64_t>(static_cast<uint32_t>(p.type))
                    << 1) |
                       (p.is_open ? 1u : 0u));
  }
  return h;
}

uint64_t HashSequence(ParenSpan seq, const OptionsKey& key) {
  uint64_t h = HashContent(seq);
  h = Combine(h, static_cast<uint64_t>(key.metric));
  h = Combine(h, static_cast<uint64_t>(key.style));
  h = Combine(h, static_cast<uint64_t>(key.max_distance));
  h = HashString(h, key.solver);
  // The factor is clamped to >= 1.0 by OptionsKey::From, so its bit
  // pattern is a stable function of the value (no -0.0), and a NaN factor
  // fails ResolveSolver before any repair path stores a result.
  uint64_t factor_bits = 0;
  static_assert(sizeof(factor_bits) == sizeof(key.max_approximation_factor));
  __builtin_memcpy(&factor_bits, &key.max_approximation_factor,
                   sizeof(factor_bits));
  h = Combine(h, factor_bits);
  return h;
}

RepairCache::RepairCache(const Config& config)
    : byte_budget_(config.byte_budget < 0 ? 0 : config.byte_budget),
      hash_mask_(config.hash_mask) {}

int64_t RepairCache::EntryBytes(const Entry& entry) {
  // Payload bytes of the vectors plus a flat overhead estimate for the
  // list node, the map slot, and the small members. Exact malloc
  // accounting is not the point; the budget just has to scale with real
  // memory use.
  constexpr int64_t kOverhead = 160;
  return kOverhead +
         static_cast<int64_t>(entry.key_seq.capacity() * sizeof(Paren)) +
         static_cast<int64_t>(entry.script.ops.capacity() * sizeof(EditOp)) +
         static_cast<int64_t>(entry.script.aligned_pairs.capacity() *
                              sizeof(std::pair<int64_t, int64_t>)) +
         static_cast<int64_t>(entry.repaired.capacity() * sizeof(Paren)) +
         static_cast<int64_t>(entry.solver_name.size());
}

void RepairCache::RaiseBudget(int64_t min_byte_budget) {
  int64_t seen = byte_budget_.load(std::memory_order_relaxed);
  while (min_byte_budget > seen &&
         !byte_budget_.compare_exchange_weak(seen, min_byte_budget,
                                             std::memory_order_relaxed)) {
  }
}

bool RepairCache::Lookup(uint64_t hash, ParenSpan seq, const OptionsKey& key,
                         RepairResult* out, bool count_miss) {
  if (byte_budget() <= 0) return false;
  hash &= hash_mask_;
  Shard& shard = shards_[hash % kNumShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(hash);
    if (it != shard.index.end()) {
      for (const auto& entry_it : it->second) {
        Entry& entry = *entry_it;
        if (entry.key_options != key || !(ParenSpan(entry.key_seq) == seq)) {
          continue;  // hash collision; keep probing the chain
        }
        entry.referenced = true;  // CLOCK second chance, no list splice
        out->distance = entry.distance;
        out->script = entry.script;
        out->repaired = entry.repaired;
        out->degraded = false;
        out->telemetry.solver_name = entry.solver_name;
        out->telemetry.balanced_fast_path = entry.balanced_fast_path;
        out->telemetry.certified_factor = entry.certified_factor;
        out->telemetry.exact_lower_bound = entry.exact_lower_bound;
        out->telemetry.input_length = static_cast<int64_t>(seq.size());
        out->telemetry.cache_hit = true;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  if (count_miss) misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void RepairCache::Insert(uint64_t hash, ParenSpan seq, const OptionsKey& key,
                         const RepairResult& result) {
  const int64_t budget = byte_budget();
  if (budget <= 0) return;
  // Only clean results are pure functions of the key: degraded answers
  // depend on where the budget tripped, uncertified ones (factor 0) are
  // degrade artifacts too.
  if (result.degraded || result.telemetry.certified_factor < 1.0) {
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  hash &= hash_mask_;
  Entry fresh;
  fresh.hash = hash;
  fresh.key_seq = seq.ToSeq();
  fresh.key_options = key;
  fresh.distance = result.distance;
  fresh.script = result.script;
  fresh.repaired = result.repaired;
  fresh.solver_name = result.telemetry.solver_name;
  fresh.balanced_fast_path = result.telemetry.balanced_fast_path;
  fresh.certified_factor = result.telemetry.certified_factor;
  fresh.exact_lower_bound = result.telemetry.exact_lower_bound;
  fresh.bytes = EntryBytes(fresh);

  const int64_t shard_budget = std::max<int64_t>(budget / kNumShards, 1);
  if (fresh.bytes > shard_budget) {
    // Larger than its shard's whole slice: caching it would immediately
    // evict everything else for one entry of doubtful reuse value.
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  Shard& shard = shards_[hash % kNumShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& chain = shard.index[hash];
  for (auto chain_it = chain.begin(); chain_it != chain.end(); ++chain_it) {
    Entry& existing = **chain_it;
    if (existing.key_options == key &&
        ParenSpan(existing.key_seq) == ParenSpan(fresh.key_seq)) {
      // Refresh in place (a re-run of the same key produced the same
      // result; keep the newer buffers and bump recency).
      shard.bytes -= existing.bytes;
      existing = std::move(fresh);
      shard.bytes += existing.bytes;
      existing.referenced = true;
      EvictLocked(shard, shard_budget);
      return;
    }
  }
  shard.entries.push_back(std::move(fresh));
  auto entry_it = std::prev(shard.entries.end());
  chain.push_back(entry_it);
  shard.bytes += entry_it->bytes;
  inserts_.fetch_add(1, std::memory_order_relaxed);
  EvictLocked(shard, shard_budget);
}

void RepairCache::EvictLocked(Shard& shard, int64_t shard_budget) {
  // CLOCK sweep over the LRU ring: referenced entries get one second
  // chance (bit cleared, moved to the back), unreferenced ones are
  // evicted, until the shard fits. Terminates: every pass over the ring
  // either evicts or clears a bit, and a cleared entry reached again
  // without an intervening hit is evicted.
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

RepairCacheStats RepairCache::Stats() const {
  RepairCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.bypasses = bypasses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.byte_budget = byte_budget();
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(shard.mu));
    stats.entries += static_cast<int64_t>(shard.entries.size());
    stats.bytes += shard.bytes;
  }
  return stats;
}

RepairCache* RepairCache::Shared(int64_t min_byte_budget) {
  // The shared cache must outlive every thread that might touch it during
  // static teardown, so it is intentionally leaked (same pattern as the
  // solver registry). The budget ratchets up to the largest request seen.
  static RepairCache* shared = new RepairCache(Config{0});
  shared->RaiseBudget(min_byte_budget);
  return shared;
}

RepairCache* ResolveCache(const Options& options) {
  if (options.cache != nullptr) return options.cache;
  if (options.cache_bytes > 0) return RepairCache::Shared(options.cache_bytes);
  return nullptr;
}

}  // namespace cache
}  // namespace dyck
