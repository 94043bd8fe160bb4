// Content-hash repair cache (ROADMAP: repair cache and cross-document
// dedup).
//
// The staged pipeline's output is a pure function of (tokens, repair-
// relevant options): same sequence, same metric/style/selection knobs,
// same result, byte for byte. Serving workloads repeat — identical
// boilerplate documents, replayed reverts, retried requests — so a
// content-addressed cache turns the second and every later repair of a
// sequence into a hash, one shard lock, and a vector copy.
//
// Key. A 64-bit hash over the sequence (type and direction of every
// symbol, mixed explicitly — Paren has padding bytes, so raw-byte hashing
// would be UB-adjacent and nondeterministic) combined with an OptionsKey
// holding exactly the Options fields the result depends on: metric,
// solver, style, max_distance, max_approximation_factor.
// Budget fields (timeout_ms / max_work_steps / max_memory_bytes /
// on_budget_exceeded) are deliberately excluded: only clean, non-degraded
// results are ever stored, and a clean result is invariant under budget
// settings — the budget decides *whether* the exact answer is produced,
// never *which* answer. Hash collisions are survivable by construction:
// every entry stores its full key (sequence + OptionsKey) and Lookup
// compares both before declaring a hit.
//
// Sharding. Entries are striped over kNumShards independent shards, each
// with its own mutex, map, and LRU list — the lock-array idiom of fermi's
// errcorr_t bucket locks, applied at shard rather than bucket granularity.
// Concurrent hits on distinct shards never contend; the per-shard critical
// sections are O(1) plus the entry copy.
//
// Eviction. Each shard runs CLOCK over its LRU ring: a hit sets the
// entry's reference bit (no list splice, so hits stay cheap under
// contention); inserts sweep from the LRU end, giving one second chance to
// referenced entries, until the shard fits its slice of the byte budget.
// The budget counts the entries' real payload bytes (key sequence, edit
// script, repaired sequence) plus a fixed per-entry overhead estimate.
//
// What is cached. Exact results and *certified* approximate results
// (certified_factor >= 1.0) — both are pure functions of the key, and a
// cached certificate serves repeat traffic its accuracy bound for free.
// Degraded and uncertified results are never stored (they depend on where
// a budget happened to trip) and count as bypasses.
//
// Thread safety: every public method is safe to call concurrently.

#ifndef DYCKFIX_SRC_CACHE_REPAIR_CACHE_H_
#define DYCKFIX_SRC_CACHE_REPAIR_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/dyck.h"

namespace dyck {
namespace cache {

/// The repair-relevant Options fields; see the header comment for why the
/// budget knobs are excluded. Build one with OptionsKey::From.
struct OptionsKey {
  Metric metric = Metric::kDeletionsAndSubstitutions;
  /// Options::solver, with "auto" spelled "" (both mean the planner, so
  /// they share entries).
  std::string solver;
  RepairStyle style = RepairStyle::kMinimalEdits;
  int64_t max_distance = -1;
  /// Clamped to >= 1.0, mirroring the planner (values below 1.0 mean
  /// "exact" and must share entries with 1.0).
  double max_approximation_factor = 1.0;

  static OptionsKey From(const Options& options);

  bool operator==(const OptionsKey& other) const = default;
};

/// 64-bit content hash of `seq` alone (no options). Deterministic across
/// runs and platforms; mixes each symbol's type and direction explicitly.
/// Keys the sequence interner, whose values are option-independent.
uint64_t HashContent(ParenSpan seq);

/// 64-bit content hash of `seq` under `key` — HashContent folded with the
/// repair-relevant option fields. Keys the repair cache.
uint64_t HashSequence(ParenSpan seq, const OptionsKey& key);

/// Point-in-time counters of one RepairCache.
struct RepairCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  /// Results offered to Insert but refused: degraded/uncertified answers,
  /// or entries larger than the whole byte budget.
  int64_t bypasses = 0;
  int64_t evictions = 0;
  int64_t entries = 0;
  int64_t bytes = 0;
  int64_t byte_budget = 0;
};

class RepairCache {
 public:
  struct Config {
    /// Total payload-byte budget across all shards; <= 0 caches nothing.
    int64_t byte_budget = 0;
    /// Test seam: hashes are AND-ed with this mask before use, so a
    /// narrow mask forces collisions without weakening the full-key
    /// comparison. Production callers leave it all-ones.
    uint64_t hash_mask = ~uint64_t{0};
  };

  explicit RepairCache(int64_t byte_budget)
      : RepairCache(Config{byte_budget}) {}
  explicit RepairCache(const Config& config);

  RepairCache(const RepairCache&) = delete;
  RepairCache& operator=(const RepairCache&) = delete;

  /// Looks up (seq, key). On a hit, fills `out` with the cached result —
  /// distance, script, repaired sequence, and the solver-attribution
  /// telemetry fields (solver_name, balanced_fast_path, certified_factor,
  /// exact_lower_bound) — byte-identical to the run
  /// that produced the entry, sets out->telemetry.cache_hit, and returns
  /// true. `hash` must be HashSequence(seq, key). `count_miss` = false
  /// suppresses the miss counter for pre-flight probes whose miss path
  /// re-consults the cache downstream (the serving daemon's pre-admission
  /// check), so one request never counts two misses.
  bool Lookup(uint64_t hash, ParenSpan seq, const OptionsKey& key,
              RepairResult* out, bool count_miss = true);

  /// Stores `result` under (seq, key) unless it is degraded/uncertified
  /// (certified_factor < 1.0) or larger than the whole budget — those are
  /// counted as bypasses. Re-inserting an existing key refreshes the
  /// entry. Never throws on allocation pressure beyond what vector copies
  /// can throw.
  void Insert(uint64_t hash, ParenSpan seq, const OptionsKey& key,
              const RepairResult& result);

  RepairCacheStats Stats() const;

  int64_t byte_budget() const {
    return byte_budget_.load(std::memory_order_relaxed);
  }
  /// Raises the byte budget to at least `min_byte_budget` (never shrinks:
  /// concurrent shrinking would turn every hit into a potential eviction
  /// race for no serving benefit).
  void RaiseBudget(int64_t min_byte_budget);

  /// The process-wide shared cache, created on first use. The budget only
  /// grows: each call raises it to at least `min_byte_budget`, so
  /// independent callers (C API threads, CLI one-shots) share one pool
  /// sized for the largest request. Never destroyed (intentionally leaked,
  /// like the solver registry) so worker threads may touch it during
  /// static teardown.
  static RepairCache* Shared(int64_t min_byte_budget);

 private:
  struct Entry {
    // Full key, compared on every probe (the hash only routes).
    uint64_t hash = 0;  // already masked; keyed into the shard index
    ParenSeq key_seq;
    OptionsKey key_options;
    // Cached result payload.
    int64_t distance = 0;
    EditScript script;
    ParenSeq repaired;
    // Solver attribution restored into the hit's telemetry.
    std::string solver_name;
    bool balanced_fast_path = false;
    double certified_factor = 1.0;
    int64_t exact_lower_bound = -1;
    // CLOCK reference bit: set by hits, cleared (one second chance) by the
    // eviction sweep. Guarded by the shard mutex.
    bool referenced = false;
    int64_t bytes = 0;
  };

  struct Shard {
    std::mutex mu;
    // LRU ring: front = oldest (next eviction candidate), back = newest.
    std::list<Entry> entries;
    std::unordered_map<uint64_t, std::vector<std::list<Entry>::iterator>>
        index;
    int64_t bytes = 0;
  };

  static int64_t EntryBytes(const Entry& entry);
  void EvictLocked(Shard& shard, int64_t shard_budget);

  static constexpr int kNumShards = 16;

  std::atomic<int64_t> byte_budget_;
  const uint64_t hash_mask_;
  Shard shards_[kNumShards];

  // Monotone counters; relaxed — independent and only read as totals.
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> inserts_{0};
  mutable std::atomic<int64_t> bypasses_{0};
  mutable std::atomic<int64_t> evictions_{0};
};

/// Resolves the cache a repair call should consult: options.cache when
/// set, else the process-wide shared cache when options.cache_bytes > 0,
/// else null (caching disabled).
RepairCache* ResolveCache(const Options& options);

}  // namespace cache
}  // namespace dyck

#endif  // DYCKFIX_SRC_CACHE_REPAIR_CACHE_H_
