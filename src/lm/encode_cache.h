#ifndef NERGLOB_LM_ENCODE_CACHE_H_
#define NERGLOB_LM_ENCODE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "lm/micro_bert.h"

namespace nerglob::lm {

/// Content address of one Encode() call. `seq` flattens everything the
/// encoder output bits depend on, in order:
///
///   [ total token count,
///     then per token up to max_seq_len: kind, n_subword_ids, ids... ]
///
/// Position embeddings are a function of token index (already implied by
/// the flattening order), truncation is implied by cutting at max_seq_len
/// while the leading total count preserves the bio-label padding length,
/// and LookupForm/elongation-squeezing happen before subword hashing — so
/// two token sequences with equal keys produce bitwise-equal EncodeResults
/// for the same parameter bytes. `model_id` names those parameter bytes:
/// a per-MicroBert-instance serial that the training entry points refresh
/// (see MicroBert::BumpModelVersion), never a config hash, so differently
/// trained weights can never alias.
struct EncodeKey {
  uint64_t model_id = 0;
  std::vector<uint32_t> seq;

  bool operator==(const EncodeKey& other) const {
    return model_id == other.model_id && seq == other.seq;
  }
};

/// FNV-1a over the full key. Hash collisions are harmless: every probe
/// compares the complete key (operator==) before trusting a bucket, so a
/// collision costs a compare, never a wrong EncodeResult.
struct EncodeKeyHash {
  size_t operator()(const EncodeKey& key) const {
    uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(key.model_id);
    for (const uint32_t w : key.seq) mix(w);
    return static_cast<size_t>(h);
  }
};

/// Process-wide, content-addressed cache of exact `EncodeResult` bytes —
/// the steady-state answer to social-stream duplication (retweets /
/// reposts re-submit the same token sequence across batches and sessions;
/// DESIGN.md §cache). A hit returns a copy of the stored matrices, so it
/// is bitwise indistinguishable from a recompute and the repo-wide
/// bit-identity contract survives caching.
///
/// Structure: N-way sharded LRU. A key hashes to one shard; each shard is
/// an intrusive LRU list + index under its own mutex, so concurrent
/// sessions on different shards never contend. Eviction is byte-accounted
/// against a per-shard slice of the total budget (EntryBytes counts the
/// value matrices, the key, and fixed node overhead), oldest-first.
///
/// The process-wide instance has kGlobalShards shards and a budget set by
/// one environment knob, latched on first use:
///   NERGLOB_ENCODE_CACHE_MB  total budget in MiB; 0 (default) disables
///                            the cache entirely — Global() returns nullptr
///                            and every encode path is byte-for-byte the
///                            uncached status quo.
///
/// Observability: lm.encode_cache.{hits,misses,evictions} counters and
/// lm.encode_cache.{bytes,entries} gauges in the global MetricsRegistry,
/// mirrored by lock-free stats that work with metrics disabled (tests).
/// Insert carries the `cache.insert` fault-injection site: an injected
/// failure drops the insert on the floor — a future miss, never a corrupt
/// entry (docs/RELIABILITY.md).
class EncodeCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t inserts_dropped = 0;  ///< fault-injected or over-budget skips
    size_t bytes = 0;
    size_t entries = 0;
  };

  /// Shard count of the process-wide instance: one mutex per shard.
  static constexpr size_t kGlobalShards = 8;

  /// A cache with `budget_bytes` total capacity split across `shards`
  /// LRU shards (both clamped to >= 1).
  EncodeCache(size_t budget_bytes, size_t shards);

  EncodeCache(const EncodeCache&) = delete;
  EncodeCache& operator=(const EncodeCache&) = delete;

  /// On hit, copies the stored result into `*out`, promotes the entry to
  /// most-recently-used, and returns true. On miss returns false and
  /// leaves `*out` untouched.
  bool Lookup(const EncodeKey& key, EncodeResult* out);

  /// Stores a copy of `value` under `key`, evicting least-recently-used
  /// entries from the shard until it fits. No-ops (degrading to a future
  /// miss) when the `cache.insert` fault fires, when the entry alone
  /// exceeds the shard budget, or when the key is already present — a
  /// racing duplicate insert keeps the existing bytes, which are
  /// bit-identical by the key contract.
  void Insert(const EncodeKey& key, const EncodeResult& value);

  /// Current footprint, following the per-store accounting convention
  /// (StreamState::MemoryUsage): payload bytes + container node overhead.
  size_t MemoryUsageBytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  size_t Entries() const { return entries_.load(std::memory_order_relaxed); }

  Stats StatsSnapshot() const;

  /// Accounted size of one cache entry: both matrices, the bio labels,
  /// two key copies (LRU node + index), and fixed node overhead.
  static size_t EntryBytes(const EncodeKey& key, const EncodeResult& value);

  /// The process-wide cache, or nullptr when NERGLOB_ENCODE_CACHE_MB=0
  /// (the default — cache-off is the status quo). The budget knob is
  /// latched on the first call.
  static EncodeCache* Global();

  /// Test hook: overrides Global() (nullptr restores the env-configured
  /// instance). Not for production use; no ownership transfer.
  static void SetGlobalForTesting(EncodeCache* cache);

 private:
  struct Entry {
    EncodeKey key;
    EncodeResult value;
    size_t bytes = 0;
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<EncodeKey, std::list<Entry>::iterator, EncodeKeyHash>
        index;
    size_t bytes = 0;  // guarded by mu
  };

  size_t ShardIndex(const EncodeKey& key) const {
    // Mix the hash before reducing so shard choice and in-shard bucket
    // choice use different bits.
    const uint64_t h = EncodeKeyHash{}(key) * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>((h >> 32) % shards_.size());
  }

  void PublishGauges();

  size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> entries_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> inserts_dropped_{0};
};

}  // namespace nerglob::lm

#endif  // NERGLOB_LM_ENCODE_CACHE_H_
