#include "lm/encode_cache.h"

#include <algorithm>

#include "common/env.h"
#include "common/fault_injector.h"
#include "common/metrics.h"

namespace nerglob::lm {

namespace {

/// Fixed per-entry overhead: one LRU list node (prev/next + allocation
/// header), one index bucket (hash, iterator, chain pointer), rounded up.
constexpr size_t kEntryOverheadBytes = 128;

/// Testing override; while the flag is set the pointer wins over the
/// env-configured instance (SetGlobalForTesting(nullptr) clears the flag).
std::atomic<EncodeCache*> g_override{nullptr};
std::atomic<bool> g_override_set{false};

struct CacheMetrics {
  metrics::Counter* hits;
  metrics::Counter* misses;
  metrics::Counter* evictions;
  metrics::Gauge* bytes;
  metrics::Gauge* entries;
};

/// Registry slots are process-lifetime stable, so resolve them once.
const CacheMetrics& Instruments() {
  static const CacheMetrics m = [] {
    auto& registry = metrics::MetricsRegistry::Global();
    return CacheMetrics{
        registry.GetCounter("lm.encode_cache.hits"),
        registry.GetCounter("lm.encode_cache.misses"),
        registry.GetCounter("lm.encode_cache.evictions"),
        registry.GetGauge("lm.encode_cache.bytes"),
        registry.GetGauge("lm.encode_cache.entries"),
    };
  }();
  return m;
}

}  // namespace

EncodeCache::EncodeCache(size_t budget_bytes, size_t shards) {
  const size_t shard_count = std::max<size_t>(shards, 1);
  shard_budget_ = std::max<size_t>(std::max<size_t>(budget_bytes, 1) / shard_count, 1);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool EncodeCache::Lookup(const EncodeKey& key, EncodeResult* out) {
  Shard& shard = *shards_[ShardIndex(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    Instruments().misses->Increment();
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  // Deep copy under the shard lock: a hit must be indistinguishable from
  // a recompute even if the entry is evicted the instant we release.
  *out = it->second->value;
  hits_.fetch_add(1, std::memory_order_relaxed);
  Instruments().hits->Increment();
  return true;
}

void EncodeCache::Insert(const EncodeKey& key, const EncodeResult& value) {
  // Chaos probe: a failed insert degrades to a future miss — the caller
  // already holds the freshly computed result, so output is unaffected.
  if (fault::InjectFault(fault::kSiteCacheInsert)) {
    inserts_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const size_t entry_bytes = EntryBytes(key, value);
  if (entry_bytes > shard_budget_) {
    // Would evict the whole shard and still not fit.
    inserts_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  size_t evicted = 0;
  {
    Shard& shard = *shards_[ShardIndex(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.find(key) != shard.index.end()) {
      // Racing duplicate: keep the resident bytes, which are bit-identical
      // to `value` by the key contract.
      return;
    }
    shard.lru.push_front(Entry{key, value, entry_bytes});
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += entry_bytes;
    bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
      const Entry& oldest = shard.lru.back();
      shard.bytes -= oldest.bytes;
      bytes_.fetch_sub(oldest.bytes, std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      shard.index.erase(oldest.key);
      shard.lru.pop_back();
      ++evicted;
    }
  }
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    Instruments().evictions->Increment(evicted);
  }
  PublishGauges();
}

void EncodeCache::PublishGauges() {
  Instruments().bytes->Set(
      static_cast<double>(bytes_.load(std::memory_order_relaxed)));
  Instruments().entries->Set(
      static_cast<double>(entries_.load(std::memory_order_relaxed)));
}

EncodeCache::Stats EncodeCache::StatsSnapshot() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.inserts_dropped = inserts_dropped_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

size_t EncodeCache::EntryBytes(const EncodeKey& key, const EncodeResult& value) {
  // The key is stored twice (LRU node + index key); matrices count their
  // element storage, matching the StreamState accounting convention.
  const size_t key_bytes = sizeof(EncodeKey) + key.seq.size() * sizeof(uint32_t);
  return kEntryOverheadBytes + 2 * key_bytes +
         value.embeddings.size() * sizeof(float) +
         value.logits.size() * sizeof(float) +
         value.bio_labels.size() * sizeof(int) + sizeof(EncodeResult);
}

EncodeCache* EncodeCache::Global() {
  if (g_override_set.load(std::memory_order_acquire)) {
    return g_override.load(std::memory_order_acquire);
  }
  // Knobs latch on first use, like every other runtime-sizing knob.
  static EncodeCache* const cache = []() -> EncodeCache* {
    const int64_t mb =
        env::EnvInt("NERGLOB_ENCODE_CACHE_MB", 0, 0, /*max=*/1 << 20);
    if (mb == 0) return nullptr;
    return new EncodeCache(static_cast<size_t>(mb) * 1024 * 1024,
                           kGlobalShards);
  }();
  return cache;
}

void EncodeCache::SetGlobalForTesting(EncodeCache* cache) {
  if (cache == nullptr) {
    g_override_set.store(false, std::memory_order_release);
    g_override.store(nullptr, std::memory_order_release);
    return;
  }
  g_override.store(cache, std::memory_order_release);
  g_override_set.store(true, std::memory_order_release);
}

}  // namespace nerglob::lm
