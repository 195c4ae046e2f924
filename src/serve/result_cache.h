#ifndef DBG4ETH_SERVE_RESULT_CACHE_H_
#define DBG4ETH_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "eth/types.h"

namespace dbg4eth {
namespace serve {

/// \brief Sizing of the result cache.
struct ResultCacheConfig {
  /// Total entries across all shards; each shard holds capacity/num_shards
  /// (rounded up, minimum 1).
  size_t capacity = 4096;
  /// Independent LRU shards; lookups lock only their shard, so shards
  /// bound lock contention between workers.
  int num_shards = 8;
};

/// \brief Sharded LRU cache of scored probabilities keyed by
/// (address, ledger height); each entry also records the model generation
/// that produced its score.
///
/// The ledger height is part of the key: as soon as the service observes a
/// taller ledger, lookups for the new height miss and fresh scores are
/// computed, so stale entries are never returned. `InvalidateOlderThan`
/// additionally drops entries from superseded heights eagerly to free
/// capacity.
///
/// The cache counts nothing: its owner books hits, misses and evictions
/// (InferenceService, through ServerStats).
class ResultCache {
 public:
  struct Key {
    eth::AccountId address = -1;
    uint64_t height = 0;
    bool operator==(const Key& other) const {
      return address == other.address && height == other.height;
    }
  };

  explicit ResultCache(const ResultCacheConfig& config);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// A cached score and the generation of the model that produced it.
  struct Value {
    double probability = 0.0;
    uint64_t generation = 0;
  };

  struct Entry {
    Key key;
    Value value;
  };

  /// Returns the cached value and refreshes the entry's recency, or
  /// nullopt on miss.
  std::optional<Value> Get(const Key& key);

  /// Inserts or refreshes an entry, evicting its shard's LRU tail when the
  /// shard is at capacity. Returns true when it evicted an entry.
  bool Put(const Key& key, const Value& value);

  /// Degraded-mode lookup: the newest cached entry for `address` strictly
  /// below `height`, or nullopt. Scans every shard (entries for one
  /// address at different heights hash to different shards), so this is
  /// O(cache size) — it runs only when the cold path is failing or
  /// overloaded, never on the hit path. Recency is not refreshed.
  std::optional<Entry> GetNewestBelow(eth::AccountId address,
                                      uint64_t height);

  /// Drops every entry whose height is strictly below `height`.
  void InvalidateOlderThan(uint64_t height);

  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // Splitmix-style scramble of the two key halves.
      uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(key.address))
                    << 32) ^
                   key.height;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< Front = most recent.
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
  };

  Shard& ShardFor(const Key& key);

  size_t capacity_ = 0;
  size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace serve
}  // namespace dbg4eth

#endif  // DBG4ETH_SERVE_RESULT_CACHE_H_
