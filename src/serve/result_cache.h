#ifndef DBG4ETH_SERVE_RESULT_CACHE_H_
#define DBG4ETH_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
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

/// \brief Sharded LRU cache of scored probabilities, one entry per
/// account.
///
/// An entry records the ledger height its score was computed at and the
/// generation of the model that computed it. Its owner reads it against a
/// request's height: at that height it is a hit; from a lower height it is
/// not a hit, but it is the request's stale (degraded-mode) answer. A
/// taller ledger therefore needs no invalidation pass: the next score of
/// each account replaces its entry. `Put` never lowers an entry's height,
/// so a pass at an older height that finishes late cannot replace a newer
/// score. Every lookup locks one shard and makes one hash lookup.
///
/// The cache counts nothing: its owner books hits, misses and evictions
/// (InferenceService, through ServerStats).
class ResultCache {
 public:
  explicit ResultCache(const ResultCacheConfig& config);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// A cached score, the ledger height it was computed at and the
  /// generation of the model that produced it.
  struct Entry {
    uint64_t height = 0;
    double probability = 0.0;
    uint64_t generation = 0;
  };

  /// Returns the entry cached for `address`, whatever its height, and
  /// refreshes its recency; nullopt when there is none.
  std::optional<Entry> Get(eth::AccountId address);

  /// Caches `entry` for `address` unless the cached entry is from a taller
  /// ledger, which it keeps. A new account evicts its shard's LRU tail
  /// when the shard is full. Returns true when it evicted an entry.
  bool Put(eth::AccountId address, const Entry& entry);

  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  using Node = std::pair<eth::AccountId, Entry>;
  struct Shard {
    std::mutex mu;
    std::list<Node> lru;  ///< Front = most recent.
    std::unordered_map<eth::AccountId, std::list<Node>::iterator> index;
  };

  Shard& ShardFor(eth::AccountId address);

  size_t capacity_ = 0;
  size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace serve
}  // namespace dbg4eth

#endif  // DBG4ETH_SERVE_RESULT_CACHE_H_
