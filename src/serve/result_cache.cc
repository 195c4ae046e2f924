#include "serve/result_cache.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"

namespace dbg4eth {
namespace serve {

ResultCache::ResultCache(const ResultCacheConfig& config) {
  DBG4ETH_CHECK_GE(config.capacity, 1u);
  const int num_shards = std::max(1, config.num_shards);
  capacity_ = config.capacity;
  shard_capacity_ =
      std::max<size_t>(1, (config.capacity + num_shards - 1) / num_shards);
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const Key& key) {
  return *shards_[KeyHash()(key) % shards_.size()];
}

std::optional<ResultCache::Value> ResultCache::Get(const Key& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  // Move to the front (most recently used) and read the value while still
  // holding the lock.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

bool ResultCache::Put(const Key& key, const Value& value) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return false;
  }
  const bool evict = shard.lru.size() >= shard_capacity_;
  if (evict) {
    const Entry& victim = shard.lru.back();
    shard.index.erase(victim.key);
    shard.lru.pop_back();
  }
  shard.lru.push_front(Entry{key, value});
  shard.index.emplace(key, shard.lru.begin());
  return evict;
}

std::optional<ResultCache::Entry> ResultCache::GetNewestBelow(
    eth::AccountId address, uint64_t height) {
  std::optional<Entry> best;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& entry : shard->lru) {
      if (entry.key.address != address || entry.key.height >= height) {
        continue;
      }
      if (!best || entry.key.height > best->key.height) best = entry;
    }
  }
  return best;
}

void ResultCache::InvalidateOlderThan(uint64_t height) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->key.height < height) {
        shard->index.erase(it->key);
        it = shard->lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace serve
}  // namespace dbg4eth
