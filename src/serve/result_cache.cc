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

ResultCache::Shard& ResultCache::ShardFor(eth::AccountId address) {
  return *shards_[static_cast<uint32_t>(address) % shards_.size()];
}

std::optional<ResultCache::Entry> ResultCache::Get(eth::AccountId address) {
  Shard& shard = ShardFor(address);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(address);
  if (it == shard.index.end()) return std::nullopt;
  // Move to the front (most recently used) and read the entry while still
  // holding the lock.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

bool ResultCache::Put(eth::AccountId address, const Entry& entry) {
  Shard& shard = ShardFor(address);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(address);
  if (it != shard.index.end()) {
    Entry& cached = it->second->second;
    if (entry.height < cached.height) return false;
    cached = entry;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return false;
  }
  const bool evict = shard.lru.size() >= shard_capacity_;
  if (evict) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
  }
  shard.lru.emplace_front(address, entry);
  shard.index.emplace(address, shard.lru.begin());
  return evict;
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
