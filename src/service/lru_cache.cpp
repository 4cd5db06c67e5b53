#include "service/lru_cache.hpp"

#include "service/protocol.hpp"  // chain_hash

namespace am::service {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

ShardedLruCache::ShardedLruCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  std::size_t n = round_up_pow2(shards == 0 ? 1 : shards);
  // Never more shards than capacity: a shard with a zero budget would
  // evict everything it is handed.
  while (n > 1 && capacity_ / n == 0) n >>= 1;
  per_shard_capacity_ = capacity_ == 0 ? 0 : capacity_ / n;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShardedLruCache::Shard& ShardedLruCache::shard_for(const std::string& key) {
  const std::uint64_t h = chain_hash(key, 0x73686172645f6c72ull);  // "shard_lr"
  return *shards_[h & (shards_.size() - 1)];
}

std::optional<std::string> ShardedLruCache::get(const std::string& key) {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    ++s.misses;
    return std::nullopt;
  }
  ++s.hits;
  // Refresh recency: splice the node to the front without reallocating.
  s.order.splice(s.order.begin(), s.order, it->second);
  return it->second->second;
}

void ShardedLruCache::put(const std::string& key, std::string value) {
  if (per_shard_capacity_ == 0) return;
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  if (const auto it = s.index.find(key); it != s.index.end()) {
    it->second->second = std::move(value);
    s.order.splice(s.order.begin(), s.order, it->second);
    return;
  }
  s.order.emplace_front(key, std::move(value));
  s.index[key] = s.order.begin();
  ++s.insertions;
  while (s.order.size() > per_shard_capacity_) {
    s.index.erase(s.order.back().first);
    s.order.pop_back();
    ++s.evictions;
  }
}

CacheCounters ShardedLruCache::counters() const {
  CacheCounters out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.insertions += shard->insertions;
    out.evictions += shard->evictions;
    out.entries += shard->order.size();
  }
  return out;
}

}  // namespace am::service
