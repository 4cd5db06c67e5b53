// Sharded LRU prediction cache.
//
// The daemon's hot path is "canonical key -> serialized result"; this cache
// keeps the most recently used results in memory in front of the (much
// slower) model/simulator handlers. Sharding by key hash keeps lock
// contention off the serving threads: each shard has its own mutex, map and
// recency list, so concurrent lookups of different keys rarely collide.
// Counters (hits / misses / insertions / evictions) are maintained per
// shard under the shard lock and summed on demand by counters(); they are
// the cache's only books — the stats section and the am_cache_* scrape
// families both render them (ServiceCore::append_stats / append_metrics).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace am::service {

struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  ///< current resident entries (snapshot)
};

class ShardedLruCache {
 public:
  /// @param capacity  total entry budget across all shards (0 disables
  ///                  caching: every get misses, every put is dropped).
  /// @param shards    shard count; rounded up to a power of two, capped so
  ///                  every shard holds at least one entry.
  explicit ShardedLruCache(std::size_t capacity, std::size_t shards = 16);

  /// Returns the cached value and refreshes its recency, or nullopt.
  std::optional<std::string> get(const std::string& key);

  /// Inserts (or refreshes) @p key. Evicts the shard's least recently used
  /// entry when the shard is at capacity.
  void put(const std::string& key, std::string value);

  /// Counters summed over all shards.
  CacheCounters counters() const;

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Most recent at the front; pairs of (key, value).
    std::list<std::pair<std::string, std::string>> order;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, std::string>>::iterator>
        index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const std::string& key);

  std::size_t capacity_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace am::service
