#pragma once
// Sharded LRU cache for served predictions.
//
// Performance-model query streams are highly repetitive — autotuners
// re-probe neighboring configurations constantly — so a small cache in
// front of the batcher absorbs a large share of traffic. Keys combine the
// model name, its load generation (so hot reloads age out stale entries via
// plain LRU instead of an invalidation sweep), and the exact bits of the
// query configuration (with -0.0 folded into +0.0 and every NaN into one),
// so a cached reply is always bitwise the direct predict() of that query.
// Sharding keeps lock contention flat under concurrent clients; each shard
// is an independent mutex + LRU list.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "grid/parameter.hpp"

namespace cpr::serve {

class PredictionCache {
 public:
  /// `capacity` is the total entry budget, split evenly across `shards`
  /// (each shard holds at least one entry). A zero capacity disables
  /// caching: get() always misses, put() is a no-op.
  explicit PredictionCache(std::size_t capacity, std::size_t shards = 8);

  /// Cache key for one (model instance, query) pair; binary, not text.
  static std::string make_key(std::string_view model, std::uint64_t generation,
                              const grid::Config& values);

  /// Returns the cached prediction and refreshes its recency, or nullopt.
  std::optional<double> get(const std::string& key);

  /// Inserts/refreshes `key`, evicting the shard's least-recently-used
  /// entry when over budget.
  void put(const std::string& key, double value);

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;   ///< currently resident
    std::size_t capacity = 0;  ///< total budget
    std::size_t shards = 0;

    double hit_rate() const {
      const auto total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };
  /// Totals across shards, each read under its shard mutex: safe to call
  /// concurrently with traffic (the STATS/METRICS render path does).
  Counters counters() const;

  bool enabled() const { return !shards_.empty(); }

 private:
  struct Shard {
    std::mutex mu;
    std::list<std::pair<std::string, double>> lru;  ///< front = most recent
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, double>>::iterator>
        index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const std::string& key);

  std::size_t capacity_ = 0;        ///< total, as configured
  std::size_t shard_capacity_ = 0;  ///< per-shard budget
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace cpr::serve
