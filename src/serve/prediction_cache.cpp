#include "serve/prediction_cache.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/check.hpp"

namespace cpr::serve {

PredictionCache::PredictionCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  if (capacity == 0) return;  // disabled
  CPR_CHECK_MSG(shards > 0, "prediction cache needs at least one shard");
  shards = std::min(shards, capacity);  // every shard holds >= 1 entry
  shard_capacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

std::string PredictionCache::make_key(std::string_view model, std::uint64_t generation,
                                      const grid::Config& values) {
  // "<model>#<generation>;" then the raw 8 bytes of every value: two queries
  // share an entry only when the model would see the same doubles.
  char digits[24];
  char* digits_end = std::to_chars(digits, digits + sizeof(digits), generation).ptr;
  const auto n_digits = static_cast<std::size_t>(digits_end - digits);
  std::string key(model.size() + n_digits + 2 + values.size() * sizeof(double), '\0');
  char* out = std::copy(model.begin(), model.end(), key.data());
  *out++ = '#';
  out = std::copy(digits, digits_end, out);
  *out++ = ';';
  for (double v : values) {
    // -0.0 == 0.0 and predicts identically, so both take the +0.0 bytes;
    // every NaN payload and sign folds into one canonical NaN.
    if (v == 0.0) v = 0.0;
    if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(out, &v, sizeof(v));
    out += sizeof(v);
  }
  return key;
}

PredictionCache::Shard& PredictionCache::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::optional<double> PredictionCache::get(const std::string& key) {
  if (!enabled()) return std::nullopt;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // refresh recency
  return it->second->second;
}

void PredictionCache::put(const std::string& key, double value) {
  if (!enabled()) return;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, value);
  shard.index[key] = shard.lru.begin();
  if (shard.lru.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

PredictionCache::Counters PredictionCache::counters() const {
  Counters totals;
  totals.capacity = capacity_;
  totals.shards = shards_.size();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    totals.hits += shard->hits;
    totals.misses += shard->misses;
    totals.evictions += shard->evictions;
    totals.entries += shard->lru.size();
  }
  return totals;
}

}  // namespace cpr::serve
