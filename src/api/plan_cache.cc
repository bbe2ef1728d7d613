#include "api/plan_cache.h"

#include <functional>

#include "api/engine_impl.h"

namespace sqopt::detail {

namespace {
constexpr size_t kMaxShards = 8;
}  // namespace

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) return;
  num_shards_ = capacity_ < kMaxShards ? capacity_ : kMaxShards;
  per_shard_capacity_ = (capacity_ + num_shards_ - 1) / num_shards_;
  shards_.reserve(num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PlanCache::Shard& PlanCache::ShardFor(std::string_view key) {
  return *shards_[std::hash<std::string_view>{}(key) % num_shards_];
}

std::shared_ptr<const PreparedState> PlanCache::Lookup(std::string_view key,
                                                       bool count_miss,
                                                       bool sequential_only) {
  if (!enabled()) return nullptr;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    if (count_miss) misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  const PreparedState& entry = *it->second->second;
  if (sequential_only && entry.plan.has_value() &&
      entry.plan->parallelism > 1) {
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const PreparedState> entry,
                       uint64_t epoch_at_lookup) {
  if (!enabled() || entry == nullptr) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  // A reload/recompile invalidated the cache while this plan was being
  // built: it may reference the dropped store, so never cache it. The
  // epoch is re-checked under the shard lock so Invalidate (which takes
  // every shard lock) cannot interleave with this insert.
  if (epoch_.load(std::memory_order_acquire) != epoch_at_lookup) return;
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.emplace_front(key, std::move(entry));
  shard.index.emplace(shard.lru.front().first, shard.lru.begin());
}

void PlanCache::Invalidate() {
  if (!enabled()) return;
  // Hold ALL shard locks while bumping the epoch so no miss-path insert
  // (which checks the epoch under its shard lock) can slip a
  // stale-epoch entry in after its shard was cleared.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (auto& shard : shards_) locks.emplace_back(shard->mu);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& shard : shards_) {
    shard->index.clear();
    shard->lru.clear();
  }
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

PlanCacheStats PlanCache::stats(bool count_entries) const {
  PlanCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  out.capacity = capacity_;
  out.shards = num_shards_;
  if (!count_entries) return out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.entries += shard->lru.size();
  }
  return out;
}

}  // namespace sqopt::detail
