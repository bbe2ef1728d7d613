// A sharded LRU cache of fully-prepared queries, shared by every
// Engine::Execute call and by Engine::Prepare. Entries are the same
// detail::PreparedState a PreparedQuery handle wraps: the parsed query,
// its constraint retrieval + semantic transformation, and the physical
// plan, pinned to the data snapshot they were planned against. The key
// is the query text exactly as the caller sent it (a Query value is
// keyed on its PrintQuery form), so a key needs no parse to compute and
// no argument that two texts mean the same query: textual variants of
// one query (other whitespace, reordered predicates) are separate
// entries that return the same rows.
//
// Concurrency: every shard is guarded by its own mutex; the counters
// are atomics. Lookup/Insert/Invalidate are safe from any number of
// threads. Invalidation is epoch-based: Invalidate() clears the shards
// and bumps the epoch, and an Insert carrying a stale epoch (taken
// before a concurrent invalidation) is dropped instead of resurrecting
// a plan built against dropped data.
#ifndef SQOPT_API_PLAN_CACHE_H_
#define SQOPT_API_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sqopt {

// Snapshot of the cache counters; also embedded in QueryOutcome so a
// caller can watch hit rates query by query.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      // LRU displacements (capacity pressure)
  uint64_t invalidations = 0;  // whole-cache clears (reloads, recompiles)
  size_t entries = 0;          // currently cached plans
  size_t capacity = 0;         // 0 = caching disabled
  size_t shards = 0;
};

namespace detail {

struct PreparedState;

class PlanCache {
 public:
  // `capacity` is the total entry budget across shards (rounded up to a
  // multiple of the shard count); 0 disables the cache entirely.
  explicit PlanCache(size_t capacity);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  bool enabled() const { return capacity_ > 0; }

  // The current invalidation epoch. Read it BEFORE building a plan on
  // the miss path and hand it back to Insert: if a reload invalidated
  // the cache in between, the insert is dropped.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Returns the cached entry (refreshing its LRU position) or null. A
  // hit is always counted, a miss only with `count_miss`; on a disabled
  // cache returns null without counting. With `sequential_only`, an
  // entry whose plan fans out across the morsel pool is treated as
  // absent: not returned, not counted, and its LRU position left alone.
  std::shared_ptr<const PreparedState> Lookup(std::string_view key,
                                              bool count_miss = true,
                                              bool sequential_only = false);

  // Caches `entry` under `key` unless the epoch moved since
  // `epoch_at_lookup` (a concurrent invalidation) or the cache is
  // disabled. Replaces an existing entry for the same key; evicts the
  // shard's LRU entry when the shard is full.
  void Insert(const std::string& key,
              std::shared_ptr<const PreparedState> entry,
              uint64_t epoch_at_lookup);

  // Drops every entry and bumps the epoch. Called on Load (data
  // reload), AddConstraint/Recompile (catalog change), and
  // SetOptimizerOptions (plans depend on the optimizer knobs).
  void Invalidate();

  // `count_entries` walks every shard under its lock to count live
  // entries; the per-query outcome snapshot passes false and
  // reports the atomic counters only.
  PlanCacheStats stats(bool count_entries = true) const;

 private:
  struct Shard {
    mutable std::mutex mu;
    // Front = most recently used. The map's string_view keys point into
    // the list nodes' strings (stable: list nodes never move).
    std::list<std::pair<std::string, std::shared_ptr<const PreparedState>>>
        lru;
    std::unordered_map<
        std::string_view,
        std::list<std::pair<std::string,
                            std::shared_ptr<const PreparedState>>>::iterator>
        index;
  };

  Shard& ShardFor(std::string_view key);

  size_t capacity_ = 0;
  size_t num_shards_ = 0;
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace detail
}  // namespace sqopt

#endif  // SQOPT_API_PLAN_CACHE_H_
