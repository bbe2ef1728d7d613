// Ordered attribute index: Value -> row ids, backed by the B+-tree in
// storage/btree.h. Supports equality probes and one-sided range scans,
// which is all the access planner needs. Clone() shares the tree's
// nodes, so a commit copies only the root-to-leaf paths it writes.
#ifndef SQOPT_STORAGE_INDEX_H_
#define SQOPT_STORAGE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "expr/predicate.h"
#include "storage/btree.h"
#include "types/value.h"

namespace sqopt {

class AttributeIndex {
 public:
  AttributeIndex() = default;

  // O(1) copy-on-write version (see BTree::Clone) carrying the probe
  // counter: the clone diverges under incremental maintenance while
  // readers keep probing the original.
  std::unique_ptr<AttributeIndex> Clone() const {
    auto copy = std::make_unique<AttributeIndex>();
    copy->tree_ = tree_.Clone();
    copy->probes.store(probes.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return copy;
  }

  // Snapshot-restore hook: replaces the tree with one bulk-built from
  // entries already in key order (see BTree::BuildFromSorted).
  void LoadSorted(std::vector<std::pair<Value, int64_t>> entries) {
    tree_ = BTree::BuildFromSorted(std::move(entries));
  }

  void Insert(const Value& key, int64_t row) { tree_.Insert(key, row); }
  bool Remove(const Value& key, int64_t row) {
    return tree_.Remove(key, row);
  }

  size_t size() const { return tree_.size(); }
  int height() const { return tree_.height(); }

  // Rows whose key equals `key`, in ascending row order.
  std::vector<int64_t> Equal(const Value& key) const;

  // Rows satisfying `key_attr op value` for op in {<, <=, >, >=, =},
  // in ascending row order. != falls back to a full in-order walk
  // (callers normally don't use an index for it, but correctness
  // first). The tree returns an equality run already in row order; a
  // range comes back as one row-ordered run per key, which are merged
  // instead of sorted.
  std::vector<int64_t> Lookup(CompareOp op, const Value& value) const;

  const BTree& tree() const { return tree_; }

  // Probe count bookkeeping for the execution meter. Atomic so that
  // concurrent read-only executions can share one store.
  mutable std::atomic<uint64_t> probes{0};

 private:
  BTree tree_;
};

}  // namespace sqopt

#endif  // SQOPT_STORAGE_INDEX_H_
