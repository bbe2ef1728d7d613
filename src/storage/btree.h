// In-memory B+-tree keyed by Value: the index structure behind
// AttributeIndex. Fixed fanout, duplicate keys allowed (one entry per
// (key, row) pair), and node/height statistics so benches and the cost
// model can reason about probe depth.
//
// Entries are ordered by the pair (key, row), and internal separators
// are pairs too. So duplicates of a key sit in ascending row order,
// Remove finds its entry by one root-to-leaf descent, and Equal()
// returns rows in ascending order. Lookups copy each leaf's matching
// run in one go, after a binary search for the run's end.
//
// Nodes are shared between versions (Rodeh, "B-trees, Shadowing, and
// Clones", ACM TOS 2008): Clone() is O(1), and Insert/Remove copy only
// the root-to-leaf path they write, under the ownership rule of
// storage/cow.h. A leaf chain cannot survive sharing (a copied leaf
// would have to relink its shared left neighbour), so range and
// equality scans walk a root-to-leaf cursor instead.
#ifndef SQOPT_STORAGE_BTREE_H_
#define SQOPT_STORAGE_BTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/cow.h"
#include "types/value.h"

namespace sqopt {

class BTree {
 public:
  // Order = max children of an internal node; leaves hold up to
  // kOrder - 1 entries. 64 keeps trees shallow at our scales while
  // still exercising splits in tests (which use a smaller order).
  explicit BTree(int order = 64);
  ~BTree();

  BTree(BTree&&) noexcept;             // defined in .cc (Node incomplete)
  BTree& operator=(BTree&&) noexcept;  // defined in .cc

  // A version sharing every node with this one: O(1). The clone and
  // this tree both get fresh ownership stamps, so either may be written
  // afterwards and copies each shared node on its first write. Not safe
  // concurrently with another Clone of, or a write to, this tree;
  // concurrent reads are fine.
  BTree Clone() const;

  // Persistence hook: builds a tree from entries already in (key, row)
  // order (the serialized form Scan() emits) in O(n) — leaves fill left
  // to right at maximum legal fanout and the internal levels assemble
  // bottom-up, instead of n root descents through Insert.
  // ObjectStore::RestoreIndexEntries puts a snapshot's entries in that
  // order and rejects a key-order violation as corrupt.
  static BTree BuildFromSorted(
      std::vector<std::pair<Value, int64_t>> entries, int order = 64);

  void Insert(const Value& key, int64_t row);

  // Removes one (key, row) entry in O(log n) comparisons. Returns false
  // if no such entry exists (and then copies nothing). Deletion is
  // lazy: leaves may become underfull or empty (the tree never
  // rebalances downward), which preserves all lookup invariants and
  // suits the store's update-in-place workload where deletes are
  // immediately followed by a reinsertion.
  bool Remove(const Value& key, int64_t row);

  // All rows whose key compares equal to `key`, in ascending row
  // order.
  std::vector<int64_t> Equal(const Value& key) const;

  // All rows with key < / <= / > / >= bound, in (key, row) order.
  std::vector<int64_t> LessThan(const Value& bound, bool inclusive) const;
  std::vector<int64_t> GreaterThan(const Value& bound,
                                   bool inclusive) const;

  // Full in-order (key, row) traversal.
  std::vector<std::pair<Value, int64_t>> Scan() const;

  // Test hook: key comparisons made by BTree calls on this thread so
  // far, to pin the cost of a lookup or a remove.
  static uint64_t KeyComparisons();

  size_t size() const { return size_; }
  int height() const;
  size_t num_nodes() const;

  // Test hook for the sharing contract: the identity of every node, in
  // no particular order. Two versions sharing a node both list it.
  std::vector<const void*> NodeIdentities() const;

  // Validates the B+-tree invariants (ordering, fill, uniform leaf
  // depth, entry count, sorted in-order scan). Test hook; returns false
  // on any violation.
  bool CheckInvariants() const;

 private:
  struct Node;
  class Cursor;

  BTree(const BTree&) = default;  // shares the root; see Clone()

  // Appends to *out the rows of the entries from `cursor` on while
  // `in_range(key)` holds (true on a prefix of the remaining entries),
  // one leaf-sized copy at a time.
  template <typename InRange>
  static void CollectRun(Cursor cursor, InRange in_range,
                         std::vector<int64_t>* out);

  // Returns *slot writable by this tree (storage/cow.h).
  Node& Writable(std::shared_ptr<Node>& slot);
  // Splits `parent`'s child `index` (leaf or internal), known to be
  // full. The child becomes writable; the new right sibling is fresh.
  void SplitChild(Node* parent, int index);

  int order_;
  // Re-stamped by Clone(), hence mutable.
  mutable OwnerStamp owner_ = NewOwnerStamp();
  std::shared_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace sqopt

#endif  // SQOPT_STORAGE_BTREE_H_
