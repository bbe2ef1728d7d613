// The in-memory OODB store: one extent per class, adjacency lists per
// relationship, and attribute indexes for every attribute declared
// `indexed` in the schema. This is the substrate the executor runs
// against (the paper executed against a relational DBMS; see DESIGN.md
// §2 "Substitutions").
//
// Versioned snapshots: extents, both directions of every relationship,
// and attribute indexes are copy-on-write structures (storage/cow.h).
// CloneForWrite() copies only their shells — segment, chunk and root
// pointers — so it costs O(classes + relationships + indexes + segments
// + chunks) pointer copies whatever a commit will touch, and any of the
// clone's structures may then be mutated: each write copies just the
// extent segment, relationship chunk or B-tree root-to-leaf path it
// touches. The write path (Engine::Apply) mutates the clone privately
// and publishes it as the next immutable snapshot; readers of the
// original never observe the divergence.
//
// Deletes are tombstones: row ids are positional and stable for the
// lifetime of a store lineage (adjacency lists and result bindings
// reference them), so Delete marks the slot dead instead of
// compacting. Scans skip dead rows; Delete also drops the row's index
// entries and every relationship instance it participates in, so
// indexes and Partners() never surface a dead row.
#ifndef SQOPT_STORAGE_OBJECT_STORE_H_
#define SQOPT_STORAGE_OBJECT_STORE_H_

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/adjacency.h"
#include "storage/extent.h"
#include "storage/index.h"
#include "storage/morsel.h"

namespace sqopt {

class ObjectStore {
 public:
  explicit ObjectStore(const Schema* schema);

  const Schema& schema() const { return *schema_; }

  // Copy-on-write clone sharing every segment, chunk and index node
  // with this store (see the file comment). Either store may be
  // mutated afterwards without the other observing it. Not safe
  // concurrently with another CloneForWrite of, or a write to, this
  // store; concurrent reads are fine.
  std::unique_ptr<ObjectStore> CloneForWrite() const;

  // Inserts an object into `class_id`'s extent, maintaining indexes.
  Result<int64_t> Insert(ClassId class_id, Object obj);

  // Registers an instance (pair) of relationship `rel_id` between a row
  // of the relationship's class `a` and a row of class `b`. Duplicate
  // pairs are rejected with kAlreadyExists; dead endpoints with
  // kFailedPrecondition.
  Status Link(RelId rel_id, int64_t row_a, int64_t row_b);

  // Removes one relationship instance (both adjacency directions) in
  // O(degree). kNotFound when the pair does not exist.
  Status Unlink(RelId rel_id, int64_t row_a, int64_t row_b);

  // Overwrites one attribute of an existing live object, keeping any
  // index on the attribute consistent. `attr_id` must resolve on the
  // class.
  Status UpdateAttribute(ClassId class_id, int64_t row, AttrId attr_id,
                         Value value);

  // Tombstones one live row: drops its index entries, unlinks every
  // relationship instance it participates in (O(degree) per partner),
  // and marks the slot dead. Row ids of other objects are unaffected.
  Status Delete(ClassId class_id, int64_t row);

  const Extent& extent(ClassId class_id) const {
    return *extents_[class_id];
  }
  // Row SLOTS including tombstones — the positional scan bound.
  int64_t NumObjects(ClassId class_id) const {
    return extents_[class_id]->size();
  }
  // Live rows only — what statistics and cardinality estimates use.
  int64_t NumLiveObjects(ClassId class_id) const {
    return extents_[class_id]->live_count();
  }
  bool IsLive(ClassId class_id, int64_t row) const {
    return extents_[class_id]->IsLive(row);
  }
  int64_t NumPairs(RelId rel_id) const { return rels_[rel_id].num_pairs; }

  // Splits `class_id`'s extent into consecutive row-range morsels of at
  // most `morsel_size` rows (the last may be short; non-positive sizes
  // fall back to kDefaultMorselSize). The ranges cover every row slot
  // exactly once, in row order — the parallel executor's scheduling
  // units (the pipeline skips tombstoned rows inside each morsel).
  std::vector<Morsel> PartitionExtent(ClassId class_id,
                                      int64_t morsel_size) const {
    return MakeMorsels(NumObjects(class_id), morsel_size);
  }

  // Partner rows of `row` (a row of `from_class`) across `rel_id`, in
  // the order the pairs were linked. `from_class` must be one of the
  // relationship's endpoints. The span is invalidated by the next
  // write to this store.
  std::span<const int64_t> Partners(RelId rel_id, ClassId from_class,
                                    int64_t row) const;

  // Test hook for the sharing contract: the identity of the adjacency
  // chunk holding `row`'s partners across `rel_id` (see
  // Adjacency::ChunkIdentity).
  const void* AdjacencyChunkIdentity(RelId rel_id, ClassId from_class,
                                     int64_t row) const;

  // The index on `ref`, or null if the attribute is not indexed.
  const AttributeIndex* GetIndex(const AttrRef& ref) const;

  // Statistics raw material (live rows only).
  int64_t DistinctValues(const AttrRef& ref) const;
  std::pair<Value, Value> MinMax(const AttrRef& ref) const;  // null/null
                                                             // if empty
  // All live values of `ref`, in row order (histogram raw material).
  std::vector<Value> LiveValues(const AttrRef& ref) const;

  // --- Persistence hooks (src/persist/snapshot.cc). The restore
  // methods replace whole substructures of a freshly constructed
  // store. ---

  // All instances of `rel_id` as (a row, b row), in the order they
  // were linked: an O(pairs log pairs) walk and sort by link sequence.
  std::vector<std::pair<int64_t, int64_t>> Pairs(RelId rel_id) const;

  // Replaces `class_id`'s extent with deserialized whole-extent
  // columns (values for every row slot, live and tombstoned alike).
  // Indexes are NOT maintained: the snapshot restores them separately
  // via RestoreIndexEntries.
  Status RestoreClassColumns(ClassId class_id, std::vector<ColumnData> cols,
                             std::vector<uint8_t> live);

  // Replaces `rel_id`'s instances and rebuilds both adjacency
  // directions, keeping `pairs`' order as the link order. Endpoint rows
  // must exist (extents restore first).
  Status RestoreRelationshipPairs(
      RelId rel_id, std::vector<std::pair<int64_t, int64_t>> pairs);

  // Replaces the index on (class_id, attr_id) with a bulk-built tree
  // over the deserialized entries, which must arrive key-ascending (the
  // serialized form is an in-order scan); keys out of order and
  // attributes that are not indexed under this schema are rejected as
  // corruption. A run of equal keys out of row order (the insertion
  // order older snapshots kept) is sorted by row.
  Status RestoreIndexEntries(ClassId class_id, AttrId attr_id,
                             std::vector<std::pair<Value, int64_t>> entries);

 private:
  // Shell constructor for CloneForWrite: members are filled by cloning
  // the source's structures, so building fresh ones (the public
  // constructor's job) would only allocate garbage.
  ObjectStore() = default;

  // Index key: (class, attr id) — inherited attributes are indexed per
  // concrete class.
  using IndexKey = std::pair<ClassId, AttrId>;

  // One relationship's instances. The a side (rows of rel.a) carries
  // each pair's link sequence number, so Pairs() can restore the order
  // in which the pairs were linked.
  struct RelData {
    Adjacency a{/*sequenced=*/true};
    Adjacency b{/*sequenced=*/false};
    int64_t num_pairs = 0;
    uint64_t next_seq = 0;
  };

  // Drops every pair `row` (a row of `side`'s class) takes part in,
  // removing it from each partner's list on `other`.
  static void UnlinkAll(RelData& data, Adjacency& side, Adjacency& other,
                        int64_t row);

  const Schema* schema_;
  std::vector<std::unique_ptr<Extent>> extents_;
  std::vector<RelData> rels_;
  std::map<IndexKey, std::unique_ptr<AttributeIndex>> indexes_;
};

}  // namespace sqopt

#endif  // SQOPT_STORAGE_OBJECT_STORE_H_
