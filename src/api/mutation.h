// The transactional write path's input and output types. A
// MutationBatch stages an ordered list of inserts / updates / deletes /
// links / unlinks; Engine::Apply commits the whole batch atomically
// against the current data snapshot (all ops validate and apply, or the
// store is untouched) and publishes the result as the next snapshot.
//
// Rows inserted by the batch can be referenced by LATER ops of the same
// batch through the negative handle Insert() returns, so one batch can
// create an object and immediately link or update it:
//
//   MutationBatch batch;
//   int64_t s = batch.Insert(supplier_class, supplier_obj);
//   int64_t c = batch.Insert(cargo_class, cargo_obj);
//   batch.Link(supplies_rel, s, c);
//   ApplyOutcome out = *engine.Apply(batch);
//   int64_t supplier_row = out.inserted_rows[0];  // resolved id of `s`
#ifndef SQOPT_API_MUTATION_H_
#define SQOPT_API_MUTATION_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"
#include "storage/object.h"
#include "types/value.h"

namespace sqopt {

// One staged operation. Row fields may hold a pending-insert handle
// (negative; see MutationBatch::Insert) anywhere a row id is expected.
struct Mutation {
  enum class Kind { kInsert, kUpdate, kDelete, kLink, kUnlink };

  Kind kind = Kind::kInsert;
  ClassId class_id = kInvalidClass;  // insert / update / delete
  int64_t row = -1;                  // update / delete
  AttrId attr_id = kInvalidAttr;     // update
  Value value;                       // update
  Object object;                     // insert
  RelId rel_id = kInvalidRel;        // link / unlink
  int64_t row_a = -1;                // link / unlink (class `a` side)
  int64_t row_b = -1;                // link / unlink (class `b` side)
};

class MutationBatch {
 public:
  // Stages an insert and returns a handle (< 0) usable as a row id in
  // later ops of this batch. Apply resolves handle -1-k to the row id
  // the k-th staged insert produced (also reported in
  // ApplyOutcome::inserted_rows) and rejects the batch if the handle is
  // used where a row of a DIFFERENT class is expected.
  int64_t Insert(ClassId class_id, Object object);

  // Stages an attribute overwrite of a live row (or pending insert).
  void Update(ClassId class_id, int64_t row, AttrId attr_id, Value value);

  // Stages a tombstone delete; the row's relationship instances are
  // removed with it.
  void Delete(ClassId class_id, int64_t row);

  // Stages creating / removing a relationship instance. `row_a` /
  // `row_b` belong to the relationship's class `a` / `b` respectively.
  void Link(RelId rel_id, int64_t row_a, int64_t row_b);
  void Unlink(RelId rel_id, int64_t row_a, int64_t row_b);

  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }
  size_t num_inserts() const { return num_inserts_; }
  const std::vector<Mutation>& ops() const { return ops_; }

 private:
  std::vector<Mutation> ops_;
  size_t num_inserts_ = 0;
};

// What one committed Apply produced.
struct ApplyOutcome {
  // Version of the published snapshot (Load starts a lineage at 1;
  // every commit increments it).
  uint64_t snapshot_version = 0;

  // Resolved row ids of the batch's inserts, in staging order.
  std::vector<int64_t> inserted_rows;

  // Ops applied, by kind.
  size_t inserts = 0;
  size_t updates = 0;
  size_t deletes = 0;
  size_t links = 0;
  size_t unlinks = 0;

  // (constraint, tuple) combinations the pre-commit validator checked.
  uint64_t constraint_checks = 0;

  // Statistics drift the commit caused: the max, over touched classes
  // and relationships, of changed rows (or pairs) as a fraction of the
  // pre-commit cardinality. Compared against
  // kReplanThreshold to decide cache invalidation.
  double stats_drift = 0.0;

  // True when the drift crossed the threshold and the plan cache was
  // dropped (the next Execute of any query re-plans).
  bool plan_cache_invalidated = false;

  // Number of batches the commit group that carried this batch
  // published together (1 when the batch committed alone). The group
  // shares one WAL append, one fsync, and one snapshot publish.
  size_t group_size = 1;

  // Wall-clock microseconds of the group's commit phases, shared by
  // every member of the group (bench-attribution hooks):
  // - clone: the copy-on-write clone of the base snapshot;
  // - apply: applying and validating the group's ops on the clone;
  // - wal: the WAL append, fsync included;
  // - fsync: the fsync alone (0 with durability.fsync off, or when no
  //   WAL is attached);
  // - stats: statistics, cost model and publishing the new snapshot;
  // - release: dropping the replaced snapshot, which frees whatever
  //   the group copied unless a reader still pins it.
  // Clone and apply are summed over the restarts a rejected batch
  // causes. clone + apply + wal + stats + release is at most the
  // group's wall time; the rest is queueing and id validation.
  uint64_t clone_micros = 0;
  uint64_t apply_micros = 0;
  uint64_t wal_micros = 0;
  uint64_t fsync_micros = 0;
  uint64_t stats_micros = 0;
  uint64_t release_micros = 0;
};

}  // namespace sqopt

#endif  // SQOPT_API_MUTATION_H_
