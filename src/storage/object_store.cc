#include "storage/object_store.h"

#include <algorithm>
#include <set>

namespace sqopt {

ObjectStore::ObjectStore(const Schema* schema) : schema_(schema) {
  extents_.reserve(schema_->num_classes());
  for (size_t i = 0; i < schema_->num_classes(); ++i) {
    extents_.push_back(
        std::make_unique<Extent>(schema_, static_cast<ClassId>(i)));
  }
  rels_.resize(schema_->num_relationships());

  // One index per (class, indexed attribute), including inherited
  // indexed attributes on subclasses.
  for (const ObjectClass& oc : schema_->classes()) {
    for (AttrId attr_id : schema_->LayoutOf(oc.id)) {
      AttrRef ref{oc.id, attr_id};
      if (schema_->attribute(ref).indexed) {
        indexes_[{oc.id, attr_id}] = std::make_unique<AttributeIndex>();
      }
    }
  }
}

std::unique_ptr<ObjectStore> ObjectStore::CloneForWrite() const {
  std::unique_ptr<ObjectStore> clone(new ObjectStore());
  clone->schema_ = schema_;
  clone->extents_.reserve(extents_.size());
  for (const auto& extent : extents_) {
    clone->extents_.push_back(std::make_unique<Extent>(extent->Clone()));
  }
  clone->rels_.reserve(rels_.size());
  for (const RelData& data : rels_) {
    clone->rels_.push_back(
        RelData{data.a.Clone(), data.b.Clone(), data.num_pairs,
                data.next_seq});
  }
  for (const auto& [key, index] : indexes_) {
    clone->indexes_.emplace(key, index->Clone());
  }
  return clone;
}

Result<int64_t> ObjectStore::Insert(ClassId class_id, Object obj) {
  SQOPT_ASSIGN_OR_RETURN(int64_t row,
                         extents_[class_id]->Insert(std::move(obj)));
  for (auto& [key, index] : indexes_) {
    if (key.first != class_id) continue;
    index->Insert(extents_[class_id]->ValueAt(row, key.second), row);
  }
  return row;
}

Status ObjectStore::Link(RelId rel_id, int64_t row_a, int64_t row_b) {
  const Relationship& rel = schema_->relationship(rel_id);
  if (row_a < 0 || row_a >= NumObjects(rel.a) || row_b < 0 ||
      row_b >= NumObjects(rel.b)) {
    return Status::OutOfRange("relationship '" + rel.name +
                              "' links a nonexistent row");
  }
  if (!IsLive(rel.a, row_a) || !IsLive(rel.b, row_b)) {
    return Status::FailedPrecondition("relationship '" + rel.name +
                                      "' links a deleted row");
  }
  RelData& data = rels_[rel_id];
  // Relationship instances form a SET of pairs: a duplicate link would
  // silently double rows produced by pointer-traversal joins.
  std::span<const int64_t> existing = data.a.Partners(row_a);
  if (std::find(existing.begin(), existing.end(), row_b) != existing.end()) {
    return Status::AlreadyExists("relationship '" + rel.name +
                                 "' already links this pair");
  }
  data.a.Append(row_a, row_b, data.next_seq++);
  data.b.Append(row_b, row_a, 0);
  ++data.num_pairs;
  return Status::OK();
}

Status ObjectStore::Unlink(RelId rel_id, int64_t row_a, int64_t row_b) {
  RelData& data = rels_[rel_id];
  if (!data.a.Remove(row_a, row_b)) {
    return Status::NotFound("relationship '" +
                            schema_->relationship(rel_id).name +
                            "' has no such pair");
  }
  data.b.Remove(row_b, row_a);
  --data.num_pairs;
  return Status::OK();
}

void ObjectStore::UnlinkAll(RelData& data, Adjacency& side, Adjacency& other,
                            int64_t row) {
  std::span<const int64_t> partners = side.Partners(row);
  for (int64_t partner : partners) other.Remove(partner, row);
  data.num_pairs -= static_cast<int64_t>(partners.size());
  side.Clear(row);
}

Status ObjectStore::UpdateAttribute(ClassId class_id, int64_t row,
                                    AttrId attr_id, Value value) {
  Extent& extent = *extents_[class_id];
  if (row < 0 || row >= extent.size()) {
    return Status::OutOfRange("row out of range");
  }
  if (!extent.IsLive(row)) {
    return Status::NotFound("row " + std::to_string(row) + " of class '" +
                            schema_->object_class(class_id).name +
                            "' is deleted");
  }
  auto it = indexes_.find({class_id, attr_id});
  if (it != indexes_.end()) {
    Value old = extent.ValueAt(row, attr_id);
    SQOPT_RETURN_IF_ERROR(extent.SetValue(row, attr_id, value));
    it->second->Remove(old, row);
    it->second->Insert(value, row);
    return Status::OK();
  }
  return extent.SetValue(row, attr_id, std::move(value));
}

Status ObjectStore::Delete(ClassId class_id, int64_t row) {
  Extent& extent = *extents_[class_id];
  SQOPT_RETURN_IF_ERROR(extent.Delete(row));
  // Index entries go first (values are still in the tombstoned slot).
  for (auto& [key, index] : indexes_) {
    if (key.first != class_id) continue;
    index->Remove(extent.ValueAt(row, key.second), row);
  }
  // Cascade: a dead row must never surface through Partners().
  for (RelId rel_id : schema_->RelationshipsOf(class_id)) {
    const Relationship& rel = schema_->relationship(rel_id);
    RelData& data = rels_[rel_id];
    if (rel.a == class_id) UnlinkAll(data, data.a, data.b, row);
    if (rel.b == class_id) UnlinkAll(data, data.b, data.a, row);
  }
  return Status::OK();
}

std::span<const int64_t> ObjectStore::Partners(RelId rel_id,
                                               ClassId from_class,
                                               int64_t row) const {
  const Relationship& rel = schema_->relationship(rel_id);
  const RelData& data = rels_[rel_id];
  return (from_class == rel.a ? data.a : data.b).Partners(row);
}

const void* ObjectStore::AdjacencyChunkIdentity(RelId rel_id,
                                                ClassId from_class,
                                                int64_t row) const {
  const Relationship& rel = schema_->relationship(rel_id);
  const RelData& data = rels_[rel_id];
  return (from_class == rel.a ? data.a : data.b).ChunkIdentity(row);
}

std::vector<std::pair<int64_t, int64_t>> ObjectStore::Pairs(
    RelId rel_id) const {
  const RelData& data = rels_[rel_id];
  struct Linked {
    uint64_t seq;
    int64_t a;
    int64_t b;
  };
  std::vector<Linked> linked;
  linked.reserve(static_cast<size_t>(data.num_pairs));
  data.a.ForEach([&linked](int64_t a, int64_t b, uint64_t seq) {
    linked.push_back({seq, a, b});
  });
  std::sort(linked.begin(), linked.end(),
            [](const Linked& x, const Linked& y) { return x.seq < y.seq; });
  std::vector<std::pair<int64_t, int64_t>> pairs;
  pairs.reserve(linked.size());
  for (const Linked& l : linked) pairs.emplace_back(l.a, l.b);
  return pairs;
}

const AttributeIndex* ObjectStore::GetIndex(const AttrRef& ref) const {
  auto it = indexes_.find({ref.class_id, ref.attr_id});
  return it == indexes_.end() ? nullptr : it->second.get();
}

namespace {

// True when every segment of `extent` encodes `slot` as `enc` — the
// precondition for the typed statistics fast paths below. A single
// demoted (generic) chunk sends the whole attribute down the exact
// Value-based path instead, so mixed data keeps legacy semantics.
bool AllSegmentsEncoded(const Extent& extent, size_t slot,
                        ColumnEncoding enc) {
  for (int64_t s = 0; s < extent.num_segments(); ++s) {
    if (extent.Batch(s).chunk(slot).encoding() != enc) return false;
  }
  return true;
}

}  // namespace

int64_t ObjectStore::DistinctValues(const AttrRef& ref) const {
  const Extent& extent = *extents_[ref.class_id];
  const int slot = extent.SlotOf(ref.attr_id);
  if (slot < 0) {
    // Unknown attributes read as null everywhere: one distinct value
    // if anything is live at all.
    return extent.live_count() > 0 ? 1 : 0;
  }
  const size_t uslot = static_cast<size_t>(slot);
  if (AllSegmentsEncoded(extent, uslot, ColumnEncoding::kInt64)) {
    std::set<int64_t> distinct;
    for (int64_t s = 0; s < extent.num_segments(); ++s) {
      const SegmentBatch batch = extent.Batch(s);
      const ColumnView col = batch.column(uslot);
      for (int64_t i = 0; i < batch.rows; ++i) {
        if (batch.live[i]) distinct.insert(col.i64[i]);
      }
    }
    return static_cast<int64_t>(distinct.size());
  }
  std::set<Value> distinct;
  for (int64_t s = 0; s < extent.num_segments(); ++s) {
    const SegmentBatch batch = extent.Batch(s);
    const ColumnView col = batch.column(uslot);
    for (int64_t i = 0; i < batch.rows; ++i) {
      if (batch.live[i]) distinct.insert(col.Get(i));
    }
  }
  return static_cast<int64_t>(distinct.size());
}

std::pair<Value, Value> ObjectStore::MinMax(const AttrRef& ref) const {
  const Extent& extent = *extents_[ref.class_id];
  const int slot = extent.SlotOf(ref.attr_id);
  if (slot < 0) return {Value::Null(), Value::Null()};
  const size_t uslot = static_cast<size_t>(slot);
  if (AllSegmentsEncoded(extent, uslot, ColumnEncoding::kInt64)) {
    bool any = false;
    int64_t lo = 0, hi = 0;
    for (int64_t s = 0; s < extent.num_segments(); ++s) {
      const SegmentBatch batch = extent.Batch(s);
      const ColumnView col = batch.column(uslot);
      for (int64_t i = 0; i < batch.rows; ++i) {
        if (!batch.live[i]) continue;
        const int64_t v = col.i64[i];
        if (!any) {
          any = true;
          lo = hi = v;
        } else {
          if (v < lo) lo = v;
          if (v > hi) hi = v;
        }
      }
    }
    if (!any) return {Value::Null(), Value::Null()};
    return {Value::Int(lo), Value::Int(hi)};
  }
  if (AllSegmentsEncoded(extent, uslot, ColumnEncoding::kFloat64)) {
    // `<` on raw doubles is exactly Value ordering for doubles (NaN
    // incomparable => never replaces an incumbent), so this matches
    // the generic path bit for bit.
    bool any = false;
    double lo = 0, hi = 0;
    for (int64_t s = 0; s < extent.num_segments(); ++s) {
      const SegmentBatch batch = extent.Batch(s);
      const ColumnView col = batch.column(uslot);
      for (int64_t i = 0; i < batch.rows; ++i) {
        if (!batch.live[i]) continue;
        const double v = col.f64[i];
        if (!any) {
          any = true;
          lo = hi = v;
        } else {
          if (v < lo) lo = v;
          if (hi < v) hi = v;
        }
      }
    }
    if (!any) return {Value::Null(), Value::Null()};
    return {Value::Double(lo), Value::Double(hi)};
  }
  Value min = Value::Null();
  Value max = Value::Null();
  for (int64_t s = 0; s < extent.num_segments(); ++s) {
    const SegmentBatch batch = extent.Batch(s);
    const ColumnView col = batch.column(uslot);
    for (int64_t i = 0; i < batch.rows; ++i) {
      if (!batch.live[i]) continue;
      Value v = col.Get(i);
      if (min.is_null() || v < min) min = v;
      if (max.is_null() || max < v) max = std::move(v);
    }
  }
  return {min, max};
}

std::vector<Value> ObjectStore::LiveValues(const AttrRef& ref) const {
  const Extent& extent = *extents_[ref.class_id];
  const int slot = extent.SlotOf(ref.attr_id);
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(extent.live_count()));
  if (slot < 0) {
    for (int64_t row = 0; row < extent.size(); ++row) {
      if (extent.IsLive(row)) out.push_back(Value::Null());
    }
    return out;
  }
  const size_t uslot = static_cast<size_t>(slot);
  for (int64_t s = 0; s < extent.num_segments(); ++s) {
    const SegmentBatch batch = extent.Batch(s);
    const ColumnView col = batch.column(uslot);
    for (int64_t i = 0; i < batch.rows; ++i) {
      if (batch.live[i]) out.push_back(col.Get(i));
    }
  }
  return out;
}

Status ObjectStore::RestoreClassColumns(ClassId class_id,
                                        std::vector<ColumnData> cols,
                                        std::vector<uint8_t> live) {
  if (class_id < 0 ||
      class_id >= static_cast<ClassId>(extents_.size())) {
    return Status::Corruption("snapshot names an unknown class id " +
                              std::to_string(class_id));
  }
  return extents_[class_id]->RestoreColumns(std::move(cols),
                                            std::move(live));
}

Status ObjectStore::RestoreRelationshipPairs(
    RelId rel_id, std::vector<std::pair<int64_t, int64_t>> pairs) {
  if (rel_id < 0 || rel_id >= static_cast<RelId>(rels_.size())) {
    return Status::Corruption("snapshot names an unknown relationship id " +
                              std::to_string(rel_id));
  }
  const Relationship& rel = schema_->relationship(rel_id);
  RelData data;
  for (const auto& [row_a, row_b] : pairs) {
    if (row_a < 0 || row_a >= NumObjects(rel.a) || row_b < 0 ||
        row_b >= NumObjects(rel.b)) {
      return Status::Corruption("relationship '" + rel.name +
                                "' pair references a nonexistent row");
    }
    data.a.Append(row_a, row_b, data.next_seq++);
    data.b.Append(row_b, row_a, 0);
  }
  data.num_pairs = static_cast<int64_t>(pairs.size());
  rels_[rel_id] = std::move(data);
  return Status::OK();
}

Status ObjectStore::RestoreIndexEntries(
    ClassId class_id, AttrId attr_id,
    std::vector<std::pair<Value, int64_t>> entries) {
  auto it = indexes_.find({class_id, attr_id});
  if (it == indexes_.end()) {
    return Status::Corruption(
        "snapshot carries an index for a non-indexed attribute (class " +
        std::to_string(class_id) + ", attr " + std::to_string(attr_id) +
        ")");
  }
  // The serialized form is an in-order scan, so its keys must be
  // sorted; bulk-loading an unsorted sequence would silently break
  // every lookup invariant, so reject it as corruption instead. Within
  // a run of equal keys, snapshots written before the tree ordered
  // duplicates by row list them in insertion order: sort such a run by
  // row rather than reject it.
  auto key_less = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  auto entry_less = [](const auto& a, const auto& b) {
    const int order = a.first.Order(b.first);
    return order != 0 ? order < 0 : a.second < b.second;
  };
  if (!std::is_sorted(entries.begin(), entries.end(), key_less)) {
    return Status::Corruption(
        "snapshot index entries out of order (class " +
        std::to_string(class_id) + ", attr " + std::to_string(attr_id) +
        ")");
  }
  if (!std::is_sorted(entries.begin(), entries.end(), entry_less)) {
    std::sort(entries.begin(), entries.end(), entry_less);
  }
  auto fresh = std::make_unique<AttributeIndex>();
  fresh->LoadSorted(std::move(entries));
  it->second = std::move(fresh);
  return Status::OK();
}

}  // namespace sqopt
