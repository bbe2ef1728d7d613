// The extent of an object class: all its stored instances, with a slot
// layout covering inherited attributes (root ancestor's attributes
// first, then each subclass's own, declaration order within each).
//
// Rows live in fixed-size SEGMENTS held by shared_ptr, and each
// segment stores its rows COLUMN-MAJOR: one ColumnChunk (contiguous
// value array) per attribute slot, plus the live bitmap. The segment,
// each of its chunks and its bitmap are separate copy-on-write pieces
// under the ownership rule of storage/cow.h. Clone() shares every
// segment; a delete copies the segment's pointer shell and its 1 KB
// bitmap, an update the shell and the one column it writes. An insert
// at the tail claims the next row of each shared tail piece at its
// append frontier and writes it in place, copying nothing, because no
// other version can see that row (see AppendFrontier); only a writer
// behind the frontier, or a typed chunk that would demote, copies.
// That makes the commit path's copy-on-write clone O(segments) pointer
// copies, and a commit's copying O(touched columns), while pinned old
// snapshots keep seeing their pre-image through the shared pieces —
// and scans read each attribute as a tight contiguous array
// (SegmentBatch / ColumnView).
#ifndef SQOPT_STORAGE_EXTENT_H_
#define SQOPT_STORAGE_EXTENT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/column.h"
#include "storage/cow.h"
#include "storage/object.h"

namespace sqopt {

class Extent {
 public:
  // Rows per segment. A power of two so row -> (segment, offset) is a
  // shift and a mask on the hot read path.
  static constexpr int64_t kSegmentRows = 1024;

  Extent(const Schema* schema, ClassId class_id);

  // A shell copy sharing every segment: O(segments). The clone and
  // this extent both get fresh ownership stamps, so either may be
  // written afterwards and copies each shared segment on its first
  // write. Not safe concurrently with another Clone of, or a write to,
  // this extent; concurrent reads are fine.
  Extent Clone() const;

  Extent(Extent&&) = default;
  Extent& operator=(Extent&&) = default;

  ClassId class_id() const { return class_id_; }

  // Total row SLOTS, live and deleted alike. Row ids are positional and
  // stable for the lifetime of the store (deletes tombstone, never
  // compact), so scans iterate [0, size()) and skip !IsLive rows.
  int64_t size() const { return size_; }
  // Live rows only — the class cardinality statistics see.
  int64_t live_count() const { return live_count_; }
  bool IsLive(int64_t row) const {
    return row >= 0 && row < size_ &&
           segments_[static_cast<size_t>(row >> kSegmentShift)]
                   ->live->bits[static_cast<size_t>(row & kSegmentMask)] !=
               0;
  }
  size_t num_slots() const { return slot_types_.size(); }

  // Inserts an object; `obj.values` must have exactly num_slots()
  // entries in layout order. Returns the new row id.
  Result<int64_t> Insert(Object obj);

  // Tombstones one live row. The slot (and its values) stay in place so
  // row ids never shift; kOutOfRange for bad rows, kNotFound when the
  // row is already deleted. Index + adjacency maintenance is the
  // ObjectStore's job (Delete there cascades).
  Status Delete(int64_t row);

  // Value of attribute `ref.attr_id` in row `row`, by value (cold
  // path). Unknown attributes read as null; a row outside [0, size())
  // aborts the process — callers own the bounds, and silently reading
  // a neighbor's memory is worse than dying loudly.
  Value ValueAt(int64_t row, AttrId attr_id) const;

  // Hot-path variant that avoids copying strings: generic-encoded
  // columns return a direct reference into the segment, typed columns
  // materialize into *scratch. Same bounds behavior as ValueAt. The
  // reference is invalidated by the next call reusing `scratch` and by
  // any mutation of this extent.
  const Value& ValueRef(int64_t row, AttrId attr_id, Value* scratch) const;

  // Materializes one full row in layout order (the Insert/result
  // boundary; scans use Batch()). Same bounds behavior as ValueAt.
  Object MaterializeRow(int64_t row) const;

  // Overwrites one attribute value. Returns kNotFound when the
  // attribute does not belong to this class, kOutOfRange for bad rows.
  // Index maintenance is the ObjectStore's job (UpdateAttribute).
  Status SetValue(int64_t row, AttrId attr_id, Value value);

  // Slot offset of an attribute id in this extent's layout, -1 if the
  // attribute does not belong to this class.
  int SlotOf(AttrId attr_id) const;

  // ValueAt / ValueRef by slot, for callers that resolved SlotOf once
  // (the executor, per plan). A negative slot reads as null.
  Value ValueAtSlot(int64_t row, int slot) const {
    if (row < 0 || row >= size_) [[unlikely]] CheckRow(row);
    if (slot < 0) return Value::Null();
    return segments_[static_cast<size_t>(row >> kSegmentShift)]
        ->cols[static_cast<size_t>(slot)]
        ->Get(static_cast<size_t>(row & kSegmentMask));
  }
  const Value& ValueRefAtSlot(int64_t row, int slot, Value* scratch) const {
    if (row < 0 || row >= size_) [[unlikely]] CheckRow(row);
    if (slot < 0) {
      *scratch = Value::Null();
      return *scratch;
    }
    return segments_[static_cast<size_t>(row >> kSegmentShift)]
        ->cols[static_cast<size_t>(slot)]
        ->GetRef(static_cast<size_t>(row & kSegmentMask), scratch);
  }

  // Batch read API: borrowed views of segment `seg_idx`'s columns and
  // live bitmap. Rows [base_row, base_row + rows) of the extent.
  // Valid while this extent (or any copy sharing the segment) lives
  // and is not mutated.
  SegmentBatch Batch(int64_t seg_idx) const {
    const Segment& seg = *segments_[static_cast<size_t>(seg_idx)];
    SegmentBatch batch;
    batch.base_row = seg_idx << kSegmentShift;
    batch.rows = std::min(kSegmentRows, size_ - batch.base_row);
    batch.live = seg.live->bits.data();
    batch.cols = seg.cols.data();
    batch.num_slots = seg.cols.size();
    return batch;
  }

  // Persistence hook (src/persist/snapshot.cc): replaces this extent's
  // contents with deserialized whole-extent columns, one per slot in
  // layout order. `live` runs parallel to the columns (1 = live, 0 =
  // tombstoned); tombstoned rows keep their values, so a restored
  // extent is byte-for-byte the one that was saved. Rejects size
  // mismatches with kCorruption. Index maintenance is the caller's
  // job, as everywhere on this class.
  Status RestoreColumns(std::vector<ColumnData> cols,
                        std::vector<uint8_t> live);

  // Test hooks for the delta-clone contract: how many segments back
  // this extent, and the identity of the segment holding `row`, of its
  // column chunk for `slot` and of its live bitmap (two extents sharing
  // a piece return the same pointer).
  int64_t num_segments() const {
    return static_cast<int64_t>(segments_.size());
  }
  const void* SegmentIdentity(int64_t row) const {
    return segments_[static_cast<size_t>(row >> kSegmentShift)].get();
  }
  const void* ColumnIdentity(int64_t row, size_t slot) const {
    return segments_[static_cast<size_t>(row >> kSegmentShift)]
        ->cols[slot]
        .get();
  }
  const void* LiveIdentity(int64_t row) const {
    return segments_[static_cast<size_t>(row >> kSegmentShift)]->live.get();
  }

 private:
  static constexpr int kSegmentShift = 10;  // log2(kSegmentRows)
  static constexpr int64_t kSegmentMask = kSegmentRows - 1;
  static_assert((int64_t{1} << kSegmentShift) == kSegmentRows);

  // Parallel to a segment's columns: 1 = live, 0 = tombstoned. A
  // copy-on-write append piece like ColumnChunk (storage/cow.h).
  struct LiveBitmap {
    LiveBitmap(size_t capacity, OwnerStamp owner, int64_t written)
        : owner(owner), frontier(written), bits(capacity, 0) {}
    std::shared_ptr<LiveBitmap> CopyPrefix(size_t n, OwnerStamp owner) const;

    OwnerStamp owner;
    mutable AppendFrontier frontier;
    std::vector<uint8_t> bits;  // kSegmentRows, never resized
  };

  // The segment's pointer shell. Copying it shares every piece.
  struct Segment {
    OwnerStamp owner = 0;  // see storage/cow.h
    std::vector<std::shared_ptr<ColumnChunk>> cols;  // one per slot
    std::shared_ptr<LiveBitmap> live;
  };

  Extent(const Extent&) = default;  // shares segments; see Clone()

  // Returns segment `seg_idx`'s shell writable, copying it first unless
  // this extent owns it (storage/cow.h). The pieces stay shared.
  Segment& MutableSegment(size_t seg_idx);

  // Row slots of segment `seg_idx` this extent sees.
  size_t RowsIn(size_t seg_idx) const {
    return static_cast<size_t>(std::min(
        kSegmentRows,
        size_ - (static_cast<int64_t>(seg_idx) << kSegmentShift)));
  }

  // The piece of segment `seg_idx` that `pick(segment)` names (a
  // column chunk or the live bitmap), ready to take element `k`, the
  // next row: the piece itself when element `k` is still free at its
  // frontier and the value `fits` its encoding (or the piece is this
  // extent's own), else a private copy of its first `k` elements. A
  // shared piece is never demoted in place.
  template <typename Pick>
  auto& AppendTarget(size_t seg_idx, int64_t k, bool fits, Pick pick);

  // Aborts unless 0 <= row < size(): the documented precondition of
  // the row accessors above.
  void CheckRow(int64_t row) const;

  const Schema* schema_;
  ClassId class_id_;
  // Re-stamped by Clone(), hence mutable.
  mutable OwnerStamp owner_ = NewOwnerStamp();
  std::vector<std::shared_ptr<Segment>> segments_;
  int64_t size_ = 0;
  int64_t live_count_ = 0;
  std::unordered_map<AttrId, int> slot_of_;
  std::vector<ValueType> slot_types_;  // declared type per slot
};

}  // namespace sqopt

#endif  // SQOPT_STORAGE_EXTENT_H_
