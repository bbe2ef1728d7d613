// Columnar segment storage: the value arrays behind Extent's segments.
//
// Each attribute slot of a segment is one ColumnChunk — a contiguous
// array in one of three encodings. Chunks whose declared attribute type
// is int or double store raw int64_t/double arrays (the batch filter's
// auto-vectorizable input); everything else, and any chunk that ever
// receives a value outside its declared type (including null), demotes
// to a generic Value array. Demotion is per chunk, so one odd value in
// one segment never slows scans over the rest of the extent.
//
// ColumnView / SegmentBatch are the read API the executor scans with:
// borrowed pointers into one segment's arrays, valid only while the
// owning snapshot is alive — the same lifetime contract reads already
// rely on.
#ifndef SQOPT_STORAGE_COLUMN_H_
#define SQOPT_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/cow.h"
#include "types/value.h"

namespace sqopt {

enum class ColumnEncoding : uint8_t {
  kGeneric = 0,  // std::vector<Value>: strings, refs, bools, mixed, nulls
  kInt64 = 1,    // raw int64_t array
  kFloat64 = 2,  // raw double array
};

// Whole-extent column in serialized/restore form: what snapshot decode
// hands Extent::RestoreColumns. One encoding for the whole column; the
// extent re-slices it into per-segment chunks (re-promoting generic
// slices that happen to match the declared type, so a restored store
// scans as fast as the one that was saved).
struct ColumnData {
  ColumnEncoding encoding = ColumnEncoding::kGeneric;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<Value> generic;

  size_t size() const {
    switch (encoding) {
      case ColumnEncoding::kInt64:
        return i64.size();
      case ColumnEncoding::kFloat64:
        return f64.size();
      case ColumnEncoding::kGeneric:
        return generic.size();
    }
    return 0;
  }
};

// Borrowed, read-only view of one chunk's array. Exactly one of
// i64/f64/generic is non-null, matching `encoding`.
struct ColumnView {
  ColumnEncoding encoding = ColumnEncoding::kGeneric;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const Value* generic = nullptr;
  int64_t size = 0;

  // Materializes element `i` whatever the encoding. Precondition:
  // 0 <= i < size.
  Value Get(int64_t i) const {
    switch (encoding) {
      case ColumnEncoding::kInt64:
        return Value::Int(i64[i]);
      case ColumnEncoding::kFloat64:
        return Value::Double(f64[i]);
      case ColumnEncoding::kGeneric:
        return generic[i];
    }
    return Value::Null();
  }
};

// One attribute slot of one segment: a fixed-capacity typed array with
// per-element overwrite (Set) and on-mismatch demotion. It is a
// copy-on-write piece of its own (storage/cow.h), so versions share it
// until one of them writes it. The array is allocated at full capacity
// once and never resized: a version appending at the piece's frontier
// writes the next element in place while other versions read the
// elements below it, so no read ever sees the array move. How many
// elements a version sees is the extent's business (its row count), not
// the chunk's; readers bound every access by it.
class ColumnChunk {
 public:
  // Empty chunk of `capacity` elements in the fast encoding of the
  // attribute's declared type, stamped `owner`, frontier 0.
  ColumnChunk(ValueType declared, size_t capacity, OwnerStamp owner);

  ColumnChunk(const ColumnChunk&) = delete;
  ColumnChunk& operator=(const ColumnChunk&) = delete;

  // Chunk over rows [begin, end) of a whole-extent column, with room
  // for `capacity` (>= end - begin) elements and its frontier at
  // end - begin. A generic source slice is re-promoted to `declared`'s
  // fast encoding when every value in the slice matches it.
  static std::shared_ptr<ColumnChunk> FromSlice(const ColumnData& src,
                                                size_t begin, size_t end,
                                                ValueType declared,
                                                size_t capacity,
                                                OwnerStamp owner);

  // A private copy of elements [0, n), same encoding and capacity,
  // stamped `owner`, frontier n (see WritablePrefix).
  std::shared_ptr<ColumnChunk> CopyPrefix(size_t n, OwnerStamp owner) const;

  OwnerStamp owner;  // see storage/cow.h
  // Elements written by any version; only writers touch it.
  mutable AppendFrontier frontier;

  ColumnEncoding encoding() const { return enc_; }
  size_t capacity() const;

  // True when `v` can be stored without demoting the chunk.
  bool Fits(const Value& v) const;

  // Overwrites element `i` (precondition: i < capacity()). A value
  // that does not fit demotes the whole chunk to generic, which
  // rewrites the array: only the chunk's owner may store such a value.
  void Set(size_t i, Value v);

  // Materializes element `i` by value. Precondition: i < capacity().
  Value Get(size_t i) const;

  // Hot-path accessor that avoids copying strings: generic chunks
  // return a direct reference, typed chunks materialize into *scratch
  // and return it. The reference is invalidated by the next call with
  // the same scratch and by any mutation of the element.
  const Value& GetRef(size_t i, Value* scratch) const {
    switch (enc_) {
      case ColumnEncoding::kInt64:
        *scratch = Value::Int(i64_[i]);
        return *scratch;
      case ColumnEncoding::kFloat64:
        *scratch = Value::Double(f64_[i]);
        return *scratch;
      case ColumnEncoding::kGeneric:
        return generic_[i];
    }
    return *scratch;
  }

  // View of the first `rows` elements (the ones the caller's version
  // sees).
  ColumnView View(int64_t rows) const {
    ColumnView view;
    view.encoding = enc_;
    view.size = rows;
    switch (enc_) {
      case ColumnEncoding::kInt64:
        view.i64 = i64_.data();
        break;
      case ColumnEncoding::kFloat64:
        view.f64 = f64_.data();
        break;
      case ColumnEncoding::kGeneric:
        view.generic = generic_.data();
        break;
    }
    return view;
  }

 private:
  ColumnChunk(ColumnEncoding enc, size_t capacity, OwnerStamp owner,
              int64_t written);

  // Rewrites the chunk as a generic Value array (int64/double are
  // exactly representable as Values, so reads are unchanged).
  void Demote();

  ColumnEncoding enc_ = ColumnEncoding::kGeneric;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<Value> generic_;
};

// One segment's worth of columns, borrowed from an Extent. `base_row`
// is the extent row id of element 0; `rows` is the number of row slots
// of the segment the borrowing version sees. Every column and the live
// bitmap may hold more (rows other versions appended), so readers stay
// below `rows`.
struct SegmentBatch {
  int64_t base_row = 0;
  int64_t rows = 0;
  const uint8_t* live = nullptr;  // 1 = live, 0 = tombstoned
  const std::shared_ptr<ColumnChunk>* cols = nullptr;  // num_slots chunks
  size_t num_slots = 0;

  const ColumnChunk& chunk(size_t slot) const { return *cols[slot]; }
  ColumnView column(size_t slot) const { return cols[slot]->View(rows); }
};

}  // namespace sqopt

#endif  // SQOPT_STORAGE_COLUMN_H_
