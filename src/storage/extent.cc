#include "storage/extent.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace sqopt {

Extent::Extent(const Schema* schema, ClassId class_id)
    : schema_(schema), class_id_(class_id) {
  std::vector<AttrId> layout = schema_->LayoutOf(class_id);
  slot_types_.reserve(layout.size());
  for (size_t i = 0; i < layout.size(); ++i) {
    slot_of_[layout[i]] = static_cast<int>(i);
    slot_types_.push_back(
        schema_->attribute(AttrRef{class_id, layout[i]}).type);
  }
}

Extent Extent::Clone() const {
  Extent copy(*this);
  copy.owner_ = NewOwnerStamp();
  owner_ = NewOwnerStamp();
  return copy;
}

Extent::Segment& Extent::MutableSegment(size_t seg_idx) {
  return WritableCopy(segments_[seg_idx], owner_);
}

std::shared_ptr<Extent::LiveBitmap> Extent::LiveBitmap::CopyPrefix(
    size_t n, OwnerStamp owner) const {
  auto copy = std::make_shared<LiveBitmap>(bits.size(), owner,
                                           static_cast<int64_t>(n));
  std::copy_n(bits.begin(), n, copy->bits.begin());
  return copy;
}

template <typename Pick>
auto& Extent::AppendTarget(size_t seg_idx, int64_t k, bool fits, Pick pick) {
  auto& piece = *pick(*segments_[seg_idx]);
  if ((fits || piece.owner == owner_) && piece.frontier.Claim(k)) {
    return piece;
  }
  auto& slot = pick(MutableSegment(seg_idx));
  slot = slot->CopyPrefix(static_cast<size_t>(k), owner_);
  slot->frontier.Claim(k);
  return *slot;
}

void Extent::CheckRow(int64_t row) const {
  if (row >= 0 && row < size_) return;
  std::fprintf(stderr,
               "extent of class '%s': row %lld out of range [0, %lld)\n",
               schema_->object_class(class_id_).name.c_str(),
               static_cast<long long>(row), static_cast<long long>(size_));
  std::abort();
}

Result<int64_t> Extent::Insert(Object obj) {
  if (obj.values.size() != slot_types_.size()) {
    return Status::InvalidArgument(
        "object for class '" + schema_->object_class(class_id_).name +
        "' has " + std::to_string(obj.values.size()) + " values, expected " +
        std::to_string(slot_types_.size()));
  }
  const int64_t k = size_ & kSegmentMask;
  if (k == 0) {
    auto seg = std::make_shared<Segment>();
    seg->owner = owner_;
    seg->cols.reserve(slot_types_.size());
    for (ValueType type : slot_types_) {
      seg->cols.push_back(std::make_shared<ColumnChunk>(
          type, static_cast<size_t>(kSegmentRows), owner_));
    }
    seg->live = std::make_shared<LiveBitmap>(
        static_cast<size_t>(kSegmentRows), owner_, 0);
    segments_.push_back(std::move(seg));
  }
  const size_t seg_idx = segments_.size() - 1;
  const size_t offset = static_cast<size_t>(k);
  for (size_t slot = 0; slot < obj.values.size(); ++slot) {
    Value& v = obj.values[slot];
    const bool fits = segments_[seg_idx]->cols[slot]->Fits(v);
    AppendTarget(seg_idx, k, fits, [slot](Segment& seg) -> auto& {
      return seg.cols[slot];
    }).Set(offset, std::move(v));
  }
  AppendTarget(seg_idx, k, true, [](Segment& seg) -> auto& {
    return seg.live;
  }).bits[offset] = 1;
  ++live_count_;
  return size_++;
}

Status Extent::Delete(int64_t row) {
  if (row < 0 || row >= size_) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range");
  }
  if (!IsLive(row)) {
    return Status::NotFound("row " + std::to_string(row) + " of class '" +
                            schema_->object_class(class_id_).name +
                            "' is already deleted");
  }
  const size_t seg_idx = static_cast<size_t>(row >> kSegmentShift);
  WritablePrefix(MutableSegment(seg_idx).live, owner_, RowsIn(seg_idx))
      .bits[static_cast<size_t>(row & kSegmentMask)] = 0;
  --live_count_;
  return Status::OK();
}

Status Extent::RestoreColumns(std::vector<ColumnData> cols,
                              std::vector<uint8_t> live) {
  if (cols.size() != slot_types_.size()) {
    return Status::Corruption(
        "extent of class '" + schema_->object_class(class_id_).name +
        "': serialized form has " + std::to_string(cols.size()) +
        " columns, layout has " + std::to_string(slot_types_.size()));
  }
  for (size_t slot = 0; slot < cols.size(); ++slot) {
    if (cols[slot].size() != live.size()) {
      return Status::Corruption(
          "extent of class '" + schema_->object_class(class_id_).name +
          "': column " + std::to_string(slot) + " has " +
          std::to_string(cols[slot].size()) + " rows, live bitmap has " +
          std::to_string(live.size()));
    }
  }
  int64_t live_count = 0;
  for (uint8_t l : live) {
    if (l != 0) ++live_count;
  }
  segments_.clear();
  const size_t rows = live.size();
  for (size_t base = 0; base < rows;
       base += static_cast<size_t>(kSegmentRows)) {
    const size_t end =
        std::min(base + static_cast<size_t>(kSegmentRows), rows);
    auto seg = std::make_shared<Segment>();
    seg->owner = owner_;
    seg->cols.reserve(cols.size());
    for (size_t slot = 0; slot < cols.size(); ++slot) {
      seg->cols.push_back(ColumnChunk::FromSlice(
          cols[slot], base, end, slot_types_[slot],
          static_cast<size_t>(kSegmentRows), owner_));
    }
    seg->live = std::make_shared<LiveBitmap>(
        static_cast<size_t>(kSegmentRows), owner_,
        static_cast<int64_t>(end - base));
    std::copy(live.begin() + base, live.begin() + end,
              seg->live->bits.begin());
    segments_.push_back(std::move(seg));
  }
  size_ = static_cast<int64_t>(rows);
  live_count_ = live_count;
  return Status::OK();
}

Value Extent::ValueAt(int64_t row, AttrId attr_id) const {
  return ValueAtSlot(row, SlotOf(attr_id));
}

const Value& Extent::ValueRef(int64_t row, AttrId attr_id,
                              Value* scratch) const {
  return ValueRefAtSlot(row, SlotOf(attr_id), scratch);
}

Object Extent::MaterializeRow(int64_t row) const {
  CheckRow(row);
  const Segment& seg = *segments_[static_cast<size_t>(row >> kSegmentShift)];
  const size_t offset = static_cast<size_t>(row & kSegmentMask);
  Object obj;
  obj.values.reserve(seg.cols.size());
  for (const std::shared_ptr<ColumnChunk>& col : seg.cols) {
    obj.values.push_back(col->Get(offset));
  }
  return obj;
}

Status Extent::SetValue(int64_t row, AttrId attr_id, Value value) {
  if (row < 0 || row >= size_) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range");
  }
  int slot = SlotOf(attr_id);
  if (slot < 0) {
    return Status::NotFound("attribute does not belong to class '" +
                            schema_->object_class(class_id_).name + "'");
  }
  const size_t seg_idx = static_cast<size_t>(row >> kSegmentShift);
  WritablePrefix(MutableSegment(seg_idx).cols[static_cast<size_t>(slot)],
                 owner_, RowsIn(seg_idx))
      .Set(static_cast<size_t>(row & kSegmentMask), std::move(value));
  return Status::OK();
}

int Extent::SlotOf(AttrId attr_id) const {
  auto it = slot_of_.find(attr_id);
  return it == slot_of_.end() ? -1 : it->second;
}

}  // namespace sqopt
