#include "storage/adjacency.h"

#include <algorithm>

namespace sqopt {

namespace {

constexpr int kChunkShift = 10;  // log2(kChunkRows)
static_assert((int64_t{1} << kChunkShift) == Adjacency::kChunkRows);

size_t LocalRow(int64_t row) {
  return static_cast<size_t>(row & (Adjacency::kChunkRows - 1));
}

}  // namespace

Adjacency Adjacency::Clone() const {
  Adjacency copy(*this);
  copy.owner_ = NewOwnerStamp();
  owner_ = NewOwnerStamp();
  return copy;
}

const Adjacency::Chunk* Adjacency::ChunkOf(int64_t row) const {
  if (row < 0) return nullptr;
  const size_t idx = static_cast<size_t>(row >> kChunkShift);
  return idx < chunks_.size() ? chunks_[idx].get() : nullptr;
}

Adjacency::Chunk& Adjacency::WritableChunk(int64_t row) {
  const size_t idx = static_cast<size_t>(row >> kChunkShift);
  if (idx >= chunks_.size()) chunks_.resize(idx + 1);
  std::shared_ptr<Chunk>& slot = chunks_[idx];
  if (slot == nullptr) {
    slot = std::make_shared<Chunk>();
    slot->owner = owner_;
    return *slot;
  }
  return WritableCopy(slot, owner_);
}

const void* Adjacency::ChunkIdentity(int64_t row) const {
  return ChunkOf(row);
}

std::span<const int64_t> Adjacency::Partners(int64_t row) const {
  const Chunk* chunk = ChunkOf(row);
  const size_t local = LocalRow(row);
  if (chunk == nullptr || local >= chunk->rows.size()) return {};
  const RowSpan& span = chunk->rows[local];
  return {chunk->partners.data() + span.begin, span.size};
}

void Adjacency::Append(int64_t row, int64_t partner, uint64_t seq) {
  Chunk& chunk = WritableChunk(row);
  const size_t local = LocalRow(row);
  if (local >= chunk.rows.size()) chunk.rows.resize(local + 1);
  RowSpan& span = chunk.rows[local];
  if (span.size == span.capacity) {
    const uint32_t grown = std::max<uint32_t>(2, span.capacity * 2);
    const size_t end = chunk.partners.size();
    if (span.capacity > 0 && span.begin + span.capacity == end) {
      // The list already ends the array: extend it in place.
      chunk.partners.resize(end + (grown - span.capacity));
      if (sequenced_) chunk.seqs.resize(chunk.partners.size());
    } else {
      // Move the list to the end of the array with room to grow.
      chunk.partners.resize(end + grown);
      std::copy_n(chunk.partners.begin() + span.begin, span.size,
                  chunk.partners.begin() + end);
      if (sequenced_) {
        chunk.seqs.resize(chunk.partners.size());
        std::copy_n(chunk.seqs.begin() + span.begin, span.size,
                    chunk.seqs.begin() + end);
      }
      chunk.abandoned += span.capacity;
      span.begin = static_cast<uint32_t>(end);
    }
    span.capacity = grown;
  }
  chunk.partners[span.begin + span.size] = partner;
  if (sequenced_) chunk.seqs[span.begin + span.size] = seq;
  ++span.size;
  if (chunk.abandoned * 2 > chunk.partners.size()) Compact(chunk);
}

bool Adjacency::Remove(int64_t row, int64_t partner) {
  std::span<const int64_t> list = Partners(row);
  auto it = std::find(list.begin(), list.end(), partner);
  if (it == list.end()) return false;
  const size_t offset = static_cast<size_t>(it - list.begin());
  Chunk& chunk = WritableChunk(row);
  RowSpan& span = chunk.rows[LocalRow(row)];
  const auto first = chunk.partners.begin() + span.begin;
  std::copy(first + offset + 1, first + span.size, first + offset);
  if (sequenced_) {
    const auto seq_first = chunk.seqs.begin() + span.begin;
    std::copy(seq_first + offset + 1, seq_first + span.size,
              seq_first + offset);
  }
  --span.size;
  return true;
}

void Adjacency::Clear(int64_t row) {
  const Chunk* chunk = ChunkOf(row);
  if (chunk == nullptr || LocalRow(row) >= chunk->rows.size() ||
      chunk->rows[LocalRow(row)].capacity == 0) {
    return;
  }
  Chunk& writable = WritableChunk(row);
  RowSpan& span = writable.rows[LocalRow(row)];
  writable.abandoned += span.capacity;
  span = RowSpan();
  if (writable.abandoned * 2 > writable.partners.size()) Compact(writable);
}

void Adjacency::Compact(Chunk& chunk) const {
  std::vector<int64_t> partners;
  std::vector<uint64_t> seqs;
  size_t live = 0;
  for (const RowSpan& span : chunk.rows) live += span.size;
  partners.reserve(live);
  if (sequenced_) seqs.reserve(live);
  for (RowSpan& span : chunk.rows) {
    const uint32_t begin = static_cast<uint32_t>(partners.size());
    partners.insert(partners.end(), chunk.partners.begin() + span.begin,
                    chunk.partners.begin() + span.begin + span.size);
    if (sequenced_) {
      seqs.insert(seqs.end(), chunk.seqs.begin() + span.begin,
                  chunk.seqs.begin() + span.begin + span.size);
    }
    span.begin = begin;
    span.capacity = span.size;
  }
  chunk.partners = std::move(partners);
  chunk.seqs = std::move(seqs);
  chunk.abandoned = 0;
}

}  // namespace sqopt
