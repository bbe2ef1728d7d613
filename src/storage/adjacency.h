// One direction of a relationship's instances: for each row of the
// "from" class, its partner rows in the order they were linked.
//
// Rows are grouped by row-id range into chunks of kChunkRows (the
// extent segment size) held by shared_ptr, under the ownership rule of
// storage/cow.h: Clone() copies only the chunk pointers, and a write
// copies the one chunk it touches. A chunk is flat — one span record
// per row plus one partner array (and, on a sequenced side, a parallel
// array of link sequence numbers) — so copying it takes two or three
// allocations. Each row's list owns a slot range with slack; a list
// that outgrows its range moves to the end of the array, and the chunk
// compacts once abandoned slots make up half of it. Appending is
// amortized O(1); removing is O(degree).
#ifndef SQOPT_STORAGE_ADJACENCY_H_
#define SQOPT_STORAGE_ADJACENCY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "storage/cow.h"
#include "storage/extent.h"

namespace sqopt {

class Adjacency {
 public:
  static constexpr int64_t kChunkRows = Extent::kSegmentRows;

  // A sequenced side keeps a link sequence number beside every entry.
  explicit Adjacency(bool sequenced) : sequenced_(sequenced) {}

  // A version sharing every chunk with this one: O(chunks). The clone
  // and this side both get fresh ownership stamps, so either may be
  // written afterwards and copies each shared chunk on its first write.
  // Not safe concurrently with another Clone of, or a write to, this
  // side; concurrent reads are fine.
  Adjacency Clone() const;

  Adjacency(Adjacency&&) = default;
  Adjacency& operator=(Adjacency&&) = default;

  // Partners of `row` in link order; empty for rows never linked. The
  // span is invalidated by the next write to this side.
  std::span<const int64_t> Partners(int64_t row) const;

  // Appends `partner` (linked with sequence number `seq`, ignored on an
  // unsequenced side) to the end of `row`'s list.
  void Append(int64_t row, int64_t partner, uint64_t seq);

  // Removes `partner` from `row`'s list, keeping the order of the rest.
  // Returns false, copying nothing, when it is not there.
  bool Remove(int64_t row, int64_t partner);

  // Drops `row`'s whole list.
  void Clear(int64_t row);

  // Calls fn(row, partner, seq) for every entry, rows ascending and
  // each row's list in link order (seq is 0 on an unsequenced side).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const Chunk* chunk = chunks_[c].get();
      if (chunk == nullptr) continue;
      const int64_t base = static_cast<int64_t>(c) * kChunkRows;
      for (size_t local = 0; local < chunk->rows.size(); ++local) {
        const RowSpan& span = chunk->rows[local];
        for (uint32_t i = span.begin; i < span.begin + span.size; ++i) {
          fn(base + static_cast<int64_t>(local), chunk->partners[i],
             sequenced_ ? chunk->seqs[i] : uint64_t{0});
        }
      }
    }
  }

  // Test hook for the sharing contract: the identity of the chunk
  // holding `row` (null when that range was never written). Two sides
  // sharing a chunk return the same pointer.
  const void* ChunkIdentity(int64_t row) const;

 private:
  struct RowSpan {
    uint32_t begin = 0;     // first slot in Chunk::partners
    uint32_t size = 0;      // live entries
    uint32_t capacity = 0;  // slots reserved for this row
  };
  struct Chunk {
    OwnerStamp owner = 0;  // see storage/cow.h
    std::vector<RowSpan> rows;      // per local row, grown on demand
    std::vector<int64_t> partners;  // every row's slot range
    std::vector<uint64_t> seqs;     // parallel to partners if sequenced
    size_t abandoned = 0;           // slots no row owns any more
  };

  Adjacency(const Adjacency&) = default;  // shares chunks; see Clone()

  // The chunk holding `row`, or null.
  const Chunk* ChunkOf(int64_t row) const;
  // The chunk holding `row`, writable (created or copied as needed).
  Chunk& WritableChunk(int64_t row);
  // Rewrites `chunk` with every row's slots packed, dropping slack.
  void Compact(Chunk& chunk) const;

  bool sequenced_;
  // Re-stamped by Clone(), hence mutable.
  mutable OwnerStamp owner_ = NewOwnerStamp();
  std::vector<std::shared_ptr<Chunk>> chunks_;
};

}  // namespace sqopt

#endif  // SQOPT_STORAGE_ADJACENCY_H_
