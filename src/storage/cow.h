// Copy-on-write ownership stamps, the one sharing rule behind extent
// segments and their column and live-bitmap pieces, relationship chunks
// and B-tree nodes.
//
// Every shareable piece carries the stamp of the container that made
// it, and a container writes a piece in place only while the stamps
// match; any other piece may be reachable from another version, so it
// is copied (and the copy stamped) on first write. Cloning a container
// gives BOTH the clone and the source fresh stamps, so after a clone
// neither side owns anything it shares: a stamp is held by one
// container at a time and never reused. That makes the check race-free
// by construction. Unlike shared_ptr::use_count() == 1 (which
// libstdc++ loads relaxed) it needs no acquire to order other threads'
// last reads of a piece before the in-place write: a piece whose stamp
// matches has never been reachable from another version.
#ifndef SQOPT_STORAGE_COW_H_
#define SQOPT_STORAGE_COW_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace sqopt {

using OwnerStamp = uint64_t;

// A process-unique stamp, never 0.
inline OwnerStamp NewOwnerStamp() {
  static std::atomic<OwnerStamp> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Returns *slot writable by `owner`, first replacing it with a private
// copy stamped `owner` when it carries another stamp. T needs a copy
// constructor and a public `owner` member.
template <typename T>
T& WritableCopy(std::shared_ptr<T>& slot, OwnerStamp owner) {
  if (slot->owner != owner) {
    auto copy = std::make_shared<T>(*slot);
    copy->owner = owner;
    slot = std::move(copy);
  }
  return *slot;
}

// The append frontier of a fixed-capacity array piece (an extent
// segment's column or live bitmap): how many leading elements any
// version has written into it. A version sees only the first
// `visible` elements of a piece it shares, so the elements at and past
// the frontier are visible to no version, and the one version whose
// visible count equals the frontier may claim the next element and
// write it in place, shared or not, while readers of other versions
// keep reading below it. Every other writer copies the piece first
// (WritablePrefix). Claims are made only by writers, which commits
// serialize, so the frontier orders nothing but the claims themselves.
class AppendFrontier {
 public:
  explicit AppendFrontier(int64_t written = 0) : written_(written) {}
  AppendFrontier(const AppendFrontier&) = delete;
  AppendFrontier& operator=(const AppendFrontier&) = delete;

  // Claims element `k`: true, advancing the frontier to k + 1, when no
  // version has written element k yet.
  bool Claim(int64_t k) {
    int64_t expected = k;
    return written_.compare_exchange_strong(expected, k + 1,
                                            std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> written_;
};

// WritableCopy for append pieces: a piece may hold more elements than
// the writer's version sees, so the private copy keeps only the first
// `visible` (and its frontier starts there). T needs a public `owner`
// member and CopyPrefix(visible, owner) returning shared_ptr<T>.
template <typename T>
T& WritablePrefix(std::shared_ptr<T>& slot, OwnerStamp owner,
                  size_t visible) {
  if (slot->owner != owner) slot = slot->CopyPrefix(visible, owner);
  return *slot;
}

}  // namespace sqopt

#endif  // SQOPT_STORAGE_COW_H_
