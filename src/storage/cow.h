// Copy-on-write ownership stamps, the one sharing rule behind extent
// segments, relationship chunks and B-tree nodes.
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

}  // namespace sqopt

#endif  // SQOPT_STORAGE_COW_H_
