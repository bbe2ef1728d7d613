// The leader side of WAL-shipping replication: an in-memory tail of
// committed commit-group records, each the WAL record body the commit
// encoded once (persist::EncodeWalRecordPayload) and shared, not
// copied, with the log and every subscriber. What a follower receives
// over the wire is byte-identical to what crash recovery would read
// from the leader's log.
//
// Feed it two ways, both totally ordered:
//   - AttachTo(engine): taps Engine::SetCommitListener, so every
//     published commit group appends its record (under the engine's
//     commit lock — gap-free by construction; nothing is encoded here).
//   - PrimeFromWal(path): loads the committed suffix a restarted
//     leader still has on disk, so followers that were mid-stream can
//     resume without a re-seed as long as the leader hasn't
//     checkpointed past them.
//
// Records are held in version order, so ReadFrom finds a subscriber's
// first needed record by binary search and hands out shared payloads.
// Retention is bounded (max_records): the log drops its oldest records
// and advances floor_version. A subscriber whose version is below the
// floor gets a typed kOutOfRange — it must re-seed from a snapshot
// copy of the leader's directory, exactly like a new follower.
// See DESIGN.md "Replication".
#ifndef SQOPT_REPLICA_REPLICATION_LOG_H_
#define SQOPT_REPLICA_REPLICATION_LOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/status.h"

namespace sqopt::replica {

// One encoded commit group: the record covers snapshot versions
// [first_version, last_version]; payload is the WAL record body.
struct EncodedRecord {
  uint64_t first_version = 0;
  uint64_t last_version = 0;
  std::shared_ptr<const std::string> payload;
};

class ReplicationLog {
 public:
  explicit ReplicationLog(size_t max_records = 65536);

  // Appends one committed group, which must continue the retained
  // versions. Thread-safe; calls the notifier (outside the lock) after
  // the record is readable.
  void Append(EncodedRecord record);

  // Loads the valid record prefix of the WAL at `path` (a restarted
  // leader's committed suffix). Must be called before subscribers
  // attach and before new commits; records must continue gap-free
  // from what's already retained.
  Status PrimeFromWal(const std::string& path);

  // Wires this log as `engine`'s commit listener. Call after Open so
  // recovery replay (which bypasses the listener by design) never
  // double-feeds records that PrimeFromWal already loaded.
  void AttachTo(Engine* engine);

  // Every retained record covering versions past `from_version`, in
  // order, sharing the log's payloads. A subscriber below the retention floor gets kOutOfRange
  // (re-seed from snapshot); a subscriber at or past the tip gets an
  // empty vector (nothing to ship yet).
  Result<std::vector<EncodedRecord>> ReadFrom(uint64_t from_version) const;

  // Version the newest retained record commits up to (0 = empty).
  uint64_t last_version() const;
  // Subscribers must be at a version >= the floor to be servable.
  uint64_t floor_version() const;
  size_t record_count() const;

  // Called (with no lock held) after every Append — the server uses it
  // to pump subscriber connections. Pass nullptr to detach; detach
  // BEFORE destroying whatever the notifier captures.
  void SetNotifier(std::function<void()> notifier);

 private:
  mutable std::mutex mu_;
  std::deque<EncodedRecord> records_;
  // Highest version dropped by retention (0 = nothing dropped):
  // subscribers at a version < floor_ cannot be served.
  uint64_t floor_ = 0;
  uint64_t last_ = 0;
  size_t max_records_;
  std::function<void()> notifier_;
};

}  // namespace sqopt::replica

#endif  // SQOPT_REPLICA_REPLICATION_LOG_H_
