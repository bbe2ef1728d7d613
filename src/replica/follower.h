// The follower side of WAL-shipping replication: a background thread
// that connects to a leader, checks with HELLO that the leader speaks
// this build's wire protocol version (a refusal halts the applier),
// subscribes from the local engine's own data_version(), and replays
// every received WAL group record through the ordinary Apply path — a
// crash-recovery in slow motion, over a socket.
//
// Version rules are EXACTLY recovery's (engine.cc Open replay):
//   - a record whose whole range is at or below the local version is
//     skipped (idempotent replay: the subscribe raced a commit, or a
//     reconnect re-shipped a record the follower already applied);
//   - a record starting past version + 1 is a GAP — on disk that is
//     corruption, over the wire it means leader and follower have
//     diverged, and the applier stops with a typed kCorruption status
//     rather than apply out of order;
//   - anything else applies as one atomic group (Engine::ApplyGroup),
//     so the follower's version only ever sits on leader group
//     boundaries — and when the follower engine was opened from a
//     durable directory, each applied group lands in the follower's
//     OWN WAL before publishing, which is what makes a SIGKILLed
//     follower restartable from exactly its committed prefix.
//
// A rejected batch (constraint violation on the follower that the
// leader committed) is also divergence: deterministic replay of a
// committed group cannot legitimately fail.
//
// Transport errors are NOT fatal: the applier waits kReconnectBackoffMs,
// reconnects and re-subscribes from its current version, for as long as
// it runs. Stop() (and the destructor) shut the loop down cleanly.
#ifndef SQOPT_REPLICA_FOLLOWER_H_
#define SQOPT_REPLICA_FOLLOWER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "api/engine.h"
#include "common/status.h"

namespace sqopt::replica {

// Wait between reconnect attempts after a transport failure.
inline constexpr int kReconnectBackoffMs = 200;

struct FollowerOptions {
  std::string leader_host = "127.0.0.1";
  int leader_port = 0;

  // Socket receive timeout; also the applier's stop-latency bound.
  int poll_interval_ms = 200;

  // Test/bench hook: called after each applied record with the new
  // local version (on the applier thread).
  std::function<void(uint64_t version)> on_record_applied;
};

struct FollowerStats {
  uint64_t records_applied = 0;
  uint64_t batches_applied = 0;
  uint64_t records_skipped = 0;  // idempotent re-delivery skips
  uint64_t reconnects = 0;
  uint64_t last_applied_version = 0;
  bool connected = false;
};

class FollowerApplier {
 public:
  // Spawns the applier thread. `engine` must outlive the applier and
  // must not receive writes from anyone else (the leader stream is
  // its single writer). Connection failures are retried in the
  // background — Start only fails on argument errors.
  static Result<std::unique_ptr<FollowerApplier>> Start(
      Engine* engine, FollowerOptions options);

  ~FollowerApplier();  // implies Stop()
  FollowerApplier(const FollowerApplier&) = delete;
  FollowerApplier& operator=(const FollowerApplier&) = delete;

  // Shuts the stream down and joins the thread. Idempotent.
  void Stop();

  // kOk while healthy (including while reconnecting); a typed error
  // once the applier halted: kCorruption for a version gap or a
  // rejected replayed batch (divergence), kOutOfRange when the leader
  // no longer retains this follower's position (re-seed), or the
  // leader's own refusal of HELLO or SUBSCRIBE.
  Status status() const;

  FollowerStats stats() const;

  // Blocks until the local engine reached `version` (or the applier
  // halted / `timeout_ms` elapsed); true iff the version was reached.
  bool WaitForVersion(uint64_t version, int timeout_ms) const;

 private:
  FollowerApplier(Engine* engine, FollowerOptions options);
  void Run();
  // One connect → hello → subscribe → stream session. Returns true to
  // reconnect, false to halt.
  bool RunSession();
  void Halt(Status why);

  Engine* engine_;
  FollowerOptions opts_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  Status status_;  // guarded by mu_
  bool halted_ = false;

  std::atomic<uint64_t> records_applied_{0};
  std::atomic<uint64_t> batches_applied_{0};
  std::atomic<uint64_t> records_skipped_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<bool> connected_{false};
};

}  // namespace sqopt::replica

#endif  // SQOPT_REPLICA_FOLLOWER_H_
