// The network serving layer: an async TCP front end over the const,
// thread-safe Engine read path. One event loop per hardware thread
// (capped at 16) multiplexes its own connections over non-blocking
// sockets + poll(2) (per-connection read/write state machines, idle
// reaping); loop 0 also accepts, handing each new connection to the
// loop with the fewest. A query whose text has a cached sequential plan
// runs to completion on the loop that owns its connection when nothing
// is queued ahead of it (at most one connection's per poll pass of that
// loop, so a backlog still reaches the pool); a fixed worker pool
// executes everything else that is admitted, against the same engine
// and therefore the same plan cache. Workers send their own answers when
// the connection has nothing else waiting to go out, and every
// connection's answers leave in request order.
//
// Admission control: decoded query requests enter a bounded queue.
// A full queue rejects the request immediately with a typed
// kOverloaded response (the request is never executed, memory stays
// bounded); at the configurable backpressure watermark every loop
// additionally stops reading request bytes until the queue drains,
// so a firehose client is throttled by TCP flow control instead of
// ballooning the input buffers.
//
// Deadlines: every query carries a deadline (client-supplied or the
// server default) covering queue wait. A request whose deadline has
// expired when a worker picks it up is answered with a typed kTimeout
// response without executing; execution itself is never interrupted.
//
// Graceful drain: RequestDrain() (async-signal-safe — SIGTERM handlers
// call it directly) stops accepting and stops reading, finishes every
// queued and in-flight request, flushes every response, then closes.
// See DESIGN.md "Network serving".
//
// Replication (v2): pass a replica::ReplicationLog to Start and the
// server becomes a LEADER — kSubscribe registers the connection as a
// follower and committed groups are pushed as kReplicate frames (the
// log's notifier pumps subscribers on every commit). With
// `read_only` set the server is a FOLLOWER front end: kApply gets a
// typed kFailedPrecondition pointing writers at the leader, while
// queries serve normally from whatever the local applier has caught
// up to. See DESIGN.md "Replication".
#ifndef SQOPT_SERVER_SERVER_H_
#define SQOPT_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "api/engine.h"
#include "common/status.h"
#include "server/wire.h"

namespace sqopt::replica {
class ReplicationLog;
}  // namespace sqopt::replica

namespace sqopt::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; read the bound port from port()

  // Pool workers executing admitted requests (cache misses, parallel
  // plans, stats, pings, applies, checkpoints). Cached sequential
  // queries run on the event loops, whose count follows the hardware
  // (ServerStats::io_loops), not this field.
  // Independent of the engine's morsel pool, which only parallel plans
  // fan their scans across.
  int threads = 4;

  // Admission bound: queued-but-not-started requests beyond which new
  // queries are rejected with kOverloaded.
  size_t max_queue = 128;

  // Stop reading request bytes when the queue reaches this depth;
  // resume below half of it. 0 = max_queue (reject-only backpressure).
  size_t backpressure_watermark = 0;

  // Deadline applied to requests that don't carry one; client-supplied
  // deadlines are clamped to 60 s.
  uint32_t default_deadline_ms = 5000;

  // Connections with no traffic and no pending work for this long are
  // reaped. 0 disables reaping.
  uint32_t idle_timeout_ms = 60000;

  // Fault injection: sleep this long inside each worker before
  // executing a request. A delay models a slow engine, so a non-zero
  // value also routes every query through the pool (none runs inline
  // on an event loop). Lets tests and the overload bench pin the
  // server's capacity deterministically. 0 in production.
  uint32_t execute_delay_ms = 0;

  // Lowest wire protocol version this endpoint serves. Connections
  // below it (including fresh v1 connections that never sent HELLO)
  // get one typed kUnsupportedVersion response naming both versions,
  // then a clean close. Default accepts v1 clients.
  uint32_t min_protocol = kProtocolVersionMin;

  // Follower mode: reject kApply with a typed kFailedPrecondition
  // (mutations must go to the leader). Queries serve normally.
  bool read_only = false;
};

// Cumulative server-side counters; reads are atomic snapshots.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t connections_reaped_idle = 0;
  uint64_t requests_received = 0;   // decoded frames, all types
  uint64_t responses_sent = 0;      // responses written back to connections
  uint64_t queries_ok = 0;          // query responses with code kOk
  uint64_t queries_failed = 0;      // typed engine errors (parse etc.)
  uint64_t queries_inline = 0;      // queries run on an event loop
  uint64_t rejected_overloaded = 0; // admission-queue rejections
  uint64_t timed_out = 0;           // deadline expiries
  uint64_t protocol_errors = 0;     // bad CRC, bad payload, oversized frame
  uint64_t queue_depth = 0;         // instantaneous admitted-not-started
  uint64_t queue_depth_hwm = 0;     // high-water mark since start
  uint64_t applies_ok = 0;          // kApply responses with code kOk
  uint64_t applies_rejected = 0;    // typed kApply failures (incl. read-only)
  uint64_t records_replicated = 0;  // kReplicate frames pushed to followers
  uint64_t subscribers_active = 0;  // registered replication subscribers
  uint64_t unsupported_version = 0; // version-gap rejections
  uint64_t accept_errors = 0;       // accept(2) failures (EMFILE, ENFILE...)
  uint64_t io_loops = 0;            // event loops, fixed at Start
};

class Server {
 public:
  // Binds, listens, and spawns the event loops + workers. `engine` must
  // have data loaded and must outlive the server. The read path stays
  // const; kApply/kCheckpoint drive the engine's write path. A port
  // outside [0, 65535] or a min_protocol outside the versions this
  // build speaks fails with kInvalidArgument. A non-null `replication`
  // makes this server a replication leader (it must outlive the
  // server; the server installs itself as the log's notifier and
  // detaches on shutdown).
  static Result<std::unique_ptr<Server>> Start(
      Engine* engine, ServerOptions options,
      replica::ReplicationLog* replication = nullptr);

  ~Server();  // implies Shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // The bound TCP port (resolves an ephemeral bind).
  int port() const;

  // Begins graceful drain: stop accepting, stop reading, finish queued
  // + in-flight requests, flush responses, close. Async-signal-safe
  // (an atomic store and one pipe write per loop) — call it from a
  // SIGTERM handler.
  void RequestDrain();

  // Blocks until the drain completes and every thread has been joined.
  // Idempotent and safe from multiple threads.
  void Await();

  // RequestDrain + Await.
  void Shutdown();

  ServerStats stats() const;

  // The plaintext metrics snapshot the STATS request serves:
  // "name value" lines covering ServerStats, EngineStats, and the
  // plan-cache counters.
  std::string MetricsText() const;

 private:
  struct Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace sqopt::server

#endif  // SQOPT_SERVER_SERVER_H_
