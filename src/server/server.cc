#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/worker_pool.h"
#include "replica/replication_log.h"
#include "server/wire.h"

namespace sqopt::server {

namespace {

using Clock = std::chrono::steady_clock;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

uint64_t MicrosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

struct Conn;

// One event loop: a thread that polls its own connections (loop 0 also
// the listen fd) and runs their cached queries to completion.
struct Loop {
  int index = 0;
  int wake_rd = -1;  // self-pipe: workers, pushes and drain nudge poll()
  int wake_wr = -1;
  std::thread thread;

  // --- This loop's thread only. ---
  std::unordered_map<int, std::shared_ptr<Conn>> conns;

  // Connections this loop owns, counting handed-over ones it has not
  // adopted yet; the acceptor gives each new connection to the loop
  // with the fewest.
  std::atomic<size_t> owned{0};

  // Accepted connections handed over by loop 0, adopted at the top of
  // this loop's next pass. `exited` (set once the loop has drained)
  // makes a late hand-over close the connection instead.
  std::mutex handoff_mu;
  std::vector<std::shared_ptr<Conn>> handoff;
  bool exited = false;

  ~Loop() {
    if (wake_rd >= 0) ::close(wake_rd);
    if (wake_wr >= 0) ::close(wake_wr);
  }

  void Wake() const {
    const char b = 'w';
    // Best effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t n = ::write(wake_wr, &b, 1);
  }
};

// One TCP connection. The loop that owns it owns the fd and the
// FrameReader. The output side is shared with workers and replication
// pushes, which may also send() on the fd, all under `mu`; `closed`
// tells a late worker the fd is already gone.
struct Conn {
  int fd = -1;
  Loop* loop = nullptr;  // the owner; set before the hand-over

  // --- Owning-loop-only state. ---
  FrameReader reader;

  // Steady-clock ticks of the last traffic; stamped by the owning loop
  // and by any thread that sends on the fd.
  std::atomic<Clock::rep> last_activity{0};

  // --- Shared, guarded by mu. ---
  std::mutex mu;
  std::string outbuf;
  bool closed = false;
  bool close_after_flush = false;
  // Answers owed to this connection, in request order. A pooled
  // request holds an empty slot until its worker fills it, and outbuf
  // takes frames only from the front, so answers leave in arrival order
  // whichever thread produced them. `owed_base` numbers owed.front().
  std::deque<std::optional<std::string>> owed;
  uint64_t owed_base = 0;

  // Requests admitted for this connection and not yet answered; the
  // reaper never closes a connection with one pending, and no request
  // runs inline while one is.
  std::atomic<int> inflight{0};

  // Replication subscriber: a caught-up follower is quiet by design,
  // so the idle reaper leaves it alone.
  std::atomic<bool> subscribed{false};

  void Touch() {
    last_activity.store(Clock::now().time_since_epoch().count(),
                        std::memory_order_relaxed);
  }
};

// Post() with no reserved slot: the answer goes behind everything owed.
constexpr uint64_t kNoSlot = ~uint64_t{0};

// Client-supplied deadlines are clamped to this.
constexpr uint32_t kMaxDeadlineMs = 60000;

// Every loop's poll(2) timeout: the longest a loop goes without
// reaping idle connections, and how long the acceptor leaves the listen
// fd out of its poll set after an accept error.
constexpr int kPollTimeoutMs = 50;

Response ErrorResponse(RequestType type, const Status& status) {
  Response r;
  r.type = type;
  r.code = status.code();
  r.message = status.message();
  return r;
}

}  // namespace

// ---------------------------------------------------------------------
// Impl.
// ---------------------------------------------------------------------

struct Server::Impl {
  Engine* engine = nullptr;
  ServerOptions opts;
  replica::ReplicationLog* replication = nullptr;

  int listen_fd = -1;  // polled and closed by loop 0
  int bound_port = 0;

  // Fixed at Start: one per hardware thread, capped at 16.
  std::vector<std::unique_ptr<Loop>> loops;
  // Runs admitted requests; `threads` workers. Destroyed in Await after
  // the loops, which exit only once every admitted request is answered.
  std::unique_ptr<WorkerPool> pool;

  // Replication subscribers. Pumped from the loops (at subscribe time)
  // AND from committing threads (the log's notifier), so the
  // registry has its own lock. `version` is the subscriber's current
  // applied version; the next record shipped starts at version + 1.
  struct Subscriber {
    std::shared_ptr<Conn> conn;
    uint64_t version = 0;
  };
  std::mutex sub_mu;
  std::vector<Subscriber> subscribers;

  std::atomic<bool> draining{false};
  // Backpressure: every loop stops reading at `max_queue` queued
  // requests and resumes at half of it. Workers read `reads_paused` to
  // wake the loops when their progress crosses the resume line.
  std::atomic<bool> reads_paused{false};

  // Counters (see ServerStats).
  std::atomic<uint64_t> accepted{0}, active{0}, reaped_idle{0};
  std::atomic<uint64_t> requests_received{0}, responses_sent{0};
  std::atomic<uint64_t> queries_ok{0}, queries_failed{0}, queries_inline{0};
  std::atomic<uint64_t> rejected_overloaded{0}, timed_out{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> queue_depth{0}, queue_depth_hwm{0};
  std::atomic<uint64_t> applies_ok{0}, applies_rejected{0};
  std::atomic<uint64_t> records_replicated{0}, subscribers_active{0};
  std::atomic<uint64_t> unsupported_version{0}, accept_errors{0};

  // Await/join latch.
  std::mutex join_mu;
  bool joined = false;

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
  }

  // Async-signal-safe: `loops` does not change after Start.
  void WakeAll() const {
    for (const auto& loop : loops) loop->Wake();
  }

  // Places `frame` in the connection's answer order — in the slot a
  // pooled request reserved, or behind everything owed when `slot` is
  // kNoSlot — and moves every ready answer at the front into outbuf.
  // With `direct` (any thread but the owning loop, which flushes after
  // each read pass), a connection that had nothing waiting for POLLOUT
  // is sent to right here. Returns whether the owning loop must be
  // woken: bytes are left unsent that it does not know about yet, or
  // the connection is waiting to close after its last answer.
  bool Post(Conn& conn, std::string frame, uint64_t slot, bool direct) {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.closed) return false;
    responses_sent.fetch_add(1, std::memory_order_relaxed);
    const bool was_idle = conn.outbuf.empty();
    if (slot == kNoSlot) {
      conn.owed.emplace_back(std::move(frame));
    } else {
      conn.owed[slot - conn.owed_base] = std::move(frame);
    }
    while (!conn.owed.empty() && conn.owed.front().has_value()) {
      if (conn.outbuf.empty()) {
        conn.outbuf.swap(*conn.owed.front());
      } else {
        conn.outbuf.append(*conn.owed.front());
      }
      conn.owed.pop_front();
      ++conn.owed_base;
    }
    if (!direct || !was_idle) return false;
    SendLocked(conn);
    return !conn.outbuf.empty() || conn.close_after_flush;
  }

  // Answers from the owning loop itself: they go out in the same pass's
  // FlushConn, so no wake-up.
  void Respond(const std::shared_ptr<Conn>& conn, const Response& response) {
    Post(*conn, EncodeResponse(response), kNoSlot, /*direct=*/false);
  }

  // Sends as much of outbuf as the socket takes. Caller holds conn.mu.
  // Returns false on a hard socket error.
  static bool SendLocked(Conn& conn) {
    while (!conn.outbuf.empty()) {
      const ssize_t n = ::send(conn.fd, conn.outbuf.data(),
                               conn.outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.outbuf.erase(0, static_cast<size_t>(n));
        conn.Touch();
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    return true;
  }

  // ------------------------------------------------------------------
  // Worker side.
  // ------------------------------------------------------------------

  // Executes one admitted request against the engine; fills the
  // response (whose type is already set).
  void Execute(const Request& request, Response* response) {
    switch (request.type) {
      case RequestType::kQuery: {
        const Clock::time_point t0 = Clock::now();
        Result<QueryOutcome> outcome = engine->Execute(request.query_text);
        response->exec_micros = MicrosSince(t0);
        if (!outcome.ok()) {
          queries_failed.fetch_add(1, std::memory_order_relaxed);
          response->code = outcome.status().code();
          response->message = outcome.status().message();
        } else {
          queries_ok.fetch_add(1, std::memory_order_relaxed);
          response->plan_cache_hit = outcome->plan_cache_hit;
          response->answered_without_database =
              outcome->answered_without_database;
          response->rows = std::move(outcome->rows.rows);
        }
        break;
      }
      case RequestType::kStats:
        response->stats_text = MetricsText();
        break;
      case RequestType::kPing:
        break;
      case RequestType::kApply: {
        if (opts.read_only) {
          applies_rejected.fetch_add(1, std::memory_order_relaxed);
          response->code = StatusCode::kFailedPrecondition;
          response->message =
              "read-only follower: send mutations to the leader";
          break;
        }
        const Clock::time_point t0 = Clock::now();
        Result<ApplyOutcome> outcome = engine->Apply(request.batch);
        response->exec_micros = MicrosSince(t0);
        if (!outcome.ok()) {
          applies_rejected.fetch_add(1, std::memory_order_relaxed);
          response->code = outcome.status().code();
          response->message = outcome.status().message();
        } else {
          applies_ok.fetch_add(1, std::memory_order_relaxed);
          response->snapshot_version = outcome->snapshot_version;
          response->inserted_rows = std::move(outcome->inserted_rows);
          response->group_size = static_cast<uint32_t>(outcome->group_size);
        }
        break;
      }
      case RequestType::kCheckpoint: {
        // Legal on a follower too: checkpointing folds ITS OWN WAL
        // into a snapshot — local compaction, not a mutation.
        const Status status = engine->Checkpoint();
        response->code = status.code();
        response->message = status.message();
        break;
      }
      default:
        // kHello/kSubscribe are handled inline on the owning loop and
        // kReplicate is never admitted; an entry here is a bug.
        response->code = StatusCode::kInternal;
        response->message = "request type cannot be executed by a worker";
        break;
    }
  }

  // One admitted request, on a pool worker.
  void RunAdmitted(const std::shared_ptr<Conn>& conn, const Request& request,
                   Clock::time_point deadline, uint64_t slot) {
    queue_depth.fetch_sub(1, std::memory_order_relaxed);
    // The deadline covers queue wait for EVERY request type, not
    // just queries: a saturated server answers an expired kStats or
    // kApply with kTimeout instead of executing it late.
    Response response;
    response.type = request.type;
    if (Clock::now() > deadline) {
      timed_out.fetch_add(1, std::memory_order_relaxed);
      response.code = StatusCode::kTimeout;
      response.message = "deadline expired before execution started";
    } else {
      if (opts.execute_delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.execute_delay_ms));
      }
      Execute(request, &response);
    }
    // The worker sends its own answer when it can, and wakes at most
    // once: every loop, so paused reads resume once the queue has
    // drained to half of max_queue; otherwise the connection's own
    // loop, for bytes the socket did not take or so a drain rechecks
    // its exit condition. The count drops first, so the woken loop
    // sees this request finished.
    const bool unsent =
        Post(*conn, EncodeResponse(response), slot, /*direct=*/true);
    conn->inflight.fetch_sub(1, std::memory_order_release);
    const bool resume =
        reads_paused.load(std::memory_order_relaxed) &&
        queue_depth.load(std::memory_order_relaxed) <= opts.max_queue / 2;
    if (resume) {
      WakeAll();
    } else if (unsent || draining.load(std::memory_order_relaxed)) {
      conn->loop->Wake();
    }
  }

  // ------------------------------------------------------------------
  // Loop side: each connection is read, framed and answered inline only
  // by the loop that owns it.
  // ------------------------------------------------------------------

  void Admit(const std::shared_ptr<Conn>& conn, Request request) {
    if (draining.load(std::memory_order_relaxed)) {
      rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
      Respond(conn, ErrorResponse(request.type,
                                  Status::Overloaded("server is draining")));
      return;
    }
    uint32_t deadline_ms = request.deadline_ms == 0
                               ? opts.default_deadline_ms
                               : std::min(request.deadline_ms, kMaxDeadlineMs);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(deadline_ms);
    uint64_t slot = 0;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      slot = conn->owed_base + conn->owed.size();
      conn->owed.emplace_back();
    }
    // Every loop admits, so the bound holds for all of them together:
    // a slot in the queue is taken only while the count is below it.
    uint64_t depth = queue_depth.load(std::memory_order_relaxed);
    do {
      if (depth >= opts.max_queue) {
        // Refused in the slot it reserved, so later answers stay behind
        // it.
        rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
        Post(*conn,
             EncodeResponse(ErrorResponse(
                 request.type,
                 Status::Overloaded("admission queue full (" +
                                    std::to_string(opts.max_queue) +
                                    " requests)"))),
             slot, /*direct=*/false);
        return;
      }
    } while (!queue_depth.compare_exchange_weak(depth, depth + 1,
                                                std::memory_order_relaxed));
    uint64_t hwm = queue_depth_hwm.load(std::memory_order_relaxed);
    while (depth + 1 > hwm && !queue_depth_hwm.compare_exchange_weak(
                                  hwm, depth + 1, std::memory_order_relaxed)) {
    }
    conn->inflight.fetch_add(1, std::memory_order_relaxed);
    pool->Submit([this, conn, request = std::move(request), deadline, slot] {
      RunAdmitted(conn, request, deadline, slot);
    });
  }

  // Runs a query on the owning loop when the engine holds a cached,
  // sequential plan for its text and nothing can be ahead of it: this
  // is the last readable connection of the loop's poll pass
  // (`inline_allowed`), the admission queue is empty, this connection
  // has no request in the pool, the server is not draining, and no
  // execute delay is set (a delay models a slow engine, so it routes
  // every query through the pool). Returns false, having done nothing,
  // otherwise.
  //
  // The last-readable rule: the queries of the loop's other readable
  // connections are admitted to the pool first, so they never wait
  // behind an inline run; and under overload each loop runs one query
  // per pass while the rest fill the admission queue and shed, instead
  // of running the whole backlog itself behind an empty queue.
  bool ServeInline(const std::shared_ptr<Conn>& conn, std::string_view text,
                   bool inline_allowed) {
    if (!inline_allowed || opts.execute_delay_ms > 0 ||
        draining.load(std::memory_order_relaxed) ||
        queue_depth.load(std::memory_order_relaxed) != 0 ||
        conn->inflight.load(std::memory_order_relaxed) != 0) {
      return false;
    }
    const Clock::time_point t0 = Clock::now();
    Result<CachedAnswer> answer = engine->ExecuteIfCached(text);
    if (answer.ok() && !answer->cached) return false;
    Response response;
    response.type = RequestType::kQuery;
    response.exec_micros = MicrosSince(t0);
    if (!answer.ok()) {
      queries_failed.fetch_add(1, std::memory_order_relaxed);
      response.code = answer.status().code();
      response.message = answer.status().message();
    } else {
      queries_ok.fetch_add(1, std::memory_order_relaxed);
      response.plan_cache_hit = true;
      response.answered_without_database = answer->answered_without_database;
      response.rows = std::move(answer->rows);
    }
    queries_inline.fetch_add(1, std::memory_order_relaxed);
    Respond(conn, response);
    return true;
  }

  void CloseAfterFlush(Conn& conn) {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.close_after_flush = true;
  }

  void HandleFrame(const std::shared_ptr<Conn>& conn,
                   std::string_view payload, bool inline_allowed) {
    requests_received.fetch_add(1, std::memory_order_relaxed);
    Result<Request> request = DecodeRequest(payload);
    if (!request.ok()) {
      // Echo the type byte when it at least parsed, so the client can
      // match the error to its request.
      RequestType echo = RequestType::kQuery;
      if (!payload.empty()) {
        const auto raw = static_cast<uint8_t>(payload[0]);
        if (raw >= 1 && raw <= 8) echo = static_cast<RequestType>(raw);
      }
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      Respond(conn, ErrorResponse(echo, request.status()));
      return;
    }

    if (request->type == RequestType::kHello) {
      // A version check, answered inline. Another version gets one
      // typed kUnsupportedVersion naming both, then a clean close (the
      // snapshot-v3 precedent: a version gap is not corruption).
      if (request->protocol_version != kProtocolVersion) {
        unsupported_version.fetch_add(1, std::memory_order_relaxed);
        Respond(conn,
                ErrorResponse(
                    RequestType::kHello,
                    Status::UnsupportedVersion(
                        "client speaks wire protocol v" +
                        std::to_string(request->protocol_version) +
                        " but this endpoint speaks only v" +
                        std::to_string(kProtocolVersion))));
        CloseAfterFlush(*conn);
        return;
      }
      Response r;
      r.type = RequestType::kHello;
      r.protocol_version = kProtocolVersion;
      if (replication != nullptr) r.feature_bits |= kFeatureReplication;
      Respond(conn, r);
      return;
    }

    if (request->type == RequestType::kSubscribe) {
      // Connection state, so handled inline by the owning loop: ack
      // with the leader's version, register, then pump — the ack
      // always precedes the first kReplicate frame in the outbuf.
      if (replication == nullptr) {
        Respond(conn,
                ErrorResponse(RequestType::kSubscribe,
                              Status::FailedPrecondition(
                                  "this server is not a replication "
                                  "leader (no replication log attached)")));
        return;
      }
      Response r;
      r.type = RequestType::kSubscribe;
      r.leader_version = engine->data_version();
      Respond(conn, r);
      conn->subscribed.store(true, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(sub_mu);
        subscribers.push_back({conn, request->from_version});
        subscribers_active.store(subscribers.size(),
                                 std::memory_order_relaxed);
      }
      PumpReplication();
      return;
    }

    // A cached, sequential query runs to completion right here.
    // Everything else — misses, stats, pings, applies, checkpoints —
    // goes through admission, so backpressure, overload rejection,
    // and the start-time deadline check apply uniformly.
    if (request->type == RequestType::kQuery &&
        ServeInline(conn, request->query_text, inline_allowed)) {
      return;
    }
    Admit(conn, std::move(*request));
  }

  // Ships every retained record past each subscriber's version.
  // Called from a loop (subscribe) and from committing
  // threads (the replication log's notifier); sub_mu serializes them,
  // so each subscriber's stream stays in order and gap-free. Frames
  // queue behind the connection's owed answers and are sent directly.
  void PumpReplication() {
    if (replication == nullptr) return;
    std::lock_guard<std::mutex> lock(sub_mu);
    bool changed = false;
    for (auto it = subscribers.begin(); it != subscribers.end();) {
      {
        std::lock_guard<std::mutex> conn_lock(it->conn->mu);
        if (it->conn->closed) {
          it = subscribers.erase(it);
          changed = true;
          continue;
        }
      }
      Result<std::vector<replica::EncodedRecord>> records =
          replication->ReadFrom(it->version);
      if (!records.ok()) {
        // Behind the retention floor: one typed error, then the
        // follower must re-seed from a snapshot.
        Push(*it->conn,
             ErrorResponse(RequestType::kReplicate, records.status()));
        it = subscribers.erase(it);
        changed = true;
        continue;
      }
      for (const replica::EncodedRecord& record : *records) {
        Response r;
        r.type = RequestType::kReplicate;
        r.first_version = record.first_version;
        r.wal_record = *record.payload;
        Push(*it->conn, r);
        it->version = record.last_version;
        records_replicated.fetch_add(1, std::memory_order_relaxed);
      }
      ++it;
    }
    if (changed) {
      subscribers_active.store(subscribers.size(),
                               std::memory_order_relaxed);
    }
  }

  void Push(Conn& conn, const Response& response) {
    if (Post(conn, EncodeResponse(response), kNoSlot, /*direct=*/true)) {
      conn.loop->Wake();
    }
  }

  // Handles every complete frame buffered for the connection. Once the
  // connection is set to close after its last answer, nothing more of
  // its input runs: the rest is dropped unread, here and by ReadConn.
  // Only the owning loop sets close_after_flush, so both read the flag
  // without the lock.
  void HandleFrames(const std::shared_ptr<Conn>& conn, bool inline_allowed) {
    std::string_view payload;
    while (!conn->close_after_flush) {
      const FrameReader::Outcome outcome = conn->reader.Next(&payload);
      if (outcome == FrameReader::Outcome::kNeedMore) return;
      if (outcome == FrameReader::Outcome::kFrame) {
        HandleFrame(conn, payload, inline_allowed);
      } else if (outcome == FrameReader::Outcome::kBadCrc) {
        // Recoverable: the frame boundary is known, so the stream is
        // still in sync — answer with a typed error and keep serving
        // this connection.
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        Respond(conn, ErrorResponse(RequestType::kQuery,
                                    Status::Corruption(
                                        "request frame failed CRC check")));
      } else {  // kTooLarge: cannot resync; answer and hang up.
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        Respond(conn,
                ErrorResponse(RequestType::kQuery,
                              Status::Corruption("frame exceeds maximum size")));
        CloseAfterFlush(*conn);
      }
    }
    conn->reader = FrameReader();
  }

  // Reads everything available; returns false when the connection is
  // finished and should be closed by the caller.
  bool ReadConn(const std::shared_ptr<Conn>& conn, bool inline_allowed) {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->Touch();
        if (!conn->close_after_flush) {
          conn->reader.Append(buf, static_cast<size_t>(n));
          HandleFrames(conn, inline_allowed);
        }
        // A short read drained the socket: skip the recv that would
        // only say EAGAIN. poll(2) is level-triggered, so bytes that
        // arrive later are reported on the next pass. A closing
        // connection reads no further this pass; it stays open until
        // its last answer has gone.
        if (static_cast<size_t>(n) < sizeof(buf) || conn->close_after_flush) {
          return true;
        }
        continue;
      }
      if (n == 0) {
        // Peer closed. Bytes stuck mid-frame mean it died inside one.
        if (conn->reader.buffered() > 0) {
          protocol_errors.fetch_add(1, std::memory_order_relaxed);
        }
        return false;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // hard socket error
    }
  }

  // Flushes pending output; returns false when the connection died or
  // has sent its last answer before a close.
  bool FlushConn(const std::shared_ptr<Conn>& conn) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!SendLocked(*conn)) return false;
    return !(conn->close_after_flush && conn->outbuf.empty() &&
             conn->owed.empty());
  }

  void CloseConn(const std::shared_ptr<Conn>& conn) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->closed = true;
      conn->outbuf.clear();
      conn->owed.clear();
    }
    {
      std::lock_guard<std::mutex> lock(sub_mu);
      for (auto it = subscribers.begin(); it != subscribers.end();) {
        if (it->conn == conn) {
          it = subscribers.erase(it);
        } else {
          ++it;
        }
      }
      subscribers_active.store(subscribers.size(),
                               std::memory_order_relaxed);
    }
    conn->loop->conns.erase(conn->fd);
    conn->loop->owned.fetch_sub(1, std::memory_order_relaxed);
    ::close(conn->fd);
    active.fetch_sub(1, std::memory_order_relaxed);
  }

  // Gives a freshly accepted connection to the loop with the fewest
  // (ties go to the lowest index, so loop 0 takes the first).
  void Place(Loop& acceptor, std::shared_ptr<Conn> conn) {
    Loop* owner = loops.front().get();
    for (const auto& loop : loops) {
      if (loop->owned.load(std::memory_order_relaxed) <
          owner->owned.load(std::memory_order_relaxed)) {
        owner = loop.get();
      }
    }
    owner->owned.fetch_add(1, std::memory_order_relaxed);
    conn->loop = owner;
    if (owner == &acceptor) {
      acceptor.conns.emplace(conn->fd, std::move(conn));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(owner->handoff_mu);
      if (!owner->exited) {
        owner->handoff.push_back(std::move(conn));
        owner->Wake();
        return;
      }
    }
    // The owner drained while this connection was being accepted.
    owner->owned.fetch_sub(1, std::memory_order_relaxed);
    ::close(conn->fd);
    active.fetch_sub(1, std::memory_order_relaxed);
  }

  // Accepts every pending connection. Returns false after an accept
  // error other than an empty backlog (EMFILE, ENFILE, ENOBUFS...): the
  // listen fd stays readable while the backlog waits, so the caller
  // leaves it out of its poll set for a while instead of spinning on it.
  bool AcceptAll(Loop& acceptor) {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        accept_errors.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->Touch();
      accepted.fetch_add(1, std::memory_order_relaxed);
      active.fetch_add(1, std::memory_order_relaxed);
      Place(acceptor, std::move(conn));
    }
  }

  // The drain exit condition over one loop's connections: none has an
  // admitted request unanswered, and every output buffer is flushed.
  static bool Drained(const Loop& loop) {
    for (const auto& [fd, conn] : loop.conns) {
      if (conn->inflight.load(std::memory_order_acquire) != 0) return false;
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->outbuf.empty()) return false;
    }
    return true;
  }

  void ReapIdle(Loop& loop) {
    if (opts.idle_timeout_ms == 0) return;
    const Clock::rep cutoff =
        (Clock::now() - std::chrono::milliseconds(opts.idle_timeout_ms))
            .time_since_epoch()
            .count();
    std::vector<std::shared_ptr<Conn>> victims;
    for (auto& [fd, conn] : loop.conns) {
      if (conn->last_activity.load(std::memory_order_relaxed) > cutoff) {
        continue;
      }
      if (conn->inflight.load(std::memory_order_relaxed) > 0) continue;
      if (conn->subscribed.load(std::memory_order_relaxed)) continue;
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->outbuf.empty()) continue;
      victims.push_back(conn);
    }
    for (const auto& conn : victims) {
      // Counted after the close, with release order: whoever reads the
      // reap (stats() loads are seq_cst) also sees the connection gone
      // from connections_active.
      CloseConn(conn);
      reaped_idle.fetch_add(1, std::memory_order_release);
    }
  }

  void RunLoop(Loop& loop) {
    // Named so a profiler (or a test) can tell the loops apart.
    const std::string name = "sqopt-io" + std::to_string(loop.index);
    ::pthread_setname_np(::pthread_self(), name.c_str());
    const bool acceptor = loop.index == 0;
    if (acceptor) {
      // Await joins loop 0 before the others, so it sees these threads.
      for (size_t i = 1; i < loops.size(); ++i) {
        Loop* other = loops[i].get();
        other->thread = std::thread([this, other] { RunLoop(*other); });
      }
    }
    // The acceptor polls the listen fd again from this point on.
    Clock::time_point accept_resume{};
    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Conn>> polled, adopted, dead;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(loop.handoff_mu);
        adopted.swap(loop.handoff);
      }
      for (auto& conn : adopted) loop.conns.emplace(conn->fd, std::move(conn));
      adopted.clear();

      const bool drain = draining.load(std::memory_order_relaxed);
      if (drain && Drained(loop)) break;

      // Backpressure hysteresis: stop reading at max_queue, resume once
      // the workers have drained half of it.
      const size_t depth = queue_depth.load(std::memory_order_relaxed);
      if (!reads_paused.load(std::memory_order_relaxed) &&
          depth >= opts.max_queue) {
        reads_paused.store(true, std::memory_order_relaxed);
      } else if (reads_paused.load(std::memory_order_relaxed) &&
                 depth <= opts.max_queue / 2) {
        reads_paused.store(false, std::memory_order_relaxed);
      }

      pfds.clear();
      polled.clear();
      pfds.push_back({loop.wake_rd, POLLIN, 0});
      const bool poll_listen =
          acceptor && !drain && Clock::now() >= accept_resume;
      if (poll_listen) pfds.push_back({listen_fd, POLLIN, 0});
      for (auto& [fd, conn] : loop.conns) {
        short events = 0;
        if (!drain && !reads_paused.load(std::memory_order_relaxed)) {
          events |= POLLIN;
        }
        {
          // POLLOUT also for a connection whose last answer went out
          // and that now waits only to be closed.
          std::lock_guard<std::mutex> lock(conn->mu);
          if (!conn->outbuf.empty() ||
              (conn->close_after_flush && conn->owed.empty())) {
            events |= POLLOUT;
          }
        }
        pfds.push_back({fd, events, 0});
        polled.push_back(conn);
      }

      if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                 kPollTimeoutMs) < 0 &&
          errno != EINTR) {
        break;  // unrecoverable poll failure
      }

      size_t idx = 0;
      if (pfds[idx].revents & POLLIN) {
        char sink[256];
        while (::read(loop.wake_rd, sink, sizeof(sink)) > 0) {
        }
      }
      ++idx;
      if (poll_listen) {
        if ((pfds[idx].revents & POLLIN) && !AcceptAll(loop)) {
          accept_resume =
              Clock::now() + std::chrono::milliseconds(kPollTimeoutMs);
        }
        ++idx;
      }
      size_t last_readable = polled.size();
      for (size_t i = 0; i < polled.size(); ++i) {
        if (pfds[idx + i].revents & POLLIN) last_readable = i;
      }
      dead.clear();
      for (size_t i = 0; i < polled.size(); ++i) {
        const short revents = pfds[idx + i].revents;
        const std::shared_ptr<Conn>& conn = polled[i];
        bool alive = true;
        if (revents & POLLOUT) alive = FlushConn(conn);
        if (alive && (revents & (POLLIN | POLLERR | POLLHUP))) {
          alive = ReadConn(conn, /*inline_allowed=*/i == last_readable);
          // Frames handled above may have produced inline responses
          // (stats, ping, errors); try to push them out right away
          // instead of waiting one poll round-trip.
          if (alive) alive = FlushConn(conn);
        }
        if (!alive) dead.push_back(conn);
      }
      for (const auto& conn : dead) CloseConn(conn);
      ReapIdle(loop);
    }

    // Drained: every request admitted for this loop's connections was
    // answered and flushed. Close what's left, including connections
    // handed over too late to be adopted.
    {
      std::lock_guard<std::mutex> lock(loop.handoff_mu);
      loop.exited = true;
      adopted.swap(loop.handoff);
    }
    for (auto& conn : adopted) loop.conns.emplace(conn->fd, std::move(conn));
    std::vector<std::shared_ptr<Conn>> leftover;
    leftover.reserve(loop.conns.size());
    for (auto& [fd, conn] : loop.conns) leftover.push_back(conn);
    for (const auto& conn : leftover) CloseConn(conn);
    if (acceptor) {
      ::close(listen_fd);
      listen_fd = -1;
    }
  }

  std::string MetricsText() const {
    char line[128];
    std::string out;
    auto put = [&](const char* name, uint64_t v) {
      std::snprintf(line, sizeof(line), "%s %llu\n", name,
                    static_cast<unsigned long long>(v));
      out += line;
    };
    put("server_connections_accepted", accepted.load());
    put("server_connections_active", active.load());
    put("server_connections_reaped_idle", reaped_idle.load());
    put("server_requests_received", requests_received.load());
    put("server_responses_sent", responses_sent.load());
    put("server_queries_ok", queries_ok.load());
    put("server_queries_failed", queries_failed.load());
    put("server_queries_inline", queries_inline.load());
    put("server_rejected_overloaded", rejected_overloaded.load());
    put("server_timed_out", timed_out.load());
    put("server_protocol_errors", protocol_errors.load());
    put("server_queue_depth", queue_depth.load());
    put("server_queue_depth_hwm", queue_depth_hwm.load());
    put("server_applies_ok", applies_ok.load());
    put("server_applies_rejected", applies_rejected.load());
    put("server_records_replicated", records_replicated.load());
    put("server_subscribers_active", subscribers_active.load());
    put("server_unsupported_version", unsupported_version.load());
    put("server_accept_errors", accept_errors.load());
    put("server_io_loops", loops.size());
    const EngineStats es = engine->stats();
    put("engine_queries_parsed", es.queries_parsed);
    put("engine_queries_executed", es.queries_executed);
    put("engine_queries_analyzed", es.queries_analyzed);
    put("engine_statements_prepared", es.statements_prepared);
    put("engine_prepared_executions", es.prepared_executions);
    put("engine_contradictions", es.contradictions);
    put("engine_mutation_batches_applied", es.mutation_batches_applied);
    put("engine_mutation_ops_applied", es.mutation_ops_applied);
    put("engine_mutation_batches_rejected", es.mutation_batches_rejected);
    put("engine_checkpoints", es.checkpoints);
    put("engine_wal_records_replayed", es.wal_records_replayed);
    put("engine_stats_recollections", es.stats_recollections);
    put("engine_data_version", engine->data_version());
    const PlanCacheStats pc = engine->plan_cache_stats();
    put("plan_cache_hits", pc.hits);
    put("plan_cache_misses", pc.misses);
    put("plan_cache_evictions", pc.evictions);
    put("plan_cache_invalidations", pc.invalidations);
    put("plan_cache_entries", pc.entries);
    put("plan_cache_capacity", pc.capacity);
    put("plan_cache_shards", pc.shards);
    return out;
  }
};

// ---------------------------------------------------------------------
// Public surface.
// ---------------------------------------------------------------------

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Result<std::unique_ptr<Server>> Server::Start(
    Engine* engine, ServerOptions options,
    replica::ReplicationLog* replication) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  if (!engine->has_data()) {
    return Status::FailedPrecondition(
        "engine has no data loaded: call Engine::Load before Server::Start");
  }
  if (options.threads < 1) {
    return Status::InvalidArgument("ServerOptions::threads must be >= 1");
  }
  if (options.max_queue < 1) {
    return Status::InvalidArgument("ServerOptions::max_queue must be >= 1");
  }
  if (options.default_deadline_ms < 1) {
    // 0 would stamp every deadline-less request already expired.
    return Status::InvalidArgument(
        "ServerOptions::default_deadline_ms must be >= 1");
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("ServerOptions::port " +
                                   std::to_string(options.port) +
                                   " is outside [0, 65535]");
  }

  auto impl = std::make_unique<Impl>();
  impl->engine = engine;
  impl->opts = options;
  impl->replication = replication;

  impl->listen_fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (impl->listen_fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(impl->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host address: " +
                                   options.host);
  }
  if (::bind(impl->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(impl->listen_fd, 128) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(impl->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return Errno("getsockname");
  }
  impl->bound_port = ntohs(bound.sin_port);

  // One loop per hardware thread, whatever `threads` is: the loops run
  // the cached queries, the workers only what is admitted.
  const int loop_count = WorkerPool::ResolveThreads(0);
  for (int i = 0; i < loop_count; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) return Errno("pipe2");
    loop->wake_rd = pipe_fds[0];
    loop->wake_wr = pipe_fds[1];
    impl->loops.push_back(std::move(loop));
  }

  Impl* raw = impl.get();
  if (replication != nullptr) {
    // Every committed group pumps the subscriber streams; detached in
    // Await() once the threads are joined.
    replication->SetNotifier([raw] { raw->PumpReplication(); });
  }
  impl->pool = std::make_unique<WorkerPool>(options.threads);
  // Loop 0 starts the others, off the caller's path: Start costs the
  // same thread creations whatever the loop count, and a connection
  // handed to a loop that is not running yet waits in its hand-over.
  Loop* acceptor = impl->loops.front().get();
  acceptor->thread = std::thread([raw, acceptor] { raw->RunLoop(*acceptor); });

  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

Server::~Server() {
  if (impl_ != nullptr) Shutdown();
}

int Server::port() const { return impl_->bound_port; }

void Server::RequestDrain() {
  impl_->draining.store(true, std::memory_order_relaxed);
  impl_->WakeAll();
}

void Server::Await() {
  std::lock_guard<std::mutex> lock(impl_->join_mu);
  if (impl_->joined) return;
  impl_->joined = true;
  // Index order: loop 0 started the others.
  for (const auto& loop : impl_->loops) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  impl_->pool.reset();
  // Commits after shutdown must not pump a dead server.
  if (impl_->replication != nullptr) impl_->replication->SetNotifier(nullptr);
}

void Server::Shutdown() {
  RequestDrain();
  Await();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = impl_->accepted.load();
  s.connections_active = impl_->active.load();
  s.connections_reaped_idle = impl_->reaped_idle.load();
  s.requests_received = impl_->requests_received.load();
  s.responses_sent = impl_->responses_sent.load();
  s.queries_ok = impl_->queries_ok.load();
  s.queries_failed = impl_->queries_failed.load();
  s.queries_inline = impl_->queries_inline.load();
  s.rejected_overloaded = impl_->rejected_overloaded.load();
  s.timed_out = impl_->timed_out.load();
  s.protocol_errors = impl_->protocol_errors.load();
  s.queue_depth = impl_->queue_depth.load();
  s.queue_depth_hwm = impl_->queue_depth_hwm.load();
  s.applies_ok = impl_->applies_ok.load();
  s.applies_rejected = impl_->applies_rejected.load();
  s.records_replicated = impl_->records_replicated.load();
  s.subscribers_active = impl_->subscribers_active.load();
  s.unsupported_version = impl_->unsupported_version.load();
  s.accept_errors = impl_->accept_errors.load();
  s.io_loops = impl_->loops.size();
  return s;
}

std::string Server::MetricsText() const { return impl_->MetricsText(); }

}  // namespace sqopt::server
