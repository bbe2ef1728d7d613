#include "replica/follower.h"

#include <chrono>
#include <utility>
#include <vector>

#include "persist/wal.h"
#include "server/client.h"

namespace sqopt::replica {

namespace {
using std::chrono::milliseconds;
}  // namespace

Result<std::unique_ptr<FollowerApplier>> FollowerApplier::Start(
    Engine* engine, FollowerOptions options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("follower engine must not be null");
  }
  if (!engine->has_data()) {
    return Status::FailedPrecondition(
        "follower engine has no data loaded: open it from a leader "
        "snapshot (or Load a matching fixture) before following");
  }
  if (options.leader_port <= 0) {
    return Status::InvalidArgument("leader_port must be set");
  }
  if (options.poll_interval_ms <= 0) options.poll_interval_ms = 200;
  auto applier = std::unique_ptr<FollowerApplier>(
      new FollowerApplier(engine, std::move(options)));
  applier->thread_ = std::thread([raw = applier.get()] { raw->Run(); });
  return applier;
}

FollowerApplier::FollowerApplier(Engine* engine, FollowerOptions options)
    : engine_(engine), opts_(std::move(options)) {}

FollowerApplier::~FollowerApplier() { Stop(); }

void FollowerApplier::Stop() {
  stopping_.store(true, std::memory_order_relaxed);
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

Status FollowerApplier::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

FollowerStats FollowerApplier::stats() const {
  FollowerStats s;
  s.records_applied = records_applied_.load(std::memory_order_relaxed);
  s.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  s.records_skipped = records_skipped_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.last_applied_version = engine_->data_version();
  s.connected = connected_.load(std::memory_order_relaxed);
  return s;
}

bool FollowerApplier::WaitForVersion(uint64_t version,
                                     int timeout_ms) const {
  const auto deadline =
      std::chrono::steady_clock::now() + milliseconds(timeout_ms);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (engine_->data_version() >= version) return true;
    if (halted_) return false;
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return engine_->data_version() >= version;
    }
  }
}

void FollowerApplier::Halt(Status why) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    status_ = std::move(why);
    halted_ = true;
  }
  cv_.notify_all();
}

void FollowerApplier::Run() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!RunSession()) return;  // halted with a typed status
    connected_.store(false, std::memory_order_relaxed);
    if (stopping_.load(std::memory_order_relaxed)) return;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    // Interruptible backoff.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, milliseconds(kReconnectBackoffMs), [&] {
      return stopping_.load(std::memory_order_relaxed);
    });
  }
}

bool FollowerApplier::RunSession() {
  Result<server::Client> client = server::Client::Connect(
      opts_.leader_host, opts_.leader_port, opts_.poll_interval_ms);
  if (!client.ok()) return true;  // transport: retry

  Result<server::Response> hello = client->Hello();
  if (!hello.ok()) return true;  // transport: retry
  if (!hello->ok()) {
    // The leader answered but refused: version gap or not a leader.
    // That is configuration, not transport — halt with its words.
    Halt(hello->ToStatus());
    return false;
  }

  Result<server::Response> sub = client->Subscribe(engine_->data_version());
  if (!sub.ok()) return true;
  if (!sub->ok()) {
    Halt(sub->ToStatus());
    return false;
  }
  connected_.store(true, std::memory_order_relaxed);

  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<server::Response> pushed = client->ReceiveResponse();
    if (!pushed.ok()) {
      // Receive timeout = no records yet: keep waiting. Anything else
      // is transport: reconnect and re-subscribe from our version.
      if (pushed.status().code() == StatusCode::kTimeout) continue;
      return true;
    }
    if (pushed->type != server::RequestType::kReplicate) {
      continue;  // e.g. a stray subscribe ack after re-delivery
    }
    if (!pushed->ok()) {
      // Typed push failure — kOutOfRange when the leader's retention
      // no longer covers us. Divergence/fatal either way.
      Halt(pushed->ToStatus());
      return false;
    }

    Result<persist::WalRecord> record =
        persist::DecodeWalRecordPayload(pushed->wal_record);
    if (!record.ok()) {
      Halt(record.status());
      return false;
    }
    if (record->batches.empty()) continue;

    // Recovery's version rule (persist::PlaceRecord).
    const uint64_t current = engine_->data_version();
    const persist::RecordPlace place = persist::PlaceRecord(current, *record);
    if (place == persist::RecordPlace::kBehind) {
      records_skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (place == persist::RecordPlace::kGap) {
      Halt(Status::Corruption(
          "replication gap: leader shipped versions [" +
          std::to_string(record->first_version) + ", " +
          std::to_string(record->last_version()) +
          "] but this follower is at version " +
          std::to_string(current) +
          " — leader and follower have diverged; re-seed the follower"));
      return false;
    }

    std::vector<Result<ApplyOutcome>> outcomes =
        engine_->ApplyGroup(record->batches);
    for (const Result<ApplyOutcome>& outcome : outcomes) {
      if (!outcome.ok()) {
        Halt(Status::Corruption(
            "replicated batch rejected on replay (" +
            outcome.status().message() +
            "): deterministic replay of a committed group cannot fail — "
            "leader and follower have diverged; re-seed the follower"));
        return false;
      }
    }
    records_applied_.fetch_add(1, std::memory_order_relaxed);
    batches_applied_.fetch_add(outcomes.size(), std::memory_order_relaxed);
    cv_.notify_all();
    if (opts_.on_record_applied) {
      opts_.on_record_applied(engine_->data_version());
    }
  }
  return true;  // stopping
}

}  // namespace sqopt::replica
