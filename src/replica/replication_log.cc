#include "replica/replication_log.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "persist/wal.h"

namespace sqopt::replica {

ReplicationLog::ReplicationLog(size_t max_records)
    : max_records_(max_records == 0 ? 1 : max_records) {}

void ReplicationLog::Append(EncodedRecord record) {
  std::function<void()> notify;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The very first record pins the retention floor: a WAL primed
    // after a checkpoint starts mid-history, and a subscriber below
    // that point needs a re-seed, not a bogus "divergence" gap.
    if (last_ == 0 && record.first_version > 0) {
      floor_ = record.first_version - 1;
    }
    last_ = record.last_version;
    records_.push_back(std::move(record));
    while (records_.size() > max_records_) {
      floor_ = records_.front().last_version;
      records_.pop_front();
    }
    notify = notifier_;
  }
  if (notify) notify();
}

Status ReplicationLog::PrimeFromWal(const std::string& path) {
  SQOPT_ASSIGN_OR_RETURN(persist::WalReadResult wal, persist::ReadWal(path));
  for (const persist::WalRecord& record : wal.records) {
    if (record.batches.empty()) continue;
    std::vector<const MutationBatch*> batches;
    batches.reserve(record.batches.size());
    for (const MutationBatch& batch : record.batches) batches.push_back(&batch);
    Append({record.first_version, record.last_version(),
            std::make_shared<const std::string>(persist::EncodeWalRecordPayload(
                record.first_version, batches))});
  }
  return Status::OK();
}

void ReplicationLog::AttachTo(Engine* engine) {
  engine->SetCommitListener(
      [this](uint64_t first_version, uint64_t last_version,
             std::shared_ptr<const std::string> record) {
        Append({first_version, last_version, std::move(record)});
      });
}

Result<std::vector<EncodedRecord>> ReplicationLog::ReadFrom(
    uint64_t from_version) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (from_version < floor_) {
    return Status::OutOfRange(
        "subscriber at version " + std::to_string(from_version) +
        " is behind the replication log's retention floor (version " +
        std::to_string(floor_) +
        "): re-seed the follower from a leader snapshot");
  }
  const auto first = std::partition_point(
      records_.begin(), records_.end(), [from_version](const EncodedRecord& r) {
        return r.last_version <= from_version;
      });
  return std::vector<EncodedRecord>(first, records_.end());
}

uint64_t ReplicationLog::last_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_;
}

uint64_t ReplicationLog::floor_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return floor_;
}

size_t ReplicationLog::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void ReplicationLog::SetNotifier(std::function<void()> notifier) {
  std::lock_guard<std::mutex> lock(mu_);
  notifier_ = std::move(notifier);
}

}  // namespace sqopt::replica
