// The write-ahead log behind durable Engine::Apply. One append-only
// file per persistence directory:
//
//   header   magic "SQOPWAL1", u32 format version
//   record   u32 sentinel | u32 payload length | u32 CRC-32 | payload
//   payload  u64 first_version | u32 batch count
//            | per batch: u32 op count | ops (see wal.cc)
//
// Format v2: one record carries a whole COMMIT GROUP — the batches a
// group-commit leader made durable with a single append + fsync. Batch
// i of a record committed as snapshot version `first_version + i`, so
// a record spans the version range [first_version,
// first_version + batches.size() - 1]. The single CRC frame makes the
// group all-or-nothing on recovery: either every batch of the group
// replays or none does (whole-group atomicity). The commit encodes a
// group's payload once (EncodeWalRecordPayload): WalWriter::Append
// frames those bytes, and the replication tap ships the same bytes
// (replica/replication_log.h).
//
// Versioning keeps replay idempotent: recovery skips records whose
// whole range is at or below the snapshot's version (a checkpoint
// killed between its rename and its truncate leaves exactly that state
// behind) and requires the rest to continue gap-free. A torn tail — a
// record cut short by a crash, or whose checksum fails — ends the
// valid prefix: ReadWal returns the records before it plus the byte
// offset where the prefix ends, and WalWriter truncates there before
// appending, so one crash never poisons the next.
#ifndef SQOPT_PERSIST_WAL_H_
#define SQOPT_PERSIST_WAL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/mutation.h"
#include "common/status.h"

namespace sqopt::persist {

// v2 = group records (one record per commit group). v1 logs (single
// batch per record) are rejected as unsupported: WAL files never
// outlive a checkpoint in normal operation, and the snapshot format is
// the compatibility surface, not the log.
inline constexpr uint32_t kWalFormatVersion = 2;

// Bytes before the first record frame (magic + u32 format version).
// Exposed so tests and the crash harness can sweep "every offset in
// the record region" without hardcoding the header size.
inline constexpr size_t kWalHeaderBytes = 12;

struct WalRecord {
  // Snapshot version batches[0] committed as; batches[i] committed as
  // first_version + i.
  uint64_t first_version = 0;
  std::vector<MutationBatch> batches;

  // The version the last batch committed as (non-empty records only).
  uint64_t last_version() const { return first_version + batches.size() - 1; }
};

// Where a non-empty record falls against a store at `current_version`,
// the one version rule recovery and replication share. kBehind: its
// whole range is at or below the current version (a checkpoint already
// folded it in), so skip it. kNext: it starts at current_version + 1,
// so apply it. kGap: anything else, a hole or a straddle of the current
// version; a group publishes atomically, so such a log is not this
// store's.
enum class RecordPlace { kBehind, kNext, kGap };
RecordPlace PlaceRecord(uint64_t current_version, const WalRecord& record);

struct WalReadResult {
  std::vector<WalRecord> records;  // the valid prefix, in file order
  int64_t valid_bytes = 0;         // file offset where the prefix ends
  bool torn_tail = false;          // bytes past valid_bytes were ignored
};

// Reads the valid prefix of the log at `path`. A missing file is an
// empty log (fresh directory); a bad header is kCorruption. Structural
// damage past the first valid record only shortens the prefix — WAL
// semantics cannot distinguish a torn append from later corruption, so
// both end the log there.
Result<WalReadResult> ReadWal(const std::string& path);

// The record payload codec (batch i commits as first_version + i). The
// leader ships exactly these bytes over the wire (inside a kReplicate
// response) and the follower decodes them with the rules recovery
// uses, so the wire payload and the on-disk record body are
// byte-identical. Decoding a truncated or mangled payload returns
// kCorruption.
std::string EncodeWalRecordPayload(
    uint64_t first_version, std::span<const MutationBatch* const> batches);
Result<WalRecord> DecodeWalRecordPayload(std::string_view payload);

// One batch's ops on the same codec record bodies use (u32 op count +
// ops) — the kApply wire serde, so a batch that crossed the wire and a
// batch replayed from the log decode through identical paths.
std::string EncodeMutationBatch(const MutationBatch& batch);
Result<MutationBatch> DecodeMutationBatch(std::string_view bytes);

// Append handle. Exactly one writer per directory (the engine holds it
// behind its commit lock).
class WalWriter {
 public:
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&&) = delete;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Opens `path` for appending, creating it (with a fresh header) when
  // absent. `truncate_to` >= 0 cuts the file there first — the caller
  // passes ReadWal's valid_bytes so a torn tail is discarded before
  // the first new append.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 int64_t truncate_to = -1);

  // Appends one CRC-framed group record whose body is `payload` (an
  // EncodeWalRecordPayload result); flushes to the OS always,
  // fsyncs when `fsync` (DurabilityOptions::fsync). On any error the
  // file is truncated back to its pre-append length, so a failed
  // append never leaves a half-record for recovery to trip on. When
  // `fsync_micros` is non-null it receives the wall-clock microseconds
  // the fsync call took (0 with fsync off) — the bench's bottleneck
  // attribution hook.
  Status Append(std::string_view payload, bool fsync,
                uint64_t* fsync_micros = nullptr);

  // Cuts the log back to just its header — the checkpoint's final act,
  // after the new snapshot is durably in place.
  Status Truncate(bool fsync);

  int64_t size_bytes() const { return size_bytes_; }

 private:
  WalWriter(int fd, std::string path, int64_t size)
      : fd_(fd), path_(std::move(path)), size_bytes_(size) {}

  int fd_ = -1;
  std::string path_;
  int64_t size_bytes_ = 0;
};

}  // namespace sqopt::persist

#endif  // SQOPT_PERSIST_WAL_H_
