#include "persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <utility>

#include "persist/crash_point.h"
#include "persist/serde.h"

namespace sqopt::persist {

namespace {

constexpr char kMagic[8] = {'S', 'Q', 'O', 'P', 'W', 'A', 'L', '1'};
constexpr size_t kHeaderBytes = kWalHeaderBytes;
// "WREC" — every record frame opens with it.
constexpr uint32_t kRecordSentinel = 0x57524543;

// ---------------------------------------------------------------------
// Mutation encoding. Only the fields the op kind uses are written.
// ---------------------------------------------------------------------

void PutMutation(ByteWriter* w, const Mutation& op) {
  w->PutU8(static_cast<uint8_t>(op.kind));
  switch (op.kind) {
    case Mutation::Kind::kInsert:
      w->PutI32(op.class_id);
      w->PutU32(static_cast<uint32_t>(op.object.values.size()));
      for (const Value& v : op.object.values) w->PutValue(v);
      break;
    case Mutation::Kind::kUpdate:
      w->PutI32(op.class_id);
      w->PutI64(op.row);
      w->PutI32(op.attr_id);
      w->PutValue(op.value);
      break;
    case Mutation::Kind::kDelete:
      w->PutI32(op.class_id);
      w->PutI64(op.row);
      break;
    case Mutation::Kind::kLink:
    case Mutation::Kind::kUnlink:
      w->PutI32(op.rel_id);
      w->PutI64(op.row_a);
      w->PutI64(op.row_b);
      break;
  }
}

// Re-stages one op into `batch` (MutationBatch rebuilds its own
// pending-insert handle numbering from the staging order, which the
// log preserves).
Status ReadMutationInto(ByteReader* r, MutationBatch* batch) {
  SQOPT_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
  switch (static_cast<Mutation::Kind>(kind)) {
    case Mutation::Kind::kInsert: {
      SQOPT_ASSIGN_OR_RETURN(ClassId class_id, r->I32());
      SQOPT_ASSIGN_OR_RETURN(uint32_t n, r->U32());
      Object obj;
      obj.values.reserve(r->CappedCount(n));
      for (uint32_t i = 0; i < n; ++i) {
        SQOPT_ASSIGN_OR_RETURN(Value v, r->ReadValue());
        obj.values.push_back(std::move(v));
      }
      batch->Insert(class_id, std::move(obj));
      return Status::OK();
    }
    case Mutation::Kind::kUpdate: {
      SQOPT_ASSIGN_OR_RETURN(ClassId class_id, r->I32());
      SQOPT_ASSIGN_OR_RETURN(int64_t row, r->I64());
      SQOPT_ASSIGN_OR_RETURN(AttrId attr_id, r->I32());
      SQOPT_ASSIGN_OR_RETURN(Value value, r->ReadValue());
      batch->Update(class_id, row, attr_id, std::move(value));
      return Status::OK();
    }
    case Mutation::Kind::kDelete: {
      SQOPT_ASSIGN_OR_RETURN(ClassId class_id, r->I32());
      SQOPT_ASSIGN_OR_RETURN(int64_t row, r->I64());
      batch->Delete(class_id, row);
      return Status::OK();
    }
    case Mutation::Kind::kLink:
    case Mutation::Kind::kUnlink: {
      SQOPT_ASSIGN_OR_RETURN(RelId rel_id, r->I32());
      SQOPT_ASSIGN_OR_RETURN(int64_t row_a, r->I64());
      SQOPT_ASSIGN_OR_RETURN(int64_t row_b, r->I64());
      if (static_cast<Mutation::Kind>(kind) == Mutation::Kind::kLink) {
        batch->Link(rel_id, row_a, row_b);
      } else {
        batch->Unlink(rel_id, row_a, row_b);
      }
      return Status::OK();
    }
  }
  return Status::Corruption("unknown mutation kind tag " +
                            std::to_string(static_cast<int>(kind)));
}

std::string HeaderBytes() {
  ByteWriter w;
  for (char c : kMagic) w.PutU8(static_cast<uint8_t>(c));
  w.PutU32(kWalFormatVersion);
  return w.Take();
}

}  // namespace

std::string EncodeWalRecordPayload(
    uint64_t first_version, std::span<const MutationBatch* const> batches) {
  ByteWriter w;
  w.PutU64(first_version);
  w.PutU32(static_cast<uint32_t>(batches.size()));
  for (const MutationBatch* batch : batches) {
    w.PutU32(static_cast<uint32_t>(batch->ops().size()));
    for (const Mutation& op : batch->ops()) PutMutation(&w, op);
  }
  return w.Take();
}

Result<WalRecord> DecodeWalRecordPayload(std::string_view payload) {
  ByteReader r(payload);
  WalRecord record;
  SQOPT_ASSIGN_OR_RETURN(record.first_version, r.U64());
  SQOPT_ASSIGN_OR_RETURN(uint32_t num_batches, r.U32());
  record.batches.reserve(r.CappedCount(num_batches));
  for (uint32_t b = 0; b < num_batches; ++b) {
    MutationBatch batch;
    SQOPT_ASSIGN_OR_RETURN(uint32_t ops, r.U32());
    for (uint32_t i = 0; i < ops; ++i) {
      SQOPT_RETURN_IF_ERROR(ReadMutationInto(&r, &batch));
    }
    record.batches.push_back(std::move(batch));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("WAL record has trailing bytes");
  }
  return record;
}

std::string EncodeMutationBatch(const MutationBatch& batch) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(batch.ops().size()));
  for (const Mutation& op : batch.ops()) PutMutation(&w, op);
  return w.Take();
}

Result<MutationBatch> DecodeMutationBatch(std::string_view bytes) {
  ByteReader r(bytes);
  MutationBatch batch;
  SQOPT_ASSIGN_OR_RETURN(uint32_t ops, r.U32());
  for (uint32_t i = 0; i < ops; ++i) {
    SQOPT_RETURN_IF_ERROR(ReadMutationInto(&r, &batch));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after mutation batch");
  }
  return batch;
}

RecordPlace PlaceRecord(uint64_t current_version, const WalRecord& record) {
  if (record.last_version() <= current_version) return RecordPlace::kBehind;
  if (record.first_version == current_version + 1) return RecordPlace::kNext;
  return RecordPlace::kGap;
}

Result<WalReadResult> ReadWal(const std::string& path) {
  WalReadResult out;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    // Fresh directory: an absent log is an empty log.
    out.valid_bytes = static_cast<int64_t>(kHeaderBytes);
    return out;
  }
  const auto size = in.tellg();
  std::string bytes(static_cast<size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), size);
  if (!in) {
    return Status::Corruption("cannot read '" + path + "'");
  }
  in.close();

  if (bytes.size() < kHeaderBytes) {
    // A header cut short (kill during the log's very creation): no
    // record can exist yet, so the log is empty. valid_bytes = 0 tells
    // WalWriter::Open to rebuild the header from scratch.
    out.valid_bytes = 0;
    out.torn_tail = !bytes.empty();
    return out;
  }

  ByteReader r(bytes);
  for (char expected : kMagic) {
    auto c = r.U8();
    if (!c.ok() || static_cast<char>(*c) != expected) {
      return Status::Corruption("'" + path + "' is not a sqopt WAL");
    }
  }
  {
    auto format = r.U32();
    if (!format.ok() || *format != kWalFormatVersion) {
      return Status::Corruption("WAL format version unsupported in '" +
                                path + "'");
    }
  }
  out.valid_bytes = static_cast<int64_t>(kHeaderBytes);

  while (!r.AtEnd()) {
    auto sentinel = r.U32();
    if (!sentinel.ok() || *sentinel != kRecordSentinel) break;
    auto len = r.U32();
    if (!len.ok()) break;
    auto crc = r.U32();
    if (!crc.ok()) break;
    auto payload = r.Raw(*len);
    if (!payload.ok()) break;  // torn tail: record cut short
    if (Crc32(payload->data(), payload->size()) != *crc) break;
    auto record = DecodeWalRecordPayload(*payload);
    if (!record.ok()) break;
    out.records.push_back(std::move(*record));
    out.valid_bytes =
        static_cast<int64_t>(bytes.size() - r.remaining());
  }
  out.torn_tail =
      out.valid_bytes < static_cast<int64_t>(bytes.size());
  return out;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      size_bytes_(other.size_bytes_) {
  other.fd_ = -1;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   int64_t truncate_to) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open WAL '" + path + "'");
  }
  int64_t size = static_cast<int64_t>(::lseek(fd, 0, SEEK_END));
  if (size > 0 && truncate_to == 0) {
    // ReadWal found no valid header (kill during log creation): wipe
    // and rebuild below as if the file were fresh.
    if (::ftruncate(fd, 0) != 0 || ::lseek(fd, 0, SEEK_SET) < 0) {
      ::close(fd);
      return Status::Internal("cannot reset WAL '" + path + "'");
    }
    size = 0;
  }
  if (size == 0) {
    // Fresh file: stamp the header.
    const std::string header = HeaderBytes();
    if (::write(fd, header.data(), header.size()) !=
        static_cast<ssize_t>(header.size())) {
      ::close(fd);
      return Status::Internal("cannot write WAL header to '" + path + "'");
    }
    size = static_cast<int64_t>(header.size());
  } else if (truncate_to >= static_cast<int64_t>(kHeaderBytes) &&
             truncate_to < size) {
    if (::ftruncate(fd, truncate_to) != 0) {
      ::close(fd);
      return Status::Internal("cannot truncate WAL tail of '" + path + "'");
    }
    size = truncate_to;
  }
  if (::lseek(fd, size, SEEK_SET) < 0) {
    ::close(fd);
    return Status::Internal("cannot seek WAL '" + path + "'");
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(fd, path, size));
}

Status WalWriter::Append(std::string_view payload, bool fsync,
                         uint64_t* fsync_micros) {
  if (fsync_micros != nullptr) *fsync_micros = 0;
  ByteWriter w;
  w.PutU32(kRecordSentinel);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload.data(), payload.size()));
  w.PutRaw(payload);
  const std::string& frame = w.buffer();

  MaybeCrash("wal_pre_write");
  size_t written = 0;
  while (written < frame.size()) {
    ssize_t n =
        ::write(fd_, frame.data() + written, frame.size() - written);
    if (n < 0) {
      // Roll the partial frame back so the file never carries a
      // half-record the next recovery must tolerate.
      (void)::ftruncate(fd_, size_bytes_);
      (void)::lseek(fd_, size_bytes_, SEEK_SET);
      return Status::Internal("WAL append failed on '" + path_ + "'");
    }
    written += static_cast<size_t>(n);
  }
  MaybeCrash("wal_pre_sync");
  if (fsync) {
    const auto sync_start = std::chrono::steady_clock::now();
    if (::fsync(fd_) != 0) {
      (void)::ftruncate(fd_, size_bytes_);
      (void)::lseek(fd_, size_bytes_, SEEK_SET);
      return Status::Internal("WAL fsync failed on '" + path_ + "'");
    }
    if (fsync_micros != nullptr) {
      *fsync_micros = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - sync_start)
              .count());
    }
  }
  MaybeCrash("wal_post_sync");
  size_bytes_ += static_cast<int64_t>(frame.size());
  return Status::OK();
}

Status WalWriter::Truncate(bool fsync) {
  if (::ftruncate(fd_, static_cast<int64_t>(kHeaderBytes)) != 0) {
    return Status::Internal("WAL truncate failed on '" + path_ + "'");
  }
  if (::lseek(fd_, static_cast<int64_t>(kHeaderBytes), SEEK_SET) < 0) {
    return Status::Internal("cannot seek WAL '" + path_ + "'");
  }
  if (fsync && ::fsync(fd_) != 0) {
    return Status::Internal("WAL fsync failed on '" + path_ + "'");
  }
  size_bytes_ = static_cast<int64_t>(kHeaderBytes);
  return Status::OK();
}

}  // namespace sqopt::persist
