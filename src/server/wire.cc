#include "server/wire.h"

#include <cstring>
#include <utility>

#include "persist/serde.h"
#include "persist/wal.h"

namespace sqopt::server {

namespace {

using persist::ByteReader;
using persist::ByteWriter;
using persist::Crc32;

constexpr size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc

constexpr uint8_t kFlagCacheHit = 1u << 0;
constexpr uint8_t kFlagNoDatabase = 1u << 1;

Result<RequestType> ReadRequestType(uint8_t raw) {
  switch (raw) {
    case static_cast<uint8_t>(RequestType::kQuery):
      return RequestType::kQuery;
    case static_cast<uint8_t>(RequestType::kStats):
      return RequestType::kStats;
    case static_cast<uint8_t>(RequestType::kPing):
      return RequestType::kPing;
    case static_cast<uint8_t>(RequestType::kHello):
      return RequestType::kHello;
    case static_cast<uint8_t>(RequestType::kApply):
      return RequestType::kApply;
    case static_cast<uint8_t>(RequestType::kSubscribe):
      return RequestType::kSubscribe;
    case static_cast<uint8_t>(RequestType::kReplicate):
      return RequestType::kReplicate;
    case static_cast<uint8_t>(RequestType::kCheckpoint):
      return RequestType::kCheckpoint;
    default:
      return Status::Corruption("unknown request type byte " +
                                std::to_string(static_cast<int>(raw)));
  }
}

char* StoreU32(char* out, size_t v) {
  const auto u = static_cast<uint32_t>(v);
  std::memcpy(out, &u, sizeof(u));
  return out + sizeof(u);
}

// Frames are built in place: StartFrame reserves the header and
// FinishFrame patches the payload's length and CRC into it, so the
// payload is written once and never copied into a second buffer.
ByteWriter StartFrame() {
  ByteWriter w;
  w.PutU32(0);  // payload_len
  w.PutU32(0);  // payload_crc
  return w;
}

std::string FinishFrame(ByteWriter* w) {
  const size_t len = w->size() - kFrameHeaderBytes;
  w->PatchU32(0, static_cast<uint32_t>(len));
  w->PatchU32(4, Crc32(w->buffer().data() + kFrameHeaderBytes, len));
  return w->Take();
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  ByteWriter w = StartFrame();
  w.PutRaw(payload);
  return FinishFrame(&w);
}

std::string EncodeRequest(const Request& request) {
  ByteWriter w = StartFrame();
  w.PutU8(static_cast<uint8_t>(request.type));
  if (request.type == RequestType::kHello) {
    w.PutU32(request.protocol_version);
    w.PutU64(request.feature_bits);
    return FinishFrame(&w);
  }
  w.PutU32(request.deadline_ms);
  switch (request.type) {
    case RequestType::kQuery:
      w.PutString(request.query_text);
      break;
    case RequestType::kApply:
      w.PutString(persist::EncodeMutationBatch(request.batch));
      break;
    case RequestType::kSubscribe:
      w.PutU64(request.from_version);
      break;
    default:
      break;  // kStats / kPing / kCheckpoint carry nothing further
  }
  return FinishFrame(&w);
}

std::string EncodeResponse(const Response& response) {
  ByteWriter w = StartFrame();
  w.PutU8(static_cast<uint8_t>(response.type));
  w.PutU8(static_cast<uint8_t>(response.code));
  w.PutString(response.message);
  if (response.ok()) {
    switch (response.type) {
      case RequestType::kQuery: {
        uint8_t flags = 0;
        if (response.plan_cache_hit) flags |= kFlagCacheHit;
        if (response.answered_without_database) flags |= kFlagNoDatabase;
        w.PutU8(flags);
        w.PutU64(response.exec_micros);
        // Sized first, then written in one pass into one extension of
        // the frame.
        size_t bytes = 4;
        for (const std::vector<Value>& row : response.rows) {
          bytes += 4;
          for (const Value& v : row) bytes += persist::EncodedSize(v);
        }
        char* out = w.Extend(bytes);
        out = StoreU32(out, response.rows.size());
        for (const std::vector<Value>& row : response.rows) {
          out = StoreU32(out, row.size());
          for (const Value& v : row) out = persist::EncodeValue(v, out);
        }
        break;
      }
      case RequestType::kStats:
        w.PutString(response.stats_text);
        break;
      case RequestType::kHello:
        w.PutU32(response.protocol_version);
        w.PutU64(response.feature_bits);
        break;
      case RequestType::kApply:
        w.PutU64(response.snapshot_version);
        w.PutU64(response.exec_micros);
        w.PutU32(static_cast<uint32_t>(response.inserted_rows.size()));
        for (int64_t row : response.inserted_rows) w.PutI64(row);
        w.PutU32(response.group_size);
        break;
      case RequestType::kSubscribe:
        w.PutU64(response.leader_version);
        break;
      case RequestType::kReplicate:
        w.PutU64(response.first_version);
        w.PutString(response.wal_record);
        break;
      case RequestType::kPing:
      case RequestType::kCheckpoint:
        break;
    }
  }
  return FinishFrame(&w);
}

Result<Request> DecodeRequest(std::string_view payload) {
  ByteReader r(payload);
  SQOPT_ASSIGN_OR_RETURN(uint8_t raw_type, r.U8());
  Request request;
  SQOPT_ASSIGN_OR_RETURN(request.type, ReadRequestType(raw_type));
  if (request.type == RequestType::kReplicate) {
    return Status::Corruption(
        "kReplicate is a server-push response type, not a request");
  }
  if (request.type == RequestType::kHello) {
    SQOPT_ASSIGN_OR_RETURN(request.protocol_version, r.U32());
    SQOPT_ASSIGN_OR_RETURN(request.feature_bits, r.U64());
  } else {
    SQOPT_ASSIGN_OR_RETURN(request.deadline_ms, r.U32());
    switch (request.type) {
      case RequestType::kQuery: {
        SQOPT_ASSIGN_OR_RETURN(request.query_text, r.String());
        break;
      }
      case RequestType::kApply: {
        SQOPT_ASSIGN_OR_RETURN(std::string encoded, r.String());
        SQOPT_ASSIGN_OR_RETURN(request.batch,
                               persist::DecodeMutationBatch(encoded));
        break;
      }
      case RequestType::kSubscribe: {
        SQOPT_ASSIGN_OR_RETURN(request.from_version, r.U64());
        break;
      }
      default:
        break;
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after request payload");
  }
  return request;
}

Result<Response> DecodeResponse(std::string_view payload) {
  ByteReader r(payload);
  SQOPT_ASSIGN_OR_RETURN(uint8_t raw_type, r.U8());
  Response response;
  SQOPT_ASSIGN_OR_RETURN(response.type, ReadRequestType(raw_type));
  SQOPT_ASSIGN_OR_RETURN(uint8_t raw_code, r.U8());
  if (raw_code > static_cast<uint8_t>(StatusCode::kUnsupportedVersion)) {
    return Status::Corruption("unknown status code byte " +
                              std::to_string(static_cast<int>(raw_code)));
  }
  response.code = static_cast<StatusCode>(raw_code);
  SQOPT_ASSIGN_OR_RETURN(response.message, r.String());
  if (response.ok()) {
    switch (response.type) {
      case RequestType::kQuery: {
        SQOPT_ASSIGN_OR_RETURN(uint8_t flags, r.U8());
        response.plan_cache_hit = (flags & kFlagCacheHit) != 0;
        response.answered_without_database = (flags & kFlagNoDatabase) != 0;
        SQOPT_ASSIGN_OR_RETURN(response.exec_micros, r.U64());
        SQOPT_ASSIGN_OR_RETURN(uint32_t n_rows, r.U32());
        response.rows.reserve(r.CappedCount(n_rows, 4));
        for (uint32_t i = 0; i < n_rows; ++i) {
          SQOPT_ASSIGN_OR_RETURN(uint32_t n_values, r.U32());
          std::vector<Value>& row = response.rows.emplace_back();
          row.resize(r.CappedCount(n_values, 1));
          if (row.size() < n_values) {
            return Status::Corruption("response row claims " +
                                      std::to_string(n_values) +
                                      " values but only " +
                                      std::to_string(r.remaining()) +
                                      " bytes remain");
          }
          for (Value& v : row) {
            // TryReadValue leaves the reader on a bad value, so
            // ReadValue re-reads it only to name the fault.
            if (!r.TryReadValue(&v)) return r.ReadValue().status();
          }
        }
        break;
      }
      case RequestType::kStats: {
        SQOPT_ASSIGN_OR_RETURN(response.stats_text, r.String());
        break;
      }
      case RequestType::kHello: {
        SQOPT_ASSIGN_OR_RETURN(response.protocol_version, r.U32());
        SQOPT_ASSIGN_OR_RETURN(response.feature_bits, r.U64());
        break;
      }
      case RequestType::kApply: {
        SQOPT_ASSIGN_OR_RETURN(response.snapshot_version, r.U64());
        SQOPT_ASSIGN_OR_RETURN(response.exec_micros, r.U64());
        SQOPT_ASSIGN_OR_RETURN(uint32_t n_inserted, r.U32());
        response.inserted_rows.reserve(r.CappedCount(n_inserted, 8));
        for (uint32_t i = 0; i < n_inserted; ++i) {
          SQOPT_ASSIGN_OR_RETURN(int64_t row, r.I64());
          response.inserted_rows.push_back(row);
        }
        SQOPT_ASSIGN_OR_RETURN(response.group_size, r.U32());
        break;
      }
      case RequestType::kSubscribe: {
        SQOPT_ASSIGN_OR_RETURN(response.leader_version, r.U64());
        break;
      }
      case RequestType::kReplicate: {
        SQOPT_ASSIGN_OR_RETURN(response.first_version, r.U64());
        SQOPT_ASSIGN_OR_RETURN(response.wal_record, r.String());
        break;
      }
      case RequestType::kPing:
      case RequestType::kCheckpoint:
        break;
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after response payload");
  }
  return response;
}

FrameReader::Outcome FrameReader::Next(std::string_view* payload) {
  // Compact the consumed prefix away once it dominates the buffer, so
  // a long-lived connection doesn't grow its input buffer forever. The
  // previous call's view dies here, as its contract says.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  const size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return Outcome::kNeedMore;
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, buf_.data() + pos_, sizeof(len));
  std::memcpy(&crc, buf_.data() + pos_ + sizeof(len), sizeof(crc));
  if (len > kMaxFramePayload) return Outcome::kTooLarge;
  if (avail < kFrameHeaderBytes + len) return Outcome::kNeedMore;
  const std::string_view body =
      std::string_view(buf_).substr(pos_ + kFrameHeaderBytes, len);
  pos_ += kFrameHeaderBytes + len;
  if (Crc32(body.data(), body.size()) != crc) return Outcome::kBadCrc;
  *payload = body;
  return Outcome::kFrame;
}

FrameReader::Outcome FrameReader::Next(std::string* payload) {
  std::string_view view;
  const Outcome outcome = Next(&view);
  if (outcome == Outcome::kFrame) payload->assign(view.data(), view.size());
  return outcome;
}

}  // namespace sqopt::server
