// The sqopt wire protocol: length-prefixed, CRC-framed request/response
// messages over a byte stream, encoded with the same little-endian
// ByteWriter/ByteReader conventions as the durable on-disk format
// (src/persist/serde.h) — so the wire bytes, like the snapshot bytes,
// are identical across compilers and host endianness.
//
// Frame layout (all fields little-endian):
//
//   u32 payload_len   bytes that follow the 8-byte header
//   u32 payload_crc   CRC-32 (persist::Crc32) of the payload bytes
//   [payload_len bytes of payload]
//
// A frame whose CRC does not match is RECOVERABLE: the reader knows the
// frame boundary, consumes the bad frame, and the connection survives —
// the server answers it with a typed kCorruption response. A frame
// whose length field exceeds kMaxFramePayload is NOT recoverable (the
// length itself cannot be trusted, so there is no boundary to resync
// at); the connection must be closed after one typed error response.
//
// PROTOCOL VERSION. There is one request layout, v2, spoken from a
// connection's first frame. HELLO is a version check, not a
// negotiation: a HELLO naming kProtocolVersion gets OK (with
// kFeatureReplication when the server streams a replication log); any
// other version gets one typed kUnsupportedVersion naming both
// versions, then a clean close (the snapshot-v3 precedent: a version
// gap is NOT corruption). No request needs a HELLO before it.
//
// Request payload:
//   u8  type           (any RequestType except kReplicate)
//   u32 deadline_ms    every type but kHello (0 = server default)
//   -- kQuery --    string query_text
//   -- kApply --    string batch  (persist::EncodeMutationBatch)
//   -- kSubscribe -- u64 from_version (subscriber's current snapshot
//                    version; streaming starts at from_version + 1)
//   -- kStats / kPing / kCheckpoint -- nothing further
//   -- kHello --    u32 protocol_version; u64 feature_bits
//                   (no deadline_ms)
//
// Response payload:
//   u8  type           echo of the request type
//   u8  code           StatusCode of the outcome
//   string message     empty when code == kOk
//   -- kQuery, code == kOk --
//   u8  flags          bit0 plan_cache_hit, bit1 answered_without_database
//   u64 exec_micros    server-side execution latency
//   u32 n_rows; per row: u32 n_values; per value: serde PutValue
//   -- kStats, code == kOk --
//   string stats_text  plaintext "name value\n" lines
//   -- kHello, code == kOk --
//   u32 protocol_version (kProtocolVersion); u64 feature_bits
//   -- kApply, code == kOk --
//   u64 snapshot_version; u64 exec_micros;
//   u32 n_inserted; per: i64 row; u32 group_size
//   -- kSubscribe, code == kOk --
//   u64 leader_version (the leader's version at subscribe time)
//   -- kReplicate (server-push after a kSubscribe OK), code == kOk --
//   u64 first_version; string wal_record (persist::EncodeWalRecordPayload
//   bytes — the WAL record body VERBATIM, CRC-framed by the frame layer)
//   -- kCheckpoint / kPing, code == kOk -- nothing further
#ifndef SQOPT_SERVER_WIRE_H_
#define SQOPT_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/mutation.h"
#include "common/status.h"
#include "types/value.h"

namespace sqopt::server {

// Hard ceiling on one frame's payload. Generous for query text and
// result sets at the experiment scale; prevents a corrupt or hostile
// length field from driving a multi-gigabyte allocation.
inline constexpr uint32_t kMaxFramePayload = 8u << 20;  // 8 MiB

// The one wire protocol version; a HELLO naming any other is refused.
inline constexpr uint32_t kProtocolVersion = 2;

// Feature bits advertised in HELLO. None are load-bearing yet: the
// version number gates behavior, the bits exist so a future v2.x can
// advertise optional capability without another version bump.
inline constexpr uint64_t kFeatureReplication = 1u << 0;

enum class RequestType : uint8_t {
  kQuery = 1,       // execute one query, reply with rows
  kStats = 2,       // plaintext metrics snapshot
  kPing = 3,        // liveness probe, empty OK reply
  kHello = 4,       // protocol version check
  kApply = 5,       // commit one MutationBatch
  kSubscribe = 6,   // start the replication stream at from_version+1
  kReplicate = 7,   // server-push WAL record (appears only as a
                    // Response type; a client must never send it)
  kCheckpoint = 8,  // fold the WAL into a fresh snapshot
};

struct Request {
  RequestType type = RequestType::kQuery;
  // Total budget for queue wait + execution start, in milliseconds,
  // for every request type. 0 = the server's configured default.
  uint32_t deadline_ms = 0;
  std::string query_text;

  // kHello.
  uint32_t protocol_version = kProtocolVersion;
  uint64_t feature_bits = 0;

  // kApply.
  MutationBatch batch;

  // kSubscribe: the subscriber's current snapshot version.
  uint64_t from_version = 0;
};

struct Response {
  RequestType type = RequestType::kQuery;
  StatusCode code = StatusCode::kOk;
  std::string message;

  // kQuery success payload.
  bool plan_cache_hit = false;
  bool answered_without_database = false;
  uint64_t exec_micros = 0;
  std::vector<std::vector<Value>> rows;

  // kStats success payload.
  std::string stats_text;

  // kHello success payload.
  uint32_t protocol_version = 0;
  uint64_t feature_bits = 0;

  // kApply success payload (exec_micros above is shared).
  uint64_t snapshot_version = 0;
  std::vector<int64_t> inserted_rows;
  uint32_t group_size = 0;

  // kSubscribe success payload.
  uint64_t leader_version = 0;

  // kReplicate payload: the WAL group record body, byte-identical to
  // what persist::WalWriter would frame on disk. first_version is
  // redundant with the record's own header — it rides along so a
  // follower can cheaply skip without decoding.
  uint64_t first_version = 0;
  std::string wal_record;

  bool ok() const { return code == StatusCode::kOk; }
  // The outcome as a Status (OK for success responses).
  Status ToStatus() const {
    return ok() ? Status::OK() : Status(code, message);
  }
};

// Wraps `payload` in a frame header (length + CRC).
std::string EncodeFrame(std::string_view payload);

std::string EncodeRequest(const Request& request);
// Kept only for perfbench/workloads.cc, which passes
// Client::protocol(); the version is ignored. Delete both once the
// serve workload calls the one-argument form.
inline std::string EncodeRequest(const Request& request,
                                 uint32_t /*protocol_version*/) {
  return EncodeRequest(request);
}
std::string EncodeResponse(const Response& response);

// Payload decoding (the framing has already been stripped and CRC
// verified by FrameReader). Malformed payloads — unknown type byte,
// truncated fields, trailing bytes — return kCorruption.
Result<Request> DecodeRequest(std::string_view payload);
Result<Response> DecodeResponse(std::string_view payload);

// Incremental frame extraction from a byte stream: Append() received
// bytes, then call Next() until it returns kNeedMore. One FrameReader
// per connection direction.
class FrameReader {
 public:
  enum class Outcome {
    kFrame,     // *payload filled with one verified frame payload
    kNeedMore,  // no complete frame buffered yet
    kBadCrc,    // a full frame arrived but its CRC is wrong; the frame
                // was consumed and the stream is still in sync
    kTooLarge,  // length field exceeds kMaxFramePayload — the stream
                // cannot be resynced; close the connection
  };

  void Append(const char* data, size_t n) { buf_.append(data, n); }

  // On kFrame, `*payload` views the verified payload inside the
  // reader's buffer; the view stays valid until the next Append or
  // Next call. The server and client decode straight from it.
  Outcome Next(std::string_view* payload);
  // The same, copying the payload out.
  Outcome Next(std::string* payload);

  // Bytes buffered but not yet consumed (a partial frame at connection
  // close means the peer truncated mid-frame).
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
};

}  // namespace sqopt::server

#endif  // SQOPT_SERVER_WIRE_H_
