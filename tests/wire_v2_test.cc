// Wire protocol units (no sockets): the HELLO layout, the pinned kQuery
// layout, the request/response surface (kApply / kSubscribe /
// kReplicate / kCheckpoint) roundtripping with MutationBatch serde, and
// the adversarial property sweep the protocol is pinned by: every
// encoded request payload truncated at EVERY byte offset must decode to
// a typed kCorruption — no crash, no partially-decoded batch.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.h"
#include "persist/serde.h"
#include "persist/wal.h"
#include "server/wire.h"
#include "tests/test_util.h"
#include "workload/mutation_script.h"

namespace sqopt::server {
namespace {

constexpr uint64_t kSeed = 20260807;
const DbSpec kSpec{"wire_v2_test", 40, 60};

// A real mutation batch from the deterministic script — the serde
// sweep should chew on genuine ops, not a hand-rolled toy.
MutationBatch ScriptBatch() {
  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment());
  EXPECT_TRUE(opened.ok());
  Engine engine = std::move(opened).value();
  EXPECT_TRUE(engine.Load(DataSource::Generated(kSpec, kSeed)).ok());
  std::vector<int64_t> base;
  for (const ObjectClass& oc : engine.schema().classes()) {
    base.push_back(engine.store()->NumObjects(oc.id));
  }
  MutationScript script(&engine.schema(), base, kSeed);
  auto batch = script.Next();
  EXPECT_TRUE(batch.ok());
  EXPECT_GT(batch->ops().size(), 0u);
  return std::move(batch).value();
}

// Strips the frame header off an EncodeRequest result, returning the
// raw payload DecodeRequest sees.
std::string PayloadOf(const Request& request) {
  std::string frame = EncodeRequest(request);
  return frame.substr(8);  // u32 len + u32 crc
}

std::string PayloadOfResponse(const Response& response) {
  return EncodeResponse(response).substr(8);
}

TEST(WireV2Test, HelloRoundtripCarriesVersionAndFeatures) {
  Request hello;
  hello.type = RequestType::kHello;
  hello.protocol_version = 2;
  hello.feature_bits = kFeatureReplication;
  // type, u32 version, u64 feature bits: no deadline_ms.
  EXPECT_EQ(PayloadOf(hello).size(), 1u + 4u + 8u);
  ASSERT_OK_AND_ASSIGN(Request decoded, DecodeRequest(PayloadOf(hello)));
  EXPECT_EQ(decoded.type, RequestType::kHello);
  EXPECT_EQ(decoded.protocol_version, 2u);
  EXPECT_EQ(decoded.feature_bits, kFeatureReplication);

  Response ack;
  ack.type = RequestType::kHello;
  ack.protocol_version = 2;
  ack.feature_bits = kFeatureReplication;
  ASSERT_OK_AND_ASSIGN(Response back, DecodeResponse(PayloadOfResponse(ack)));
  EXPECT_EQ(back.protocol_version, 2u);
  EXPECT_EQ(back.feature_bits, kFeatureReplication);
}

TEST(WireV2Test, ApplyRequestRoundtripsTheBatch) {
  Request request;
  request.type = RequestType::kApply;
  request.deadline_ms = 250;
  request.batch = ScriptBatch();
  ASSERT_OK_AND_ASSIGN(Request decoded, DecodeRequest(PayloadOf(request)));
  EXPECT_EQ(decoded.type, RequestType::kApply);
  EXPECT_EQ(decoded.deadline_ms, 250u);
  ASSERT_EQ(decoded.batch.ops().size(), request.batch.ops().size());
  // Re-encoding the decoded batch must be byte-identical — the serde
  // is canonical, which is what lets followers compare WAL payloads.
  EXPECT_EQ(persist::EncodeMutationBatch(decoded.batch),
            persist::EncodeMutationBatch(request.batch));
}

TEST(WireV2Test, SubscribeAndCheckpointRoundtrip) {
  Request subscribe;
  subscribe.type = RequestType::kSubscribe;
  subscribe.deadline_ms = 99;
  subscribe.from_version = 41;
  ASSERT_OK_AND_ASSIGN(Request decoded, DecodeRequest(PayloadOf(subscribe)));
  EXPECT_EQ(decoded.from_version, 41u);
  EXPECT_EQ(decoded.deadline_ms, 99u);

  Request checkpoint;
  checkpoint.type = RequestType::kCheckpoint;
  checkpoint.deadline_ms = 123;
  ASSERT_OK_AND_ASSIGN(Request ck, DecodeRequest(PayloadOf(checkpoint)));
  EXPECT_EQ(ck.type, RequestType::kCheckpoint);
  EXPECT_EQ(ck.deadline_ms, 123u);

  // deadline_ms rides on every queued type, kStats included.
  Request stats;
  stats.type = RequestType::kStats;
  stats.deadline_ms = 77;
  ASSERT_OK_AND_ASSIGN(Request st, DecodeRequest(PayloadOf(stats)));
  EXPECT_EQ(st.deadline_ms, 77u);
}

TEST(WireV2Test, ReplicateResponseRoundtripsWalPayload) {
  Response push;
  push.type = RequestType::kReplicate;
  push.code = StatusCode::kOk;
  push.first_version = 17;
  static constexpr char kRecord[] = "\x01\x02\x00\xff binary";
  push.wal_record = std::string(kRecord, sizeof(kRecord) - 1);
  ASSERT_OK_AND_ASSIGN(Response decoded,
                       DecodeResponse(PayloadOfResponse(push)));
  EXPECT_EQ(decoded.first_version, 17u);
  EXPECT_EQ(decoded.wal_record, push.wal_record);
}

TEST(WireV2Test, ApplyResponseRoundtrip) {
  Response ack;
  ack.type = RequestType::kApply;
  ack.code = StatusCode::kOk;
  ack.snapshot_version = 9;
  ack.exec_micros = 42;
  ack.inserted_rows = {101, -1, 7};
  ack.group_size = 3;
  ASSERT_OK_AND_ASSIGN(Response decoded,
                       DecodeResponse(PayloadOfResponse(ack)));
  EXPECT_EQ(decoded.snapshot_version, 9u);
  EXPECT_EQ(decoded.inserted_rows, ack.inserted_rows);
  EXPECT_EQ(decoded.group_size, 3u);
}

TEST(WireV2Test, QueryRequestLayoutIsPinned) {
  // The query-only clients send these bytes; they must not move.
  Request query;
  query.type = RequestType::kQuery;
  query.deadline_ms = 250;
  query.query_text = "{cargo.code} {} {} {} {cargo}";
  persist::ByteWriter w;
  w.PutU8(static_cast<uint8_t>(RequestType::kQuery));
  w.PutU32(250);
  w.PutString(query.query_text);
  EXPECT_EQ(PayloadOf(query), std::move(w).Take());
}

TEST(WireV2Test, ReplicateAsRequestIsCorruption) {
  persist::ByteWriter w;
  w.PutU8(static_cast<uint8_t>(RequestType::kReplicate));
  w.PutU32(0);
  auto decoded = DecodeRequest(std::move(w).Take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(WireV2Test, UnsupportedVersionStatusCodeSurvivesTheWire) {
  // The one response every version of the protocol must be able to
  // carry: the refusal itself.
  Response refusal;
  refusal.type = RequestType::kHello;
  refusal.code = StatusCode::kUnsupportedVersion;
  refusal.message = "client speaks wire protocol v1 but this endpoint "
                    "speaks only v2";
  ASSERT_OK_AND_ASSIGN(Response decoded,
                       DecodeResponse(PayloadOfResponse(refusal)));
  EXPECT_EQ(decoded.code, StatusCode::kUnsupportedVersion);
  EXPECT_EQ(decoded.message, refusal.message);
}

// --- The truncation property sweep ---------------------------------

void SweepRequestTruncations(const Request& request) {
  const std::string payload = PayloadOf(request);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = DecodeRequest(payload.substr(0, cut));
    ASSERT_FALSE(decoded.ok())
        << "truncation at byte " << cut << "/" << payload.size()
        << " decoded successfully";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "truncation at byte " << cut << " gave "
        << decoded.status().ToString();
  }
  // Trailing garbage is equally typed.
  auto padded = DecodeRequest(payload + "x");
  ASSERT_FALSE(padded.ok());
  EXPECT_EQ(padded.status().code(), StatusCode::kCorruption);
}

TEST(WireV2Test, TruncatedApplyPayloadsAreTypedAtEveryOffset) {
  Request request;
  request.type = RequestType::kApply;
  request.deadline_ms = 1000;
  request.batch = ScriptBatch();
  SweepRequestTruncations(request);
}

TEST(WireV2Test, TruncatedSubscribePayloadsAreTypedAtEveryOffset) {
  Request request;
  request.type = RequestType::kSubscribe;
  request.deadline_ms = 1000;
  request.from_version = 0x1122334455667788ull;
  SweepRequestTruncations(request);
}

TEST(WireV2Test, TruncatedQueryStatsPingCheckpointPayloadsAreTyped) {
  Request query;
  query.type = RequestType::kQuery;
  query.deadline_ms = 1000;
  query.query_text = "{cargo.code} {} {cargo.desc = \"frozen food\"} {} "
                     "{cargo}";
  SweepRequestTruncations(query);
  for (RequestType type : {RequestType::kStats, RequestType::kPing,
                           RequestType::kCheckpoint}) {
    Request request;
    request.type = type;
    request.deadline_ms = 1000;
    SweepRequestTruncations(request);
  }
}

TEST(WireV2Test, TruncatedReplicatePushesAreTypedAtEveryOffset) {
  // The follower decodes these off a live socket; a torn push must
  // never yield a partially-applied record.
  Response push;
  push.type = RequestType::kReplicate;
  push.code = StatusCode::kOk;
  push.first_version = 3;
  push.wal_record = std::string(64, '\x5a');
  const std::string payload = PayloadOfResponse(push);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = DecodeResponse(payload.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "cut at " << cut;
  }
}

TEST(WireV2Test, MutationOpsSerdeTruncationSweep) {
  const std::string encoded = persist::EncodeMutationBatch(ScriptBatch());
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto decoded = persist::DecodeMutationBatch(
        std::string_view(encoded).substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "cut at " << cut;
  }
  ASSERT_OK_AND_ASSIGN(MutationBatch whole,
                       persist::DecodeMutationBatch(encoded));
  EXPECT_EQ(persist::EncodeMutationBatch(whole), encoded);
}

}  // namespace
}  // namespace sqopt::server
