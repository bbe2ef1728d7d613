// Integration tests for WAL-shipping replication (src/replica/) and
// the serving surface it rides on: the HELLO version check and its
// typed kUnsupportedVersion refusal, kApply/kCheckpoint over real
// loopback sockets, read-only follower endpoints, commit streaming to
// a live FollowerApplier with bit-identical convergence, catch-up from
// a stale version, gap detection halting the applier as divergence,
// and the retention-floor re-seed signal. The process-level SIGKILL
// legs live in tools/replica_harness.cpp (CI replication-smoke).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "persist/wal.h"
#include "replica/follower.h"
#include "replica/replication_log.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "tests/test_util.h"
#include "workload/mutation_script.h"

namespace sqopt::replica {
namespace {

using server::Client;
using server::RequestType;
using server::Response;
using server::Server;
using server::ServerOptions;

constexpr uint64_t kSeed = 20260807;
const DbSpec kSpec{"replica_test", 40, 60};

Engine OpenLoadedEngine() {
  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment());
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  Engine engine = std::move(opened).value();
  Status s = engine.Load(DataSource::Generated(kSpec, kSeed));
  EXPECT_TRUE(s.ok()) << s.ToString();
  return engine;
}

std::vector<int64_t> BaseRows(const Engine& engine) {
  std::vector<int64_t> rows;
  for (const ObjectClass& oc : engine.schema().classes()) {
    rows.push_back(engine.store()->NumObjects(oc.id));
  }
  return rows;
}

std::unique_ptr<Server> StartServer(Engine* engine,
                                    ServerOptions options = {},
                                    ReplicationLog* log = nullptr) {
  options.port = 0;
  auto started = Server::Start(engine, options, log);
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return std::move(started).value();
}

Client MustConnect(const Server& server) {
  auto client = Client::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

// Two engines agree when every fixture query returns the same distinct
// result set (the engine's query equality notion).
void ExpectConverged(const Engine& a, const Engine& b) {
  ASSERT_EQ(a.data_version(), b.data_version());
  for (const std::string& text : MutationScript::QueryPool()) {
    auto ra = a.Execute(text);
    auto rb = b.Execute(text);
    ASSERT_TRUE(ra.ok() && rb.ok()) << text;
    EXPECT_TRUE(ra->rows.SameDistinctRows(rb->rows)) << "diverged on " << text;
  }
}

// A one-batch log record committed as `version`.
EncodedRecord Record(uint64_t version, const MutationBatch& batch) {
  const MutationBatch* batches[] = {&batch};
  return {version, version,
          std::make_shared<const std::string>(
              persist::EncodeWalRecordPayload(version, batches))};
}

void AwaitHalt(const FollowerApplier& applier, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    if (!applier.status().ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// --- Handshake -----------------------------------------------------

TEST(ReplicaTest, HelloAcceptsV2AndAdvertisesReplication) {
  Engine engine = OpenLoadedEngine();
  ReplicationLog log;
  log.AttachTo(&engine);
  std::unique_ptr<Server> leader = StartServer(&engine, {}, &log);

  Client client = MustConnect(*leader);
  ASSERT_OK_AND_ASSIGN(Response hello, client.Hello());
  ASSERT_TRUE(hello.ok()) << hello.message;
  EXPECT_EQ(hello.protocol_version, 2u);
  EXPECT_NE(hello.feature_bits & server::kFeatureReplication, 0u);
  leader->Shutdown();

  // A plain server accepts v2 too but does not advertise the
  // replication feature — it has no log to stream from.
  Engine plain = OpenLoadedEngine();
  std::unique_ptr<Server> basic = StartServer(&plain);
  Client c2 = MustConnect(*basic);
  ASSERT_OK_AND_ASSIGN(Response h2, c2.Hello());
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h2.feature_bits & server::kFeatureReplication, 0u);
}

TEST(ReplicaTest, HelloNamingAnotherVersionGetsOneTypedRefusal) {
  Engine engine = OpenLoadedEngine();
  std::unique_ptr<Server> server = StartServer(&engine);

  // Any version but the one this build speaks — older, newer or
  // nonsense — gets ONE typed kUnsupportedVersion naming both
  // versions, then a clean close; never a hang or an unframeable
  // response.
  for (uint32_t version : {0u, 1u, 3u}) {
    Client client = MustConnect(*server);
    ASSERT_OK_AND_ASSIGN(Response refusal, client.Hello(version));
    EXPECT_EQ(refusal.type, RequestType::kHello);
    EXPECT_EQ(refusal.code, StatusCode::kUnsupportedVersion) << version;
    const std::string named = "v" + std::to_string(version);
    EXPECT_NE(refusal.message.find(named), std::string::npos)
        << refusal.message;
    EXPECT_NE(refusal.message.find("v2"), std::string::npos)
        << refusal.message;
    EXPECT_FALSE(client.ReceiveResponse().ok()) << version;  // closed
  }

  // The one version sails through the same endpoint.
  Client v2 = MustConnect(*server);
  ASSERT_OK_AND_ASSIGN(Response ok, v2.Hello());
  EXPECT_TRUE(ok.ok()) << ok.message;
  server->Shutdown();
  EXPECT_EQ(server->stats().unsupported_version, 3u);
  EXPECT_EQ(server->stats().protocol_errors, 0u);
}

TEST(ReplicaTest, ApplyAndSubscribeWorkWithoutHello) {
  // HELLO is a version check, not a gate: every request type works on
  // a fresh connection from its first frame.
  Engine engine = OpenLoadedEngine();
  ReplicationLog log;
  log.AttachTo(&engine);
  std::unique_ptr<Server> leader = StartServer(&engine, {}, &log);

  Client writer = MustConnect(*leader);
  MutationScript script(&engine.schema(), BaseRows(engine), kSeed);
  ASSERT_OK_AND_ASSIGN(MutationBatch batch, script.Next());
  ASSERT_OK_AND_ASSIGN(Response applied, writer.Apply(batch));
  ASSERT_TRUE(applied.ok()) << applied.message;
  EXPECT_EQ(applied.snapshot_version, 2u);

  Client subscriber = MustConnect(*leader);
  ASSERT_OK_AND_ASSIGN(Response ack, subscriber.Subscribe(1));
  ASSERT_TRUE(ack.ok()) << ack.message;
  EXPECT_EQ(ack.type, RequestType::kSubscribe);
  EXPECT_EQ(ack.leader_version, 2u);
  ASSERT_OK_AND_ASSIGN(Response pushed, subscriber.ReceiveResponse());
  ASSERT_TRUE(pushed.ok()) << pushed.message;
  EXPECT_EQ(pushed.type, RequestType::kReplicate);
  EXPECT_EQ(pushed.first_version, 2u);
  leader->Shutdown();
  EXPECT_EQ(leader->stats().unsupported_version, 0u);
}

// --- The write surface ----------------------------------------------

TEST(ReplicaTest, ApplyAndCheckpointOverWire) {
  Engine engine = OpenLoadedEngine();
  // Checkpoint needs a durable engine (it folds the WAL into the
  // snapshot on disk).
  ASSERT_OK(engine.Save(::testing::TempDir() + "/replica_apply_ck"));
  std::unique_ptr<Server> server = StartServer(&engine);
  Client client = MustConnect(*server);
  ASSERT_OK_AND_ASSIGN(Response hello, client.Hello());
  ASSERT_TRUE(hello.ok());

  MutationScript script(&engine.schema(), BaseRows(engine), kSeed);
  ASSERT_OK_AND_ASSIGN(MutationBatch batch, script.Next());
  ASSERT_OK_AND_ASSIGN(Response applied, client.Apply(batch));
  ASSERT_TRUE(applied.ok()) << applied.message;
  EXPECT_EQ(applied.snapshot_version, 2u);
  EXPECT_EQ(engine.data_version(), 2u);

  ASSERT_OK(client.Checkpoint());
  EXPECT_GE(engine.stats().checkpoints, 1u);

  // STATS over the wire reports the engine's version and counters
  // after the wire write and checkpoint.
  ASSERT_OK_AND_ASSIGN(std::string text, client.Stats());
  EXPECT_NE(text.find("engine_data_version 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("engine_checkpoints 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("engine_mutation_batches_applied 1\n"),
            std::string::npos)
      << text;
  server->Shutdown();
  EXPECT_EQ(server->stats().applies_ok, 1u);
  EXPECT_EQ(server->stats().protocol_errors, 0u);
}

TEST(ReplicaTest, ReadOnlyEndpointRejectsApplyTyped) {
  Engine engine = OpenLoadedEngine();
  ServerOptions options;
  options.read_only = true;
  std::unique_ptr<Server> server = StartServer(&engine, options);
  Client client = MustConnect(*server);
  ASSERT_OK_AND_ASSIGN(Response hello, client.Hello());
  ASSERT_TRUE(hello.ok());

  MutationScript script(&engine.schema(), BaseRows(engine), kSeed);
  ASSERT_OK_AND_ASSIGN(MutationBatch batch, script.Next());
  ASSERT_OK_AND_ASSIGN(Response rejected, client.Apply(batch));
  EXPECT_EQ(rejected.code, StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.message.find("leader"), std::string::npos)
      << rejected.message;
  EXPECT_EQ(engine.data_version(), 1u);  // nothing applied

  // Reads still serve.
  ASSERT_OK_AND_ASSIGN(Response read,
                       client.Query("{cargo.code} {} {} {} {cargo}"));
  EXPECT_TRUE(read.ok()) << read.message;
}

TEST(ReplicaTest, SubscribeToNonLeaderIsTyped) {
  Engine engine = OpenLoadedEngine();
  std::unique_ptr<Server> server = StartServer(&engine);  // no log
  Client client = MustConnect(*server);
  ASSERT_OK_AND_ASSIGN(Response hello, client.Hello());
  ASSERT_TRUE(hello.ok());
  ASSERT_OK_AND_ASSIGN(Response sub, client.Subscribe(1));
  EXPECT_EQ(sub.code, StatusCode::kFailedPrecondition);
  EXPECT_NE(sub.message.find("leader"), std::string::npos) << sub.message;
}

// --- Streaming replication -----------------------------------------

TEST(ReplicaTest, CommitsStreamToFollowerBitIdentically) {
  Engine leader = OpenLoadedEngine();
  ReplicationLog log;
  log.AttachTo(&leader);
  std::unique_ptr<Server> server = StartServer(&leader, {}, &log);

  Engine follower = OpenLoadedEngine();  // same deterministic fixture
  FollowerOptions fopts;
  fopts.leader_port = server->port();
  fopts.poll_interval_ms = 50;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<FollowerApplier> applier,
                       FollowerApplier::Start(&follower, fopts));

  // Commit through the engine directly — the commit listener, not the
  // serving path, is what feeds the log.
  MutationScript script(&leader.schema(), BaseRows(leader), kSeed);
  constexpr int kBatches = 8;
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_OK_AND_ASSIGN(MutationBatch batch, script.Next());
    ASSERT_OK(leader.Apply(batch).status());
  }
  ASSERT_TRUE(applier->WaitForVersion(1 + kBatches, 10000))
      << applier->status().ToString();
  ExpectConverged(leader, follower);

  const FollowerStats fstats = applier->stats();
  EXPECT_EQ(fstats.records_applied, static_cast<uint64_t>(kBatches));
  EXPECT_TRUE(applier->status().ok());
  EXPECT_GE(server->stats().records_replicated,
            static_cast<uint64_t>(kBatches));
  EXPECT_EQ(server->stats().subscribers_active, 1u);
  applier->Stop();
  server->Shutdown();
}

TEST(ReplicaTest, StaleFollowerCatchesUpThenStreams) {
  Engine leader = OpenLoadedEngine();
  ReplicationLog log;
  log.AttachTo(&leader);
  std::unique_ptr<Server> server = StartServer(&leader, {}, &log);

  // The leader commits before any follower exists; the log retains.
  MutationScript script(&leader.schema(), BaseRows(leader), kSeed);
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(MutationBatch batch, script.Next());
    ASSERT_OK(leader.Apply(batch).status());
  }

  Engine follower = OpenLoadedEngine();
  FollowerOptions fopts;
  fopts.leader_port = server->port();
  fopts.poll_interval_ms = 50;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<FollowerApplier> applier,
                       FollowerApplier::Start(&follower, fopts));
  ASSERT_TRUE(applier->WaitForVersion(6, 10000))
      << applier->status().ToString();
  ExpectConverged(leader, follower);

  // And the stream continues live past the catch-up point. A restarted
  // applier (same engine, fresh subscription from its own version)
  // picks up exactly where the old one stopped.
  applier->Stop();
  applier.reset();
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(MutationBatch batch, script.Next());
    ASSERT_OK(leader.Apply(batch).status());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<FollowerApplier> resumed,
                       FollowerApplier::Start(&follower, fopts));
  ASSERT_TRUE(resumed->WaitForVersion(9, 10000))
      << resumed->status().ToString();
  ExpectConverged(leader, follower);
  EXPECT_TRUE(resumed->status().ok());
}

TEST(ReplicaTest, GapInStreamHaltsFollowerAsDivergence) {
  Engine leader = OpenLoadedEngine();
  Engine follower = OpenLoadedEngine();
  MutationScript script(&follower.schema(), BaseRows(follower), kSeed);
  ASSERT_OK_AND_ASSIGN(MutationBatch b1, script.Next());
  ASSERT_OK_AND_ASSIGN(MutationBatch b2, script.Next());

  // A hand-built log with a hole: versions 3..4 never shipped.
  ReplicationLog log;
  log.Append(Record(2, b1));
  log.Append(Record(5, b2));
  std::unique_ptr<Server> server = StartServer(&leader, {}, &log);

  FollowerOptions fopts;
  fopts.leader_port = server->port();
  fopts.poll_interval_ms = 50;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<FollowerApplier> applier,
                       FollowerApplier::Start(&follower, fopts));
  AwaitHalt(*applier);
  const Status halted = applier->status();
  ASSERT_FALSE(halted.ok());
  EXPECT_EQ(halted.code(), StatusCode::kCorruption);
  EXPECT_NE(halted.message().find("diverged"), std::string::npos)
      << halted.ToString();
  // The contiguous prefix WAS applied before the gap stopped the world.
  EXPECT_EQ(follower.data_version(), 2u);
}

TEST(ReplicaTest, RetentionFloorDemandsReseed) {
  Engine leader = OpenLoadedEngine();
  Engine follower = OpenLoadedEngine();
  MutationScript script(&follower.schema(), BaseRows(follower), kSeed);
  ASSERT_OK_AND_ASSIGN(MutationBatch batch, script.Next());

  // A log whose first retained record starts far past the follower:
  // the follower's version 1 is below the retention floor.
  ReplicationLog log;
  log.Append(Record(10, batch));
  EXPECT_EQ(log.floor_version(), 9u);
  std::unique_ptr<Server> server = StartServer(&leader, {}, &log);

  FollowerOptions fopts;
  fopts.leader_port = server->port();
  fopts.poll_interval_ms = 50;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<FollowerApplier> applier,
                       FollowerApplier::Start(&follower, fopts));
  AwaitHalt(*applier);
  const Status halted = applier->status();
  ASSERT_FALSE(halted.ok());
  EXPECT_EQ(halted.code(), StatusCode::kOutOfRange);
  EXPECT_NE(halted.message().find("re-seed"), std::string::npos)
      << halted.ToString();
  EXPECT_EQ(follower.data_version(), 1u);  // nothing applied
}

TEST(ReplicaTest, LogReadsFromItsMiddleAndPrunesToItsBound) {
  Engine engine = OpenLoadedEngine();
  MutationScript script(&engine.schema(), BaseRows(engine), kSeed);
  ASSERT_OK_AND_ASSIGN(MutationBatch batch, script.Next());

  // Five records at versions 2..6 into a log that keeps three: 2 and 3
  // are dropped, and the floor is the last dropped version.
  ReplicationLog log(/*max_records=*/3);
  std::vector<std::shared_ptr<const std::string>> payloads;
  for (uint64_t version = 2; version <= 6; ++version) {
    EncodedRecord record = Record(version, batch);
    payloads.push_back(record.payload);
    log.Append(std::move(record));
  }
  EXPECT_EQ(log.record_count(), 3u);
  EXPECT_EQ(log.floor_version(), 3u);
  EXPECT_EQ(log.last_version(), 6u);

  ASSERT_OK_AND_ASSIGN(std::vector<EncodedRecord> from3, log.ReadFrom(3));
  ASSERT_EQ(from3.size(), 3u);
  for (size_t i = 0; i < from3.size(); ++i) {
    EXPECT_EQ(from3[i].first_version, 4 + i);
    EXPECT_EQ(from3[i].last_version, 4 + i);
    // The log hands out the appended bytes, not a copy.
    EXPECT_EQ(from3[i].payload, payloads[2 + i]);
  }
  ASSERT_OK_AND_ASSIGN(std::vector<EncodedRecord> from5, log.ReadFrom(5));
  ASSERT_EQ(from5.size(), 1u);
  EXPECT_EQ(from5[0].first_version, 6u);
  ASSERT_OK_AND_ASSIGN(std::vector<EncodedRecord> from6, log.ReadFrom(6));
  EXPECT_TRUE(from6.empty());
  const auto below = log.ReadFrom(2);
  ASSERT_FALSE(below.ok());
  EXPECT_EQ(below.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace sqopt::replica
