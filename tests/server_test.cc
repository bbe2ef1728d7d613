// Integration tests for the network serving layer (src/server/): wire
// protocol roundtrips over real loopback sockets, malformed-frame
// handling (bad CRC recoverable, oversized length fatal), per-request
// deadlines producing typed kTimeout, admission-control shedding with
// typed kOverloaded under saturation, graceful drain completing
// in-flight work, idle-connection reaping, and concurrent clients
// sharing one engine plan cache. Runs under -fsanitize=thread in CI.
#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "persist/serde.h"
#include "server/client.h"
#include "server/wire.h"
#include "tests/test_util.h"
#include "workload/dbgen.h"
#include "workload/query_pool.h"

namespace sqopt::server {
namespace {

constexpr uint64_t kSeed = 20260807;
const DbSpec kSpec{"server_test", 104, 154};

const char* kSingleClassQuery =
    "{cargo.code} {} {cargo.desc = \"frozen food\"} {} {cargo}";
const char* kContradictionQuery =
    "{cargo.code} {} {vehicle.desc = \"refrigerated truck\", "
    "cargo.desc = \"fuel\"} {collects} {cargo, vehicle}";

Engine OpenLoadedEngine() {
  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment());
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  Engine engine = std::move(opened).value();
  Status s = engine.Load(DataSource::Generated(kSpec, kSeed));
  EXPECT_TRUE(s.ok()) << s.ToString();
  return engine;
}

// A query request for kSingleClassQuery; a deadline of 0 means the
// server's default.
Request SingleClassQueryRequest(uint32_t deadline_ms) {
  Request request;
  request.deadline_ms = deadline_ms;
  request.query_text = kSingleClassQuery;
  return request;
}

std::unique_ptr<Server> StartServer(Engine* engine,
                                    ServerOptions options = {}) {
  options.port = 0;
  auto started = Server::Start(engine, options);
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return std::move(started).value();
}

// --- Wire-level units (no sockets) ---------------------------------

TEST(WireTest, RequestRoundtrip) {
  Request request;
  request.type = RequestType::kQuery;
  request.deadline_ms = 1234;
  request.query_text = kSingleClassQuery;
  std::string frame = EncodeRequest(request);

  FrameReader reader;
  reader.Append(frame.data(), frame.size());
  std::string payload;
  ASSERT_EQ(reader.Next(&payload), FrameReader::Outcome::kFrame);
  ASSERT_OK_AND_ASSIGN(Request decoded, DecodeRequest(payload));
  EXPECT_EQ(decoded.type, RequestType::kQuery);
  EXPECT_EQ(decoded.deadline_ms, 1234u);
  EXPECT_EQ(decoded.query_text, request.query_text);
  EXPECT_EQ(reader.Next(&payload), FrameReader::Outcome::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, ResponseRoundtripCarriesRowsAndFlags) {
  Response response;
  response.type = RequestType::kQuery;
  response.code = StatusCode::kOk;
  response.plan_cache_hit = true;
  response.answered_without_database = false;
  response.exec_micros = 77;
  response.rows = {{Value::Int(1), Value::String("a")},
                   {Value::Int(2)},
                   {Value::Null(), Value::Bool(true), Value::Bool(false)},
                   {Value::Double(-2.5),
                    Value::String("a string longer than fifteen bytes")},
                   {Value::Ref(Oid{3, 4100000000LL})},
                   {}};
  std::string frame = EncodeResponse(response);

  FrameReader reader;
  reader.Append(frame.data(), frame.size());
  std::string payload;
  ASSERT_EQ(reader.Next(&payload), FrameReader::Outcome::kFrame);
  ASSERT_OK_AND_ASSIGN(Response decoded, DecodeResponse(payload));
  EXPECT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.plan_cache_hit);
  EXPECT_FALSE(decoded.answered_without_database);
  EXPECT_EQ(decoded.exec_micros, 77u);
  ASSERT_EQ(decoded.rows.size(), response.rows.size());
  ASSERT_EQ(decoded.rows[0].size(), 2u);
  EXPECT_EQ(decoded.rows[0][1], Value::String("a"));
  for (size_t i = 0; i < response.rows.size(); ++i) {
    EXPECT_EQ(decoded.rows[i], response.rows[i]) << "row " << i;
  }
}

TEST(WireTest, CutOrMistaggedResponseIsCorruption) {
  // One single-value query response per ValueType. Every strict prefix
  // of its payload, and the payload with its value's tag byte made
  // unknown, must decode to kCorruption. Each prefix is copied into a
  // buffer of exactly its length, so a read past the end is an
  // out-of-bounds access the ASan leg reports.
  const std::vector<Value> values = {
      Value::Null(),
      Value::Bool(true),
      Value::Int(-7),
      Value::Double(0.125),
      Value::String("a string longer than fifteen bytes"),
      Value::Ref(Oid{2, 99}),
  };
  for (const Value& value : values) {
    SCOPED_TRACE(ValueTypeName(value.type()));
    Response response;
    response.type = RequestType::kQuery;
    response.rows = {{value}};
    const std::string frame = EncodeResponse(response);
    FrameReader reader;
    reader.Append(frame.data(), frame.size());
    std::string payload;
    ASSERT_EQ(reader.Next(&payload), FrameReader::Outcome::kFrame);
    ASSERT_OK_AND_ASSIGN(Response whole, DecodeResponse(payload));
    ASSERT_EQ(whole.rows, response.rows);

    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::vector<char> prefix(payload.begin(),
                                     payload.begin() + cut);
      Result<Response> decoded =
          DecodeResponse(std::string_view(prefix.data(), prefix.size()));
      ASSERT_FALSE(decoded.ok()) << "prefix of " << cut << " bytes";
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << "prefix of " << cut << " bytes";
    }

    // The value is the payload's last field, so its tag byte sits
    // EncodedSize(value) bytes from the end.
    const size_t tag_at = payload.size() - persist::EncodedSize(value);
    for (const uint8_t bad_tag : {uint8_t{6}, uint8_t{0x7f}, uint8_t{0xff}}) {
      std::vector<char> mistagged(payload.begin(), payload.end());
      mistagged[tag_at] = static_cast<char>(bad_tag);
      Result<Response> decoded = DecodeResponse(
          std::string_view(mistagged.data(), mistagged.size()));
      ASSERT_FALSE(decoded.ok()) << "tag " << int{bad_tag};
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(WireTest, FrameReaderHandlesFragmentationAndPipelining) {
  std::string frame = EncodeFrame("hello");
  std::string two = frame + frame;
  FrameReader reader;
  std::string payload;
  // Feed one byte at a time: every prefix is kNeedMore until complete.
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.Append(&two[i], 1);
    EXPECT_EQ(reader.Next(&payload), FrameReader::Outcome::kNeedMore);
  }
  reader.Append(&two[frame.size() - 1], two.size() - frame.size() + 1);
  ASSERT_EQ(reader.Next(&payload), FrameReader::Outcome::kFrame);
  EXPECT_EQ(payload, "hello");
  ASSERT_EQ(reader.Next(&payload), FrameReader::Outcome::kFrame);
  EXPECT_EQ(payload, "hello");
  EXPECT_EQ(reader.Next(&payload), FrameReader::Outcome::kNeedMore);
}

TEST(WireTest, BadCrcConsumesFrameAndStaysInSync) {
  std::string bad = EncodeFrame("payload-a");
  bad[9] ^= 0x40;  // flip a payload bit; header length stays valid
  std::string good = EncodeFrame("payload-b");
  FrameReader reader;
  reader.Append(bad.data(), bad.size());
  reader.Append(good.data(), good.size());
  std::string payload;
  EXPECT_EQ(reader.Next(&payload), FrameReader::Outcome::kBadCrc);
  ASSERT_EQ(reader.Next(&payload), FrameReader::Outcome::kFrame);
  EXPECT_EQ(payload, "payload-b");
}

TEST(WireTest, OversizedLengthIsFatal) {
  persist::ByteWriter writer;
  writer.PutU32(kMaxFramePayload + 1);
  writer.PutU32(0);
  std::string bytes = std::move(writer).Take();
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  std::string payload;
  EXPECT_EQ(reader.Next(&payload), FrameReader::Outcome::kTooLarge);
}

// --- Socket integration --------------------------------------------

TEST(ServerTest, QueryRoundtripMatchesDirectExecute) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(QueryOutcome direct,
                       engine.Execute(kSingleClassQuery));
  std::unique_ptr<Server> server = StartServer(&engine);

  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(Response response, client.Query(kSingleClassQuery));
  ASSERT_TRUE(response.ok()) << response.message;
  ASSERT_EQ(response.rows.size(), direct.rows.rows.size());
  for (size_t i = 0; i < response.rows.size(); ++i) {
    EXPECT_EQ(response.rows[i], direct.rows.rows[i]) << "row " << i;
  }

  // A semantically-refuted query comes back answered_without_database.
  ASSERT_OK_AND_ASSIGN(Response refuted, client.Query(kContradictionQuery));
  ASSERT_TRUE(refuted.ok()) << refuted.message;
  EXPECT_TRUE(refuted.answered_without_database);
  EXPECT_TRUE(refuted.rows.empty());

  EXPECT_OK(client.Ping());
  server->Shutdown();
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_GE(stats.queries_ok, 2u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServerTest, StatsEndpointServesMetricsText) {
  Engine engine = OpenLoadedEngine();
  std::unique_ptr<Server> server = StartServer(&engine);
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(Response queried, client.Query(kSingleClassQuery));
  ASSERT_TRUE(queried.ok());
  ASSERT_OK_AND_ASSIGN(std::string text, client.Stats());
  // ServerStats, EngineStats, and plan-cache counters all present.
  EXPECT_NE(text.find("server_requests_received "), std::string::npos);
  EXPECT_NE(text.find("server_queries_ok 1"), std::string::npos);
  EXPECT_NE(text.find("engine_queries_executed "), std::string::npos);
  EXPECT_NE(text.find("plan_cache_"), std::string::npos);
}

TEST(ServerTest, StatsReportEngineCounterValues) {
  // The STATS text must carry the engine's counter VALUES, not only
  // its line names: one committed 2-insert batch, one query and one
  // contradiction over the wire, checked against engine.stats().
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  const ClassId supplier = schema.FindClass("supplier");
  MutationBatch batch;
  ASSERT_OK_AND_ASSIGN(
      Object fresh0, MakeSegmentObject(schema, supplier, /*segment=*/0,
                                       /*ordinal=*/9000));
  ASSERT_OK_AND_ASSIGN(
      Object fresh3, MakeSegmentObject(schema, supplier, /*segment=*/3,
                                       /*ordinal=*/9001));
  batch.Insert(supplier, std::move(fresh0));
  batch.Insert(supplier, std::move(fresh3));
  ASSERT_OK(engine.Apply(batch).status());
  // Cached before the server starts, so the first query over the wire
  // is a hit the I/O thread serves itself; the contradiction is a miss
  // and goes through the pool.
  ASSERT_OK(engine.Execute(kSingleClassQuery).status());

  std::unique_ptr<Server> server = StartServer(&engine);
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(Response queried, client.Query(kSingleClassQuery));
  ASSERT_TRUE(queried.ok()) << queried.message;
  ASSERT_OK_AND_ASSIGN(Response refuted, client.Query(kContradictionQuery));
  ASSERT_TRUE(refuted.ok()) << refuted.message;
  EXPECT_TRUE(refuted.answered_without_database);

  const EngineStats counters = engine.stats();
  EXPECT_EQ(counters.mutation_batches_applied, 1u);
  EXPECT_EQ(counters.mutation_ops_applied, 2u);
  EXPECT_GE(counters.contradictions, 1u);

  ASSERT_OK_AND_ASSIGN(std::string text, client.Stats());
  auto line = [](const char* name, uint64_t value) {
    return std::string(name) + " " + std::to_string(value);
  };
  EXPECT_NE(text.find("server_queries_ok 2"), std::string::npos) << text;
  EXPECT_NE(text.find(line("engine_queries_executed",
                           counters.queries_executed)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(line("engine_contradictions", counters.contradictions)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("engine_mutation_batches_applied 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("engine_mutation_ops_applied 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("server_queries_inline 1"), std::string::npos) << text;
  EXPECT_EQ(server->stats().queries_inline, 1u);
}

TEST(ServerTest, BadCrcGetsTypedErrorAndConnectionSurvives) {
  Engine engine = OpenLoadedEngine();
  std::unique_ptr<Server> server = StartServer(&engine);
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server->port()));

  Request request;
  request.query_text = kSingleClassQuery;
  std::string frame = EncodeRequest(request);
  frame[frame.size() - 1] ^= 0x01;  // corrupt the payload, not the header
  ASSERT_OK(client.SendRaw(frame));
  ASSERT_OK_AND_ASSIGN(Response error, client.ReceiveResponse());
  EXPECT_EQ(error.code, StatusCode::kCorruption);

  // Same connection still works: the frame boundary was known.
  ASSERT_OK_AND_ASSIGN(Response after, client.Query(kSingleClassQuery));
  EXPECT_TRUE(after.ok()) << after.message;
  EXPECT_GE(server->stats().protocol_errors, 1u);
}

TEST(ServerTest, OversizedFrameClosesConnectionServerSurvives) {
  Engine engine = OpenLoadedEngine();
  std::unique_ptr<Server> server = StartServer(&engine);
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server->port()));

  persist::ByteWriter writer;
  writer.PutU32(kMaxFramePayload + 1);  // untrustworthy length
  writer.PutU32(0xdeadbeef);
  ASSERT_OK(client.SendRaw(std::move(writer).Take()));
  ASSERT_OK_AND_ASSIGN(Response error, client.ReceiveResponse());
  EXPECT_EQ(error.code, StatusCode::kCorruption);
  // The connection is closed after the typed error; the next read
  // fails at the transport level.
  EXPECT_FALSE(client.ReceiveResponse().ok());

  // The server itself is fine — fresh connections work.
  ASSERT_OK_AND_ASSIGN(Client fresh,
                       Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(Response after, fresh.Query(kSingleClassQuery));
  EXPECT_TRUE(after.ok()) << after.message;
  EXPECT_GE(server->stats().protocol_errors, 1u);
}

TEST(ServerTest, TruncatedFrameAtCloseDoesNotKillServer) {
  Engine engine = OpenLoadedEngine();
  std::unique_ptr<Server> server = StartServer(&engine);
  {
    ASSERT_OK_AND_ASSIGN(Client client,
                         Client::Connect("127.0.0.1", server->port()));
    std::string frame = EncodeRequest(Request{});
    ASSERT_OK(client.SendRaw(frame.substr(0, frame.size() / 2)));
    client.Close();  // peer truncates mid-frame
  }
  ASSERT_OK_AND_ASSIGN(Client fresh,
                       Client::Connect("127.0.0.1", server->port()));
  EXPECT_OK(fresh.Ping());
}

TEST(ServerTest, ExpiredDeadlineAnswersTypedTimeout) {
  Engine engine = OpenLoadedEngine();
  ServerOptions options;
  options.threads = 1;
  options.execute_delay_ms = 300;  // pin the single worker
  std::unique_ptr<Server> server = StartServer(&engine, options);

  // First request occupies the worker for ~300ms; the second carries a
  // 50ms deadline and must expire in the queue.
  ASSERT_OK_AND_ASSIGN(Client blocker,
                       Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK(blocker.SendRaw(EncodeRequest(SingleClassQueryRequest(5000))));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ASSERT_OK_AND_ASSIGN(Client hurried,
                       Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(Response late, hurried.Query(kSingleClassQuery, 50));
  EXPECT_EQ(late.code, StatusCode::kTimeout) << late.message;

  ASSERT_OK_AND_ASSIGN(Response blocked, blocker.ReceiveResponse());
  EXPECT_TRUE(blocked.ok()) << blocked.message;
  server->Shutdown();
  EXPECT_GE(server->stats().timed_out, 1u);
}

TEST(ServerTest, StatsUnderSaturationHonorsDeadlineLikeEveryType) {
  // v2 generalized deadline_ms to every request type: a kStats queued
  // behind a pinned worker expires with the same typed kTimeout a
  // query would, instead of the old bypass-the-clock special case.
  Engine engine = OpenLoadedEngine();
  ServerOptions options;
  options.threads = 1;
  options.execute_delay_ms = 300;  // pin the single worker
  std::unique_ptr<Server> server = StartServer(&engine, options);

  ASSERT_OK_AND_ASSIGN(Client blocker,
                       Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK(blocker.SendRaw(EncodeRequest(SingleClassQueryRequest(5000))));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ASSERT_OK_AND_ASSIGN(Client hurried,
                       Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(Response hello, hurried.Hello());
  ASSERT_TRUE(hello.ok()) << hello.message;
  Request stats;
  stats.type = RequestType::kStats;
  stats.deadline_ms = 50;
  ASSERT_OK(hurried.SendRaw(EncodeRequest(stats, hurried.protocol())));
  ASSERT_OK_AND_ASSIGN(Response late, hurried.ReceiveResponse());
  EXPECT_EQ(late.code, StatusCode::kTimeout) << late.message;
  EXPECT_EQ(late.type, RequestType::kStats);

  ASSERT_OK_AND_ASSIGN(Response blocked, blocker.ReceiveResponse());
  EXPECT_TRUE(blocked.ok()) << blocked.message;
  server->Shutdown();
  EXPECT_GE(server->stats().timed_out, 1u);
}

TEST(ServerTest, SaturationShedsTypedOverloadedWithBoundedQueue) {
  Engine engine = OpenLoadedEngine();
  ServerOptions options;
  options.threads = 1;
  options.max_queue = 4;
  options.execute_delay_ms = 50;
  options.default_deadline_ms = 30000;  // shed via admission, not deadline
  std::unique_ptr<Server> server = StartServer(&engine, options);

  // Fire 24 pipelined requests from each of 4 clients without reading
  // responses: capacity is ~20 qps, so the 4-deep queue must reject.
  constexpr int kClients = 4;
  constexpr int kPerClient = 24;
  std::vector<Client> clients;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_OK_AND_ASSIGN(Client client,
                         Client::Connect("127.0.0.1", server->port(),
                                         /*timeout_ms=*/30000));
    clients.push_back(std::move(client));
  }
  const std::string frame = EncodeRequest(SingleClassQueryRequest(0));
  for (Client& client : clients) {
    for (int i = 0; i < kPerClient; ++i) ASSERT_OK(client.SendRaw(frame));
  }

  uint64_t ok = 0, overloaded = 0;
  for (Client& client : clients) {
    for (int i = 0; i < kPerClient; ++i) {
      ASSERT_OK_AND_ASSIGN(Response response, client.ReceiveResponse());
      if (response.ok()) {
        ++ok;
      } else {
        ASSERT_EQ(response.code, StatusCode::kOverloaded)
            << response.message;
        ++overloaded;
      }
    }
  }
  EXPECT_EQ(ok + overloaded,
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_GT(overloaded, 0u);
  EXPECT_GT(ok, 0u);  // admitted requests still completed

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.rejected_overloaded, overloaded);
  EXPECT_LE(stats.queue_depth_hwm, options.max_queue);  // bounded memory
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServerTest, GracefulDrainFinishesInFlightWork) {
  Engine engine = OpenLoadedEngine();
  ServerOptions options;
  options.threads = 2;
  options.execute_delay_ms = 100;
  std::unique_ptr<Server> server = StartServer(&engine, options);

  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server->port()));
  // Three pipelined requests in flight, then drain mid-stream.
  const std::string frame = EncodeRequest(SingleClassQueryRequest(0));
  for (int i = 0; i < 3; ++i) ASSERT_OK(client.SendRaw(frame));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server->RequestDrain();

  // Every already-admitted request is answered before the close.
  int answered = 0;
  for (int i = 0; i < 3; ++i) {
    auto response = client.ReceiveResponse();
    if (!response.ok()) break;  // drain closed after flushing
    EXPECT_TRUE(response->ok() ||
                response->code == StatusCode::kOverloaded)
        << response->message;
    ++answered;
  }
  EXPECT_GE(answered, 1);
  server->Await();

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.connections_active, 0u);
  // No new connections once drained: the listen socket is closed.
  auto refused = Client::Connect("127.0.0.1", server->port(), 500);
  EXPECT_FALSE(refused.ok() && refused->Ping().ok());
}

TEST(ServerTest, IdleConnectionsAreReaped) {
  Engine engine = OpenLoadedEngine();
  ServerOptions options;
  options.idle_timeout_ms = 100;
  std::unique_ptr<Server> server = StartServer(&engine, options);
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server->port()));
  EXPECT_OK(client.Ping());
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server->stats().connections_reaped_idle == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server->stats().connections_reaped_idle, 1u);
  EXPECT_EQ(server->stats().connections_active, 0u);
}

TEST(ServerTest, ConcurrentClientsShareThePlanCache) {
  Engine engine = OpenLoadedEngine();
  std::unique_ptr<Server> server = StartServer(&engine);
  const std::vector<std::string> pool = ExperimentQueryPool();

  constexpr int kThreads = 6;
  constexpr int kPerThread = 20;
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> cache_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) return;
      for (int i = 0; i < kPerThread; ++i) {
        auto response =
            client->Query(pool[static_cast<size_t>(t + i) % pool.size()]);
        if (response.ok() && response->ok()) {
          ok.fetch_add(1);
          if (response->plan_cache_hit) cache_hits.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(ok.load(), static_cast<uint64_t>(kThreads * kPerThread));
  // 6 distinct templates, 120 requests: almost everything is a hit on
  // the one shared cache.
  EXPECT_GE(cache_hits.load(),
            static_cast<uint64_t>(kThreads * kPerThread) -
                2 * pool.size());
  EXPECT_GE(engine.plan_cache_stats().hits,
            cache_hits.load());  // server hits are engine hits
  server->Shutdown();
  EXPECT_EQ(server->stats().protocol_errors, 0u);
}

TEST(ServerTest, PipelinedMissThenHitAnswerInArrivalOrder) {
  // A plan-cache miss goes to the pool; a cached query pipelined right
  // behind it on the same connection must not overtake it, though the
  // miss parses and plans while the hit only executes.
  Engine engine = OpenLoadedEngine();
  const std::vector<std::string> pool = ExperimentQueryPool();
  const std::string& slow = pool.back();
  ASSERT_OK_AND_ASSIGN(QueryOutcome slow_direct, engine.Execute(slow));
  ASSERT_OK_AND_ASSIGN(QueryOutcome hit_direct,
                       engine.Execute(kSingleClassQuery));
  ASSERT_NE(slow_direct.rows.rows.size(), hit_direct.rows.rows.size());
  std::unique_ptr<Server> server = StartServer(&engine);
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server->port()));

  for (int i = 0; i < 20; ++i) {
    // Trailing blanks make a text the raw-text cache has not seen, so
    // the server cannot serve it inline.
    Request miss;
    miss.query_text = slow + std::string(static_cast<size_t>(i) + 1, ' ');
    ASSERT_OK(client.SendRaw(EncodeRequest(miss) +
                             EncodeRequest(SingleClassQueryRequest(0))));
    ASSERT_OK_AND_ASSIGN(Response first, client.ReceiveResponse());
    ASSERT_OK_AND_ASSIGN(Response second, client.ReceiveResponse());
    ASSERT_TRUE(first.ok()) << first.message;
    ASSERT_TRUE(second.ok()) << second.message;
    EXPECT_EQ(first.rows.size(), slow_direct.rows.rows.size()) << i;
    EXPECT_EQ(second.rows.size(), hit_direct.rows.rows.size()) << i;
    EXPECT_TRUE(second.plan_cache_hit) << i;
  }
  server->Shutdown();
  EXPECT_EQ(server->stats().queries_ok, 40u);
}

TEST(ServerTest, StartValidatesArguments) {
  Engine engine = OpenLoadedEngine();
  EXPECT_FALSE(Server::Start(nullptr, {}).ok());
  ServerOptions bad;
  bad.threads = 0;
  EXPECT_FALSE(Server::Start(&engine, bad).ok());

  // A port outside [0, 65535] is refused instead of wrapping through
  // uint16_t (70000 would otherwise bind 4464).
  for (int port : {-1, 65536, 70000}) {
    ServerOptions out_of_range;
    out_of_range.port = port;
    auto started = Server::Start(&engine, out_of_range);
    ASSERT_FALSE(started.ok()) << port;
    EXPECT_EQ(started.status().code(), StatusCode::kInvalidArgument) << port;
  }

  // min_protocol must name a version this build speaks: 0 would accept
  // v1 silently, 3 would refuse every HELLO.
  for (uint32_t version : {0u, kProtocolVersionMax + 1}) {
    ServerOptions unservable;
    unservable.min_protocol = version;
    auto started = Server::Start(&engine, unservable);
    ASSERT_FALSE(started.ok()) << version;
    EXPECT_EQ(started.status().code(), StatusCode::kInvalidArgument)
        << version;
  }

  // An engine with no data loaded is refused up front.
  auto empty = Engine::Open(SchemaSource::Experiment(),
                            ConstraintSource::Experiment());
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(Server::Start(&*empty, {}).ok());

  // A client needs a concrete port: 0 and out-of-range values fail
  // before any socket is opened.
  for (int port : {0, 70000}) {
    auto client = Client::Connect("127.0.0.1", port);
    ASSERT_FALSE(client.ok()) << port;
    EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument) << port;
  }
}

}  // namespace
}  // namespace sqopt::server
