// Integration tests for the network serving layer (src/server/): wire
// protocol roundtrips over real loopback sockets, malformed-frame
// handling (bad CRC recoverable, oversized length fatal), per-request
// deadlines producing typed kTimeout, admission-control shedding with
// typed kOverloaded under saturation, graceful drain completing
// in-flight work, idle-connection reaping, concurrent clients sharing
// one engine plan cache, connections spread over the event loops, and
// accept backing off on a full fd table. Runs under -fsanitize=thread
// in CI.
#include "server/server.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/worker_pool.h"
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

// The entries of a /proc/self directory ("task" or "fd"), without the
// dot entries.
std::vector<std::string> ProcEntries(const char* dir_name) {
  std::vector<std::string> names;
  DIR* dir = ::opendir((std::string("/proc/self/") + dir_name).c_str());
  if (dir == nullptr) return names;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') names.emplace_back(entry->d_name);
  }
  ::closedir(dir);
  return names;
}

// An open /proc/self/task/<tid>/stat of the thread named `name`, or -1.
int OpenThreadStat(const std::string& name) {
  for (const std::string& tid : ProcEntries("task")) {
    const std::string base = "/proc/self/task/" + tid;
    const int comm_fd = ::open((base + "/comm").c_str(), O_RDONLY | O_CLOEXEC);
    if (comm_fd < 0) continue;
    char comm[32] = {};
    const ssize_t n = ::read(comm_fd, comm, sizeof(comm) - 1);
    ::close(comm_fd);
    if (n > 0 && std::string(comm, static_cast<size_t>(n)) == name + "\n") {
      return ::open((base + "/stat").c_str(), O_RDONLY | O_CLOEXEC);
    }
  }
  return -1;
}

// User plus system CPU seconds of the thread whose stat file is open as
// `fd`; re-read from offset 0, so it opens no file.
double ThreadCpuSeconds(int fd) {
  char buf[1024];
  const ssize_t n = ::pread(fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return -1;
  buf[n] = '\0';
  // Fields count from 1; the name (field 2) may hold spaces, so parse
  // from its closing parenthesis: state is field 3, utime 14, stime 15.
  const char* after_name = std::strrchr(buf, ')');
  if (after_name == nullptr) return -1;
  std::istringstream in(after_name + 1);
  std::string skipped;
  for (int field = 3; field < 14; ++field) in >> skipped;
  unsigned long long utime = 0, stime = 0;
  in >> utime >> stime;
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
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
  EXPECT_NE(text.find("server_accept_errors 0\n"), std::string::npos);

  // One event loop per hardware thread (capped at 16), whatever
  // ServerOptions::threads says.
  const uint64_t loops = static_cast<uint64_t>(WorkerPool::ResolveThreads(0));
  EXPECT_EQ(server->stats().io_loops, loops);
  EXPECT_NE(text.find("server_io_loops " + std::to_string(loops) + "\n"),
            std::string::npos)
      << text;
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
  // is a hit the connection's event loop serves itself; the
  // contradiction is a miss and goes through the pool.
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

TEST(ServerTest, GracefulDrainAnswersPooledWorkOnEveryLoop) {
  // One connection per event loop (the acceptor gives each new
  // connection to the loop with the fewest), each with pooled requests
  // in flight when the drain starts: every loop waits for its own
  // connections' answers, and the last one out stops the workers.
  Engine engine = OpenLoadedEngine();
  const size_t threads_before = ProcEntries("task").size();
  ServerOptions options;
  options.threads = 2;
  options.execute_delay_ms = 50;  // keeps every query in the pool
  std::unique_ptr<Server> server = StartServer(&engine, options);
  const size_t loops = server->stats().io_loops;
  ASSERT_GE(loops, 1u);

  constexpr int kPerClient = 2;
  const uint64_t total = loops * kPerClient;
  std::vector<Client> clients;
  for (size_t i = 0; i < loops; ++i) {
    ASSERT_OK_AND_ASSIGN(Client client,
                         Client::Connect("127.0.0.1", server->port(),
                                         /*timeout_ms=*/30000));
    clients.push_back(std::move(client));
  }
  const std::string frame = EncodeRequest(SingleClassQueryRequest(0));
  for (Client& client : clients) {
    std::string pipelined;
    for (int i = 0; i < kPerClient; ++i) pipelined += frame;
    ASSERT_OK(client.SendRaw(pipelined));
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server->stats().requests_received < total &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server->stats().requests_received, total);
  server->RequestDrain();

  // A request that raced the drain is refused with kOverloaded; every
  // admitted one is answered before its connection closes.
  uint64_t ok = 0;
  for (Client& client : clients) {
    for (int i = 0; i < kPerClient; ++i) {
      ASSERT_OK_AND_ASSIGN(Response response, client.ReceiveResponse());
      if (response.ok()) {
        ++ok;
      } else {
        EXPECT_EQ(response.code, StatusCode::kOverloaded) << response.message;
      }
    }
  }
  server->Await();

  const ServerStats stats = server->stats();
  EXPECT_GE(ok, 1u);
  EXPECT_EQ(stats.queries_ok, ok);
  EXPECT_EQ(stats.queries_ok + stats.rejected_overloaded, total);
  EXPECT_EQ(stats.responses_sent, total);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.connections_active, 0u);
  // Every loop and worker thread has been joined.
  EXPECT_EQ(ProcEntries("task").size(), threads_before);
}

TEST(ServerTest, ConnectionsSpreadAcrossLoopsAnswerInRequestOrder) {
  // Twice as many connections as event loops, each from its own
  // thread, pipelining cached hits around a miss that goes to the pool:
  // on every loop, each connection's answers leave in request order.
  Engine engine = OpenLoadedEngine();
  const std::vector<std::string> pool = ExperimentQueryPool();
  const std::string& slow = pool.back();
  ASSERT_OK_AND_ASSIGN(QueryOutcome slow_direct, engine.Execute(slow));
  ASSERT_OK_AND_ASSIGN(QueryOutcome hit_direct,
                       engine.Execute(kSingleClassQuery));
  const size_t slow_rows = slow_direct.rows.rows.size();
  const size_t hit_rows = hit_direct.rows.rows.size();
  ASSERT_NE(slow_rows, hit_rows);
  std::unique_ptr<Server> server = StartServer(&engine);
  const int connections = 2 * static_cast<int>(server->stats().io_loops);

  constexpr int kRounds = 8;
  const std::string hit = EncodeRequest(SingleClassQueryRequest(0));
  std::vector<std::thread> threads;
  for (int t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server->port(),
                                    /*timeout_ms=*/30000);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      for (int round = 0; round < kRounds; ++round) {
        // Trailing blanks make a text no connection has sent yet, so it
        // cannot be served inline.
        Request miss;
        miss.query_text =
            slow + std::string(static_cast<size_t>(t * kRounds + round) + 1,
                               ' ');
        ASSERT_TRUE(client->SendRaw(hit + EncodeRequest(miss) + hit).ok());
        for (size_t want : {hit_rows, slow_rows, hit_rows}) {
          auto response = client->ReceiveResponse();
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          ASSERT_TRUE(response->ok()) << response->message;
          EXPECT_EQ(response->rows.size(), want)
              << "connection " << t << " round " << round;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  server->Shutdown();

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(connections));
  EXPECT_EQ(stats.queries_ok, static_cast<uint64_t>(connections) * kRounds * 3);
  EXPECT_GT(stats.queries_inline, 0u);
  EXPECT_EQ(stats.connections_active, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// Lowers this process's soft RLIMIT_NOFILE to just above its highest
// open fd and opens /dev/null until the table is full; the destructor
// frees the fds and restores the limit.
class FullFdTable {
 public:
  FullFdTable() {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    int highest = 0;
    for (const std::string& fd : ProcEntries("fd")) {
      highest = std::max(highest, std::atoi(fd.c_str()));
    }
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(highest) + 16;
    lowered_ = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
    if (!lowered_) return;
    for (;;) {
      const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        full_ = errno == EMFILE;
        break;
      }
      filler_.push_back(fd);
    }
  }
  ~FullFdTable() {
    for (int fd : filler_) ::close(fd);
    if (lowered_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  FullFdTable(const FullFdTable&) = delete;
  FullFdTable& operator=(const FullFdTable&) = delete;

  bool full() const { return full_; }

 private:
  rlimit saved_{};
  bool lowered_ = false;
  bool full_ = false;
  std::vector<int> filler_;
};

TEST(ServerTest, FullFdTableBacksOffAcceptInsteadOfSpinning) {
  // With the fd table full, accept4 fails (EMFILE) while connections
  // wait in the backlog, so the level-triggered listen fd stays
  // readable. The acceptor must count the error and leave the listen fd
  // out of its poll set for a while, not retry it in a hot loop.
  Engine engine = OpenLoadedEngine();
  std::unique_ptr<Server> server = StartServer(&engine);
  // The loop names itself once it runs.
  int stat_fd = -1;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((stat_fd = OpenThreadStat("sqopt-io0")) < 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(stat_fd, 0);

  // Sockets made now and connected once the table is full: their
  // handshakes complete into the listen backlog.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  std::vector<int> backlog;
  for (int i = 0; i < 2; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    backlog.push_back(fd);
  }

  double cpu_seconds = 0;
  uint64_t accept_errors = 0;
  {
    FullFdTable table;
    ASSERT_TRUE(table.full());
    for (int fd : backlog) {
      ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)),
                0)
          << std::strerror(errno);
    }
    const double before = ThreadCpuSeconds(stat_fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    cpu_seconds = ThreadCpuSeconds(stat_fd) - before;
    ASSERT_GE(before, 0);
    accept_errors = server->stats().accept_errors;
  }
  ::close(stat_fd);
  EXPECT_GT(accept_errors, 0u);
  EXPECT_LT(cpu_seconds, 0.3);

  // With fds free again, the next pass accepts and serves.
  ASSERT_OK_AND_ASSIGN(Client fresh,
                       Client::Connect("127.0.0.1", server->port()));
  EXPECT_OK(fresh.Ping());
  for (int fd : backlog) ::close(fd);
  server->Shutdown();
  EXPECT_EQ(server->stats().connections_active, 0u);
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
