// The sqopt network server binary: opens an engine (a persistence
// directory from Engine::Save / crash_harness --mode fixture, or a
// freshly generated experiment database) and serves the wire protocol
// until SIGTERM/SIGINT, then drains gracefully — stops accepting,
// finishes in-flight requests, flushes every response — and exits 0.
//
// Every connection speaks the one wire protocol version from its first
// frame; a HELLO naming another version is refused with a typed
// kUnsupportedVersion and the connection closed.
//
// Topology (see DESIGN.md "Replication"): every
// --dir server is a replication LEADER — it primes a ReplicationLog
// from its WAL's committed suffix and streams commits to kSubscribe
// followers. --follow=HOST:PORT turns the process into a FOLLOWER:
// it opens its own directory (normally a copy of the leader's), runs
// a FollowerApplier that replays the leader's stream through the
// ordinary Apply path into its own WAL, and serves reads; kApply is
// rejected read-only.
//
// Usage:
//   sqopt_server --dir=FIXTURE_DIR [flags]     serve a persisted engine
//   sqopt_server --gen=ROWS [flags]            serve a generated DB
//                                              (ROWS per class, expt schema)
// Flags:
//   --port=N            TCP port (default 7411; 0 = ephemeral)
//   --port-file=PATH    write the bound port to PATH (readiness signal)
//   --threads=N         worker threads (default 4)
//   --queue=N           admission queue bound, where reads also pause
//                       (default 128)
//   --deadline-ms=N     default per-request deadline, >= 1 (default 5000)
//   --idle-timeout-ms=N idle connection reaping (default 60000)
//   --seed=N            generation seed for --gen (default 42)
//   --follow=HOST:PORT  follower mode: replicate from this leader
//                       (implies --read-only)
//   --read-only         reject kApply with a typed error
// A numeric flag takes a whole decimal number within its range; any
// other value (a sign, trailing text, a number out of range) exits 2
// naming the flag, so nothing wraps.
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "api/engine.h"
#include "persist/snapshot.h"
#include "replica/follower.h"
#include "replica/replication_log.h"
#include "server/server.h"

namespace {

sqopt::server::Server* g_server = nullptr;

void HandleTermination(int) {
  // RequestDrain is async-signal-safe: an atomic store + pipe write.
  if (g_server != nullptr) g_server->RequestDrain();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "sqopt_server: %s\n", msg.c_str());
  std::exit(2);
}

// The one parser of numeric flags: `text` whole, as a T in [lo, hi].
template <typename T>
T ParseNumber(const char* flag, std::string_view text,
              T lo = std::numeric_limits<T>::min(),
              T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value < lo || value > hi) {
    Die(std::string(flag) + " needs an integer in [" + std::to_string(lo) +
        ", " + std::to_string(hi) + "], got '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqopt;  // NOLINT(build/namespaces) — tool binary

  std::string dir;
  std::string port_file;
  std::string follow;
  int64_t gen_rows = 0;
  uint64_t seed = 42;
  server::ServerOptions options;
  options.port = 7411;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--dir=")) {
      dir = v;
    } else if (const char* v = value("--gen=")) {
      gen_rows = ParseNumber<int64_t>("--gen", v, 1);
    } else if (const char* v = value("--port=")) {
      options.port = ParseNumber<int>("--port", v, 0, 65535);
    } else if (const char* v = value("--port-file=")) {
      port_file = v;
    } else if (const char* v = value("--threads=")) {
      options.threads = ParseNumber<int>("--threads", v, 1);
    } else if (const char* v = value("--queue=")) {
      options.max_queue = ParseNumber<size_t>("--queue", v, 1);
    } else if (const char* v = value("--deadline-ms=")) {
      options.default_deadline_ms = ParseNumber<uint32_t>("--deadline-ms", v);
    } else if (const char* v = value("--idle-timeout-ms=")) {
      options.idle_timeout_ms = ParseNumber<uint32_t>("--idle-timeout-ms", v);
    } else if (const char* v = value("--seed=")) {
      seed = ParseNumber<uint64_t>("--seed", v);
    } else if (const char* v = value("--follow=")) {
      follow = v;
      options.read_only = true;
    } else if (std::strcmp(arg, "--read-only") == 0) {
      options.read_only = true;
    } else {
      Die(std::string("unknown flag ") + arg);
    }
  }
  if (dir.empty() == (gen_rows == 0)) {
    Die("exactly one of --dir=DIR or --gen=ROWS is required");
  }

  Result<Engine> opened =
      dir.empty()
          ? Engine::Open(SchemaSource::Experiment(),
                         ConstraintSource::Experiment())
          : Engine::Open(dir);
  if (!opened.ok()) Die("open: " + opened.status().ToString());
  Engine engine = std::move(opened).value();
  if (!dir.empty()) {
    std::printf("sqopt_server: opened %s at data version %llu\n",
                dir.c_str(),
                static_cast<unsigned long long>(engine.data_version()));
  } else {
    const DbSpec spec{"served", gen_rows, gen_rows * 3 / 2};
    Status loaded = engine.Load(DataSource::Generated(spec, seed));
    if (!loaded.ok()) Die("load: " + loaded.ToString());
    std::printf("sqopt_server: generated %lld rows/class (seed %llu)\n",
                static_cast<long long>(gen_rows),
                static_cast<unsigned long long>(seed));
  }

  // A leader (anything not following) streams its commits; prime the
  // log with the WAL's committed suffix so followers that were
  // mid-stream at the last shutdown can resume without a re-seed.
  replica::ReplicationLog replication_log;
  replica::ReplicationLog* replication = nullptr;
  if (follow.empty()) {
    if (!dir.empty()) {
      Status primed = replication_log.PrimeFromWal(
          dir + "/" + persist::kWalFileName);
      if (!primed.ok()) Die("prime replication: " + primed.ToString());
    }
    replication_log.AttachTo(&engine);
    replication = &replication_log;
  }

  auto started = server::Server::Start(&engine, options, replication);
  if (!started.ok()) Die("start: " + started.status().ToString());
  g_server = started->get();

  // Follower mode: start the applier after the server so local reads
  // serve immediately while catch-up streams in.
  std::unique_ptr<replica::FollowerApplier> applier;
  if (!follow.empty()) {
    const size_t colon = follow.rfind(':');
    if (colon == std::string::npos) Die("--follow needs HOST:PORT");
    replica::FollowerOptions fopts;
    fopts.leader_host = follow.substr(0, colon);
    fopts.leader_port = ParseNumber<int>(
        "--follow", std::string_view(follow).substr(colon + 1), 1, 65535);
    auto follower = replica::FollowerApplier::Start(&engine, fopts);
    if (!follower.ok()) Die("follow: " + follower.status().ToString());
    applier = std::move(follower).value();
    std::printf("sqopt_server: following %s from version %llu\n",
                follow.c_str(),
                static_cast<unsigned long long>(engine.data_version()));
  }

  struct sigaction sa {};
  sa.sa_handler = HandleTermination;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const int port = (*started)->port();
  if (!port_file.empty()) {
    if (FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%d\n", port);
      std::fclose(f);
    } else {
      Die("cannot write port file " + port_file);
    }
  }
  std::printf("sqopt_server: listening on 127.0.0.1:%d\n", port);
  std::fflush(stdout);

  (*started)->Await();  // returns once a signal triggered a clean drain
  g_server = nullptr;
  if (applier != nullptr) {
    applier->Stop();
    const Status health = applier->status();
    const replica::FollowerStats fs = applier->stats();
    std::printf(
        "sqopt_server: follower stopped at version %llu — %llu records "
        "applied, %llu skipped, %llu reconnects%s%s\n",
        static_cast<unsigned long long>(fs.last_applied_version),
        static_cast<unsigned long long>(fs.records_applied),
        static_cast<unsigned long long>(fs.records_skipped),
        static_cast<unsigned long long>(fs.reconnects),
        health.ok() ? "" : " — HALTED: ",
        health.ok() ? "" : health.ToString().c_str());
    if (!health.ok()) return 3;
  }

  const server::ServerStats stats = (*started)->stats();
  std::printf(
      "sqopt_server: drained cleanly — %llu conns, %llu requests, "
      "%llu ok, %llu overloaded, %llu timed out, %llu protocol errors\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.requests_received),
      static_cast<unsigned long long>(stats.queries_ok),
      static_cast<unsigned long long>(stats.rejected_overloaded),
      static_cast<unsigned long long>(stats.timed_out),
      static_cast<unsigned long long>(stats.protocol_errors));
  return 0;
}
