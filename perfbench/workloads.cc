#include "workloads.h"

#include <algorithm>
#include <barrier>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "layers.h"
#include "query/query_printer.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "workload/dbgen.h"
#include "workload/mutation_script.h"
#include "workload/path_enum.h"
#include "workload/query_gen.h"
#include "workload/query_pool.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sqopt::DataSource;
using sqopt::DbSpec;
using sqopt::Engine;
using sqopt::EngineOptions;
using sqopt::QueryOutcome;
using sqopt::ResultSet;

constexpr double kZipfTheta = 0.9;
constexpr int kRounds = 40;                // rounds per measured stream
constexpr int kChurnGroup = 4;             // batches per ApplyGroup
constexpr int kChurnQueriesPerGroup = 4;   // pool queries after each group
constexpr int kChurnCheckpointEvery = 64;  // groups between checkpoints
constexpr int kChurnReplicas = 3;          // untraced runs of the sequence
constexpr int kChurnSetups = 5;            // fresh set-ups per replica
constexpr int kServeClients = 3;
constexpr int kServeWorkers = 2;
constexpr size_t kServeProbeOps = 1000;  // probed requests per client

// Operations per round at --seconds 10, scaled linearly with --seconds
// but never below `floor` (which keeps >= 1000 samples behind each p99).
size_t PerRound(const RunConfig& cfg, size_t at_ten, size_t floor) {
  return std::max(floor, at_ten * static_cast<size_t>(cfg.seconds) / 10);
}

// Idles before each round of adhoc in an untraced run, so that its rounds
// sample a window longer than the work itself (1.5 x --seconds of gaps
// in all): contention on a shared host comes in episodes of many
// seconds, and Summarize keeps the quietest rounds. Only adhoc is
// paced: after an idle gap, scan's morsel workers and serve's server
// workers would have to wake up, and a round would measure that rather
// than steady state; churn's rounds are not ranked, and its replicas
// already sample a longer window.
void Pace(const RunConfig& cfg) {
  std::this_thread::sleep_for(std::chrono::milliseconds(
      1500 * cfg.seconds / kRounds));
}

// Everything one pass over a workload measured.
struct Pass {
  explicit Pass(Clock::time_point epoch) : epoch(epoch), tracer(epoch) {}

  Clock::time_point epoch;  // shared by every tracer of the run

  // Set-up, one sample per fresh set-up. A run's set-ups are spread
  // over the run: scan sets up fresh stores for each phase of its
  // rounds, churn for each replica, adhoc and serve make a spare set-up
  // between rounds. setup_s is their lower quartile (the median of the
  // quietest half): like the query rounds, a set-up only gets slower
  // under contention from other tenants, and a median of set-ups made
  // back to back moved with the episode they landed in.
  Dist setup_s, open_ms, load_ms, save_ms, start_ms;
  // Queries (Execute, or Client::Query on serve), and the workload's
  // primary operation: the same rounds, except on churn, where it is
  // one ApplyGroup.
  std::vector<Round> query_rounds, op_rounds;
  Dist query_hit_us, query_miss_us;
  Ledger ledger;
  bool correct = true;

  // Traced pass only.
  Tracer tracer;
  QueryLayers queries;
  LayerValues layers;
};

Dist AllSamples(const std::vector<Round>& rounds) {
  Dist all;
  for (const Round& round : rounds) all.Append(round.us);
  return all;
}

// Human-readable line for the run log (the JSON line comes last).
void Note(const std::string& line) { std::printf("%s\n", line.c_str()); }

EngineOptions ProbeOptions(EngineOptions options) {
  options.serve.cache_capacity = 0;  // Prepare always plans
  return options;
}

// One fresh set-up: Open(sources) then Load(generated data).
Engine OpenAndLoad(const EngineOptions& options, const DbSpec& spec,
                   uint64_t seed, Pass* pass) {
  const Clock::time_point t0 = Clock::now();
  Engine engine =
      Must(Engine::Open(sqopt::SchemaSource::Experiment(),
                        sqopt::ConstraintSource::Experiment(), options),
           "Engine::Open");
  const Clock::time_point t1 = Clock::now();
  Must(engine.Load(DataSource::Generated(spec, seed)), "Engine::Load");
  const Clock::time_point t2 = Clock::now();
  if (pass != nullptr) {
    pass->open_ms.Add(Micros(t0, t1) / 1e3);
    pass->load_ms.Add(Micros(t1, t2) / 1e3);
  }
  return engine;
}

// The oracle's answer to one text on the current snapshot.
struct Oracle {
  ResultSet rows;
  double cost = 0;  // unoptimized meter, cost units
};

Oracle RunOracle(const Engine& engine, const std::string& text) {
  QueryOutcome o =
      Must(engine.ExecuteUnoptimized(text), "ExecuteUnoptimized " + text);
  return {std::move(o.rows), o.meter.CostUnits()};
}

void Verify(const std::string& text, int64_t op, const ResultSet& got,
            const Oracle& want, Ledger* ledger) {
  if (SameAnswer(got, want.rows)) {
    ledger->Ok();
  } else {
    ledger->Fail(text, op, DescribeMismatch(got, want.rows));
  }
}

// Execute(text) as one timed query of `round`; returns the outcome and
// its latency. In a traced pass the call is an "api.execute" span under
// a "query" root.
std::pair<sqopt::Result<QueryOutcome>, double> TimedQuery(
    const Engine& engine, const std::string& text, int64_t op, bool traced,
    Pass* pass, Round* round) {
  Clock::time_point t0, t1;
  sqopt::Result<QueryOutcome> result = sqopt::Status::OK();
  if (!traced) {
    t0 = Clock::now();
    result = engine.Execute(text);
    t1 = Clock::now();
  } else {
    ScopedSpan root(&pass->tracer, "query", op, -1);
    ScopedSpan call(&pass->tracer, "api.execute", op, root.id());
    t0 = Clock::now();
    result = engine.Execute(text);
    t1 = Clock::now();
  }
  if (!result.ok()) {
    pass->ledger.Fail(text, op, "error " + result.status().ToString());
    return {std::move(result), 0.0};
  }
  const double us = Micros(t0, t1);
  round->us.Add(us);
  round->units += 1;
  round->busy_s += us / 1e6;
  (result->plan_cache_hit ? pass->query_hit_us : pass->query_miss_us).Add(us);
  return {std::move(result), us};
}

// Checks a timed query against `want` and, in a traced pass, takes the
// same text apart layer by layer on the probe engine.
void Settle(const Engine* probe, const std::string& text, int64_t op,
            const std::pair<sqopt::Result<QueryOutcome>, double>& timed,
            const Oracle& want, Pass* pass) {
  const auto& [result, us] = timed;
  if (!result.ok()) return;
  Verify(text, op, result->rows, want, &pass->ledger);
  if (probe != nullptr) {
    pass->queries.Add(ProbeQuery(*probe, text, &pass->tracer, op),
                      result->plan_cache_hit, us, want.cost);
  }
}

// Zipf(theta) draws over `pool`, deterministic in `seed`.
std::vector<size_t> ZipfStream(size_t pool_size, uint64_t seed, size_t n) {
  sqopt::Rng rng(seed);
  std::vector<size_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(rng.SkewedIndex(pool_size, kZipfTheta));
  }
  return out;
}

// ---------------------------------------------------------------------
// adhoc and scan: one client, a closed loop of Engine::Execute.
// ---------------------------------------------------------------------

struct QueryWorkload {
  DbSpec db;
  EngineOptions options;
  int setups = 1;  // fresh set-ups per phase
  int phases = 1;  // each on a fresh store, serving kRounds / phases rounds
  bool spare_setups = false;  // one more set-up before each later round
  bool adhoc = false;  // generated texts; else Zipf over the pool
  bool paced = false;  // idle before each round (see Pace)
  size_t per_round = 0;
};

void RunQueryPass(const QueryWorkload& w, const RunConfig& cfg, bool traced,
                  Pass* pass) {
  // One fresh set-up into `e`. Every store holds the same data (same
  // spec, same seed); the last of a phase's set-ups serves its rounds.
  auto set_up = [&](std::optional<Engine>* e) {
    e->reset();
    const Clock::time_point t0 = Clock::now();
    e->emplace(OpenAndLoad(w.options, w.db, cfg.seed, pass));
    pass->setup_s.Add(Micros(t0, Clock::now()) / 1e6);
  };
  std::optional<Engine> engine;
  for (int k = 0; k < w.setups; ++k) set_up(&engine);
  std::optional<Engine> probe;
  if (traced) {
    probe.emplace(OpenAndLoad(ProbeOptions(w.options), w.db, cfg.seed,
                              nullptr));
  }

  const size_t ops = w.per_round * kRounds;
  std::vector<std::string> texts;
  const std::vector<std::string> pool = sqopt::ExperimentQueryPool();
  if (w.adhoc) {
    const sqopt::Schema& schema = engine->schema();
    sqopt::QueryGenerator gen(&schema, cfg.seed);
    for (const sqopt::Query& q :
         Must(gen.Sample(sqopt::EnumerateSimplePaths(schema, 1, 5), ops),
              "QueryGenerator::Sample")) {
      texts.push_back(sqopt::PrintQuery(schema, q));
    }
  } else {
    for (size_t i : ZipfStream(pool.size(), cfg.seed, ops)) {
      texts.push_back(pool[i]);
    }
  }

  // The store never changes, so each oracle answer holds for the whole
  // run. The pool workload computes its six once and warms the plan
  // cache before measuring, then checks each answer after its call.
  // adhoc times a whole round of calls back to back and runs the oracle
  // on each text after the round: oracle runs between calls left the
  // calls after them on cold caches (p50 up by a fifth with a check
  // every 25 calls). A round's answers (about 35 MB) count in
  // peak_rss_mb.
  const size_t chunk = w.adhoc ? w.per_round : 1;
  std::unordered_map<std::string, Oracle> oracles;
  if (!w.adhoc) {
    for (const std::string& text : pool) {
      oracles[text] = RunOracle(*engine, text);
    }
  }
  uint64_t evictions = 0, invalidations = 0;
  pass->query_rounds.resize(kRounds);
  for (int phase = 0; phase < w.phases; ++phase) {
    for (int k = 0; phase > 0 && k < w.setups; ++k) set_up(&engine);
    if (!w.adhoc) {
      for (const std::string& text : pool) {
        Must(engine->Execute(text), "Execute " + text);
      }
    }
    const sqopt::PlanCacheStats before = engine->plan_cache_stats();
    for (int r = phase * kRounds / w.phases;
         r < (phase + 1) * kRounds / w.phases; ++r) {
      if (w.paced && !cfg.trace) Pace(cfg);
      if (w.spare_setups && r > 0) {
        std::optional<Engine> spare;
        set_up(&spare);
      }
      const size_t round_end = (r + 1) * w.per_round;
      for (size_t begin = r * w.per_round; begin < round_end; begin += chunk) {
        const size_t end = std::min(begin + chunk, round_end);
        std::vector<std::pair<sqopt::Result<QueryOutcome>, double>> answers;
        for (size_t i = begin; i < end; ++i) {
          answers.push_back(TimedQuery(*engine, texts[i],
                                       static_cast<int64_t>(i), traced, pass,
                                       &pass->query_rounds[r]));
        }
        for (size_t i = begin; i < end; ++i) {
          const int64_t op = static_cast<int64_t>(i);
          const Engine* p = traced ? &*probe : nullptr;
          if (w.adhoc) {
            Settle(p, texts[i], op, answers[i - begin],
                   RunOracle(*engine, texts[i]), pass);
          } else {
            Settle(p, texts[i], op, answers[i - begin], oracles.at(texts[i]),
                   pass);
          }
        }
      }
    }
    const sqopt::PlanCacheStats after = engine->plan_cache_stats();
    evictions += after.evictions - before.evictions;
    invalidations += after.invalidations - before.invalidations;
  }
  pass->queries.SetCacheDelta(evictions, invalidations);
  pass->op_rounds = pass->query_rounds;
  Note("queries=" + std::to_string(ops) +
       " hits=" + std::to_string(pass->query_hit_us.size()) +
       " misses=" + std::to_string(pass->query_miss_us.size()) +
       " cache_evictions=" + std::to_string(evictions) +
       " phases=" + std::to_string(w.phases));
}

// ---------------------------------------------------------------------
// churn: ApplyGroup of MutationScript batches beside pool queries on a
// durable engine, checkpoints every kChurnCheckpointEvery groups, then
// a recovery check.
// ---------------------------------------------------------------------

int64_t LiveObjects(const Engine& engine) {
  int64_t n = 0;
  for (const sqopt::ObjectClass& oc : engine.schema().classes()) {
    n += engine.store()->NumLiveObjects(oc.id);
  }
  return n;
}

// One replica of churn's sequence on a fresh store; its rounds go to
// pass rounds [replica * kRounds, (replica + 1) * kRounds).
void RunChurnReplica(const RunConfig& cfg, bool traced, int replica,
                     Pass* pass) {
  const DbSpec db{"churn", 2000, 3000};
  const size_t per_round = PerRound(cfg, 25, 25);
  const EngineOptions options;  // WAL fsync on (DurabilityOptions default)

  std::optional<Engine> engine;
  std::string dir;
  for (int k = 0; k < kChurnSetups; ++k) {
    engine.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = cfg.work_dir + "/churn-" + std::to_string(replica) + "-" +
          std::to_string(k);
    fs::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    engine.emplace(OpenAndLoad(options, db, cfg.seed, pass));
    const Clock::time_point t1 = Clock::now();
    Must(engine->Save(dir), "Engine::Save");
    const Clock::time_point t2 = Clock::now();
    pass->save_ms.Add(Micros(t1, t2) / 1e3);
    pass->setup_s.Add(Micros(t0, t2) / 1e6);
  }
  std::optional<Engine> probe;
  if (traced) {
    probe.emplace(OpenAndLoad(ProbeOptions(options), db, cfg.seed, nullptr));
  }

  std::vector<int64_t> base_rows;
  for (const sqopt::ObjectClass& oc : engine->schema().classes()) {
    base_rows.push_back(engine->store()->NumObjects(oc.id));
  }
  sqopt::MutationScript script(&engine->schema(), base_rows, cfg.seed);
  const std::vector<std::string> pool = sqopt::ExperimentQueryPool();
  const size_t groups = per_round * kRounds;
  const std::vector<size_t> stream =
      ZipfStream(pool.size(), cfg.seed, groups * kChurnQueriesPerGroup);
  const int64_t live_start = LiveObjects(*engine);

  Dist commit_us, clone_us, wal_write_us, fsync_us, other_us, checkpoint_ms;
  double checks = 0, drift = 0, wal_bytes = 0, batches = 0;
  const sqopt::PlanCacheStats cache_before = engine->plan_cache_stats();
  for (size_t g = 0; g < groups; ++g) {
    const int64_t op = static_cast<int64_t>(g);
    const size_t round = replica * kRounds + g / per_round;
    Round& commits = pass->op_rounds[round];
    Round& queries = pass->query_rounds[round];
    std::vector<sqopt::MutationBatch> group;
    for (int b = 0; b < kChurnGroup; ++b) {
      group.push_back(Must(script.Next(), "MutationScript::Next"));
    }
    const uint64_t disk_before = traced ? DirBytes(dir) : 0;
    std::vector<sqopt::Result<sqopt::ApplyOutcome>> results;
    double us = 0;
    if (!traced) {
      const Clock::time_point t0 = Clock::now();
      results = engine->ApplyGroup(group);
      us = Micros(t0, Clock::now());
    } else {
      ScopedSpan root(&pass->tracer, "commit", op, -1);
      ScopedSpan call(&pass->tracer, "api.apply_group", op, root.id());
      results = engine->ApplyGroup(group);
      us = call.Stop();
      root.Stop();
      if (results.at(0).ok()) {
        const sqopt::ApplyOutcome& o = *results[0];
        pass->tracer.Reported("storage.clone", op, call.id(),
                              static_cast<double>(o.clone_micros));
        const int32_t wal = pass->tracer.Reported(
            "persist.wal", op, call.id(), static_cast<double>(o.wal_micros));
        pass->tracer.Reported("persist.fsync", op, wal,
                              static_cast<double>(o.fsync_micros));
      }
    }
    for (size_t b = 0; b < results.size(); ++b) {
      // MutationScript batches are valid by construction: a rejection
      // is a typed error from a call that must succeed.
      if (!results[b].ok()) {
        Die("ApplyGroup group " + std::to_string(g) + " batch " +
            std::to_string(b) + ": " + results[b].status().ToString());
      }
      pass->ledger.Ok();
    }
    commits.us.Add(us);
    commit_us.Add(us);
    commits.units += static_cast<double>(results.size());
    commits.busy_s += us / 1e6;
    if (traced) {
      const sqopt::ApplyOutcome& o = *results[0];
      clone_us.Add(static_cast<double>(o.clone_micros));
      wal_write_us.Add(static_cast<double>(o.wal_micros - o.fsync_micros));
      fsync_us.Add(static_cast<double>(o.fsync_micros));
      other_us.Add(us - static_cast<double>(o.clone_micros + o.wal_micros));
      for (const auto& res : results) {
        checks += static_cast<double>(res->constraint_checks);
      }
      drift += o.stats_drift;
      wal_bytes += static_cast<double>(DirBytes(dir) - disk_before);
      batches += static_cast<double>(results.size());
      for (const auto& res : probe->ApplyGroup(group)) {
        Must(res.status(), "probe ApplyGroup");
      }
    }
    if ((g + 1) % kChurnCheckpointEvery == 0) {
      // Checkpoint time is write time: it counts toward the commit
      // rate, not toward any commit's latency.
      int32_t span = -1;
      if (traced) span = pass->tracer.Begin("persist.checkpoint", op, -1);
      const Clock::time_point t0 = Clock::now();
      Must(engine->Checkpoint(), "Engine::Checkpoint");
      const double ck = Micros(t0, Clock::now());
      if (traced) pass->tracer.End(span);
      commits.busy_s += ck / 1e6;
      checkpoint_ms.Add(ck / 1e3);
    }
    // The group's queries, timed back to back right after the commit,
    // then checked against the oracle on the same snapshot.
    std::vector<std::pair<sqopt::Result<QueryOutcome>, double>> answers;
    for (int q = 0; q < kChurnQueriesPerGroup; ++q) {
      const int64_t qop = op * kChurnQueriesPerGroup + q;
      answers.push_back(
          TimedQuery(*engine, pool[stream[qop]], qop, traced, pass, &queries));
    }
    for (int q = 0; q < kChurnQueriesPerGroup; ++q) {
      const int64_t qop = op * kChurnQueriesPerGroup + q;
      const std::string& text = pool[stream[qop]];
      Settle(traced ? &*probe : nullptr, text, qop, answers[q],
             RunOracle(*engine, text), pass);
    }
  }
  const sqopt::PlanCacheStats cache_after = engine->plan_cache_stats();
  pass->queries.SetCacheDelta(
      cache_after.evictions - cache_before.evictions,
      cache_after.invalidations - cache_before.invalidations);

  // Durability: destroy the engine, reopen the directory, and require
  // the last acknowledged version and identical pool answers.
  const int64_t live_end = LiveObjects(*engine);
  const uint64_t version = engine->data_version();
  std::vector<ResultSet> final_answers;
  for (const std::string& text : pool) {
    final_answers.push_back(
        Must(engine->Execute(text), "Execute " + text).rows);
  }
  const double disk_mb = static_cast<double>(DirBytes(dir)) / (1 << 20);
  engine.reset();
  const Clock::time_point t0 = Clock::now();
  Engine reopened = Must(Engine::Open(dir), "Engine::Open(dir)");
  const double recover_ms = Micros(t0, Clock::now()) / 1e3;
  bool durable = reopened.data_version() == version;
  for (size_t i = 0; i < pool.size(); ++i) {
    QueryOutcome got = Must(reopened.Execute(pool[i]), "Execute " + pool[i]);
    if (got.rows.rows != final_answers[i].rows) {
      durable = false;
      Note("recovery mismatch: " + pool[i]);
    }
  }
  if (!durable) pass->correct = false;
  Note("churn replica=" + std::to_string(replica) +
       " groups=" + std::to_string(groups) +
       " store_live_objects_start=" + std::to_string(live_start) +
       " store_live_objects_end=" + std::to_string(live_end) +
       " version=" + std::to_string(version) +
       " recovered_version=" + std::to_string(reopened.data_version()) +
       " durable=" + (durable ? "1" : "0") +
       " commit_p50_us=" + std::to_string(commit_us.Median()));

  if (traced) {
    LayerValues& v = pass->layers;
    v.Set("storage.clone_us", clone_us.Median());
    v.Set("persist.wal_write_us", wal_write_us.Median());
    v.Set("persist.fsync_us", fsync_us.Median());
    v.Set("commit.other_us", other_us.Median());
    v.Set("constraints.checks_per_commit",
          checks / static_cast<double>(groups));
    v.Set("cost.stats_drift", drift / static_cast<double>(groups));
    v.Set("persist.wal_bytes_per_batch", batches > 0 ? wal_bytes / batches : 0);
    v.Set("persist.checkpoint_ms", checkpoint_ms.Median());
    v.Set("persist.recover_ms", recover_ms);
    v.Set("persist.disk_mb", disk_mb);
    v.Set("commit.path_us", clone_us.Median() + wal_write_us.Median() +
                                fsync_us.Median() + other_us.Median());
  }
  fs::remove_all(dir);
}

void RunChurnPass(const RunConfig& cfg, bool traced, Pass* pass) {
  // The untraced pass runs kChurnReplicas replicas of the same sequence,
  // each on a fresh store, and reports over all of their rounds: churn's
  // rounds cannot be ranked (see Summarize), so a longer window is what
  // steadies its figures. The traced pass, which only reports layer
  // medians, runs one.
  const int replicas = traced ? 1 : kChurnReplicas;
  pass->query_rounds.resize(replicas * kRounds);
  pass->op_rounds.resize(replicas * kRounds);
  for (int k = 0; k < replicas; ++k) {
    RunChurnReplica(cfg, traced, k, pass);
  }
}

// ---------------------------------------------------------------------
// serve: in-process server on loopback, kServeClients closed-loop
// clients, kServeWorkers server workers, kRounds rounds separated by a
// barrier so each round's wall time is measured.
// ---------------------------------------------------------------------

struct ClientLog {
  explicit ClientLog(Clock::time_point epoch) : tracer(epoch) {}
  std::vector<Dist> rtt_us = std::vector<Dist>(kRounds);
  Ledger ledger;
  Tracer tracer;
  size_t hits = 0;
  Dist overhead_us, server_exec_us, encode_us, decode_us;
  // Traced pass, per request, for the post-run probes: pool index, exec
  // micros, plan-cache hit.
  std::vector<std::tuple<size_t, double, bool>> requests;
};

struct ServeShared {
  int port = 0;
  const std::vector<std::string>* pool = nullptr;
  std::vector<Oracle> oracles;  // per pool text
};

// One response of a round, kept until the round has ended.
struct Answer {
  size_t index = 0;   // pool text
  int64_t op = 0;
  int32_t call = -1;  // client.query span (traced pass)
  double us = 0;
  sqopt::server::Response response;
};

// Checks a round's responses against the oracle, and in a traced pass
// records their layers and times the wire on the first kServeProbeOps
// of them. Runs after the round-end barrier, outside the measured wall
// time, so that only Client::Query calls fall inside it.
void SettleRound(const ServeShared& shared, bool traced, uint32_t protocol,
                 std::vector<Answer>* answers, ClientLog* log) {
  namespace srv = sqopt::server;
  for (Answer& a : *answers) {
    const std::string& text = (*shared.pool)[a.index];
    ResultSet got;
    got.rows = std::move(a.response.rows);
    Verify(text, a.op, got, shared.oracles[a.index], &log->ledger);
    a.response.rows = std::move(got.rows);
    if (a.response.plan_cache_hit) ++log->hits;
    if (!traced) continue;
    const double exec = static_cast<double>(a.response.exec_micros);
    log->tracer.Reported("server.exec", a.op, a.call, exec);
    log->overhead_us.Add(a.us - exec);
    log->server_exec_us.Add(exec);
    log->requests.emplace_back(a.index, exec, a.response.plan_cache_hit);
    if (log->requests.size() > kServeProbeOps) continue;
    // Wire cost of this request's own frames, timed on the client.
    const int32_t probe = log->tracer.Begin("probe.wire", a.op, -1);
    srv::Request request;
    request.type = srv::RequestType::kQuery;
    request.query_text = text;
    ScopedSpan enc(&log->tracer, "wire.encode", a.op, probe);
    const std::string req_frame = srv::EncodeRequest(request, protocol);
    const std::string resp_frame = srv::EncodeResponse(a.response);
    log->encode_us.Add(enc.Stop());
    ScopedSpan dec(&log->tracer, "wire.decode", a.op, probe);
    srv::FrameReader reader;
    reader.Append(resp_frame.data(), resp_frame.size());
    std::string payload;
    if (reader.Next(&payload) != srv::FrameReader::Outcome::kFrame) {
      Die("FrameReader rejected an encoded response");
    }
    Must(srv::DecodeResponse(payload), "DecodeResponse");
    log->decode_us.Add(dec.Stop());
    log->tracer.End(probe);
    if (req_frame.empty()) Die("EncodeRequest produced no bytes");
  }
  answers->clear();
}

void RunClient(const ServeShared& shared, const std::vector<size_t>& stream,
               int client_id, bool traced, std::barrier<>* rounds,
               ClientLog* log) {
  namespace srv = sqopt::server;
  srv::Client client =
      Must(srv::Client::Connect("127.0.0.1", shared.port), "Client::Connect");
  const size_t per_round = stream.size() / kRounds;
  std::vector<Answer> answers;
  answers.reserve(per_round);
  for (int r = 0; r < kRounds; ++r) {
    rounds->arrive_and_wait();  // round start
    for (size_t i = r * per_round; i < (r + 1) * per_round; ++i) {
      const size_t index = stream[i];
      const std::string& text = (*shared.pool)[index];
      const int64_t op = static_cast<int64_t>(i) * kServeClients + client_id;
      int32_t root = -1, call = -1;
      if (traced) {
        root = log->tracer.Begin("request", op, -1);
        call = log->tracer.Begin("client.query", op, root);
      }
      const Clock::time_point t0 = Clock::now();
      sqopt::Result<srv::Response> resp = client.Query(text);
      const Clock::time_point t1 = Clock::now();
      if (traced) {
        log->tracer.End(call);
        log->tracer.End(root);
      }
      if (!resp.ok()) {
        log->ledger.Fail(text, op, "transport " + resp.status().ToString());
        if (!client.connected()) {
          client = Must(srv::Client::Connect("127.0.0.1", shared.port),
                        "Client::Connect (reconnect)");
        }
        continue;
      }
      if (!resp->ok()) {
        log->ledger.Fail(text, op, "status " + resp->ToStatus().ToString());
        continue;
      }
      const double us = Micros(t0, t1);
      log->rtt_us[r].Add(us);
      answers.push_back({index, op, call, us, std::move(resp).value()});
    }
    rounds->arrive_and_wait();  // round end
    SettleRound(shared, traced, client.protocol(), &answers, log);
    rounds->arrive_and_wait();  // round settled
  }
}

void RunServePass(const RunConfig& cfg, bool traced, Pass* pass) {
  namespace srv = sqopt::server;
  const DbSpec db{"db4", 208, 616};
  const size_t per_round = PerRound(cfg, 1250, 100);  // per client
  const EngineOptions options;
  srv::ServerOptions server_options;
  server_options.threads = kServeWorkers;

  // One fresh set-up: Open + Load + Server::Start.
  auto set_up = [&](std::optional<Engine>* engine,
                    std::unique_ptr<srv::Server>* server) {
    const Clock::time_point t0 = Clock::now();
    engine->emplace(OpenAndLoad(options, db, cfg.seed, pass));
    const Clock::time_point t1 = Clock::now();
    *server = Must(srv::Server::Start(&**engine, server_options),
                   "Server::Start");
    const Clock::time_point t2 = Clock::now();
    pass->start_ms.Add(Micros(t1, t2) / 1e3);
    pass->setup_s.Add(Micros(t0, t2) / 1e6);
  };
  std::optional<Engine> engine;
  std::unique_ptr<srv::Server> server;
  set_up(&engine, &server);

  const std::vector<std::string> pool = sqopt::ExperimentQueryPool();
  ServeShared shared;
  shared.port = server->port();
  shared.pool = &pool;
  for (const std::string& text : pool) {
    shared.oracles.push_back(RunOracle(*engine, text));
    // Warms the plan cache the server's workers share.
    Must(engine->Execute(text), "Execute " + text);
  }
  std::vector<std::vector<size_t>> streams;
  for (int c = 0; c < kServeClients; ++c) {
    streams.push_back(ZipfStream(pool.size(), cfg.seed + c,
                                 per_round * kRounds));
  }

  std::vector<std::unique_ptr<ClientLog>> logs;
  for (int c = 0; c < kServeClients; ++c) {
    logs.push_back(std::make_unique<ClientLog>(pass->epoch));
  }
  std::barrier<> rounds(kServeClients + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < kServeClients; ++c) {
    threads.emplace_back(RunClient, std::cref(shared), std::cref(streams[c]),
                         c, traced, &rounds, logs[c].get());
  }
  pass->query_rounds.resize(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    rounds.arrive_and_wait();
    const Clock::time_point t0 = Clock::now();
    rounds.arrive_and_wait();
    pass->query_rounds[r].busy_s = Micros(t0, Clock::now()) / 1e6;
    rounds.arrive_and_wait();
    // While the clients wait for the next round, a spare set-up, torn
    // down at once.
    if (r + 1 < kRounds) {
      std::optional<Engine> spare_engine;
      std::unique_ptr<srv::Server> spare_server;
      set_up(&spare_engine, &spare_server);
    }
  }
  for (std::thread& t : threads) t.join();
  const srv::ServerStats stats = server->stats();
  server.reset();

  size_t hits = 0;
  Dist overhead, exec, encode, decode;
  for (auto& log : logs) {
    for (int r = 0; r < kRounds; ++r) {
      pass->query_rounds[r].us.Append(log->rtt_us[r]);
      pass->query_rounds[r].units += static_cast<double>(log->rtt_us[r].size());
    }
    pass->ledger.Merge(log->ledger);
    pass->tracer.Merge(log->tracer);
    overhead.Append(log->overhead_us);
    exec.Append(log->server_exec_us);
    encode.Append(log->encode_us);
    decode.Append(log->decode_us);
    hits += log->hits;
  }
  pass->op_rounds = pass->query_rounds;
  Note("serve clients=" + std::to_string(kServeClients) +
       " server_workers=" + std::to_string(kServeWorkers) +
       " plan_cache_hits=" + std::to_string(hits) +
       " queue_depth_hwm=" + std::to_string(stats.queue_depth_hwm) +
       " rejected=" + std::to_string(stats.rejected_overloaded));

  if (traced) {
    // Layer probes on the texts the clients sent, after the load phase
    // so they do not compete with it.
    Engine probe = OpenAndLoad(ProbeOptions(options), db, cfg.seed, nullptr);
    for (int c = 0; c < kServeClients; ++c) {
      const auto& reqs = logs[c]->requests;
      for (size_t i = 0; i < std::min(reqs.size(), kServeProbeOps); ++i) {
        const auto& [index, exec_us, hit] = reqs[i];
        const int64_t op = static_cast<int64_t>(i) * kServeClients + c;
        pass->queries.Add(ProbeQuery(probe, pool[index], &pass->tracer, op),
                          hit, exec_us, shared.oracles[index].cost);
      }
    }
    LayerValues& v = pass->layers;
    v.Set("server.rtt_us", AllSamples(pass->query_rounds).Median());
    v.Set("server.overhead_us", overhead.Median());
    v.Set("server.exec_us", exec.Median());
    v.Set("wire.encode_us", encode.Median());
    v.Set("wire.decode_us", decode.Median());
    v.Set("server.queue_depth_hwm", static_cast<double>(stats.queue_depth_hwm));
    v.Set("server.rejected", static_cast<double>(stats.rejected_overloaded));
    v.Set("server.timed_out", static_cast<double>(stats.timed_out));
    v.Set("server.protocol_errors",
          static_cast<double>(stats.protocol_errors));
  }
}

// ---------------------------------------------------------------------
// Composition.
// ---------------------------------------------------------------------

void RunPass(const RunConfig& cfg, bool traced, Pass* pass) {
  if (cfg.workload == "adhoc") {
    QueryWorkload w;
    w.db = DbSpec{"db4", 208, 616};  // the paper's DB4
    w.spare_setups = true;
    w.adhoc = true;
    w.paced = true;
    w.per_round = PerRound(cfg, 500, 50);
    RunQueryPass(w, cfg, traced, pass);
  } else if (cfg.workload == "scan") {
    QueryWorkload w;
    w.db = DbSpec{"scan", 40000, 60000};
    w.options.serve.threads = 4;
    w.options.serve.parallelism = 4;
    w.setups = 2;
    w.phases = 10;
    w.per_round = PerRound(cfg, 100, 50);
    RunQueryPass(w, cfg, traced, pass);
  } else if (cfg.workload == "churn") {
    RunChurnPass(cfg, traced, pass);
  } else if (cfg.workload == "serve") {
    RunServePass(cfg, traced, pass);
  } else {
    Die("unknown workload '" + cfg.workload +
        "' (expected adhoc, scan, churn or serve)");
  }
}

}  // namespace

RunResult RunWorkload(const RunConfig& cfg) {
  const Clock::time_point epoch = Clock::now();
  Pass untraced(epoch);
  RunPass(cfg, /*traced=*/false, &untraced);
  RunResult out;
  out.correct = untraced.correct;
  out.ledger.Merge(untraced.ledger);

  // Only churn's rounds grow in work (its store grows).
  const bool equal_work = cfg.workload != "churn";
  const Summary queries = Summarize(untraced.query_rounds, equal_work);
  const Summary ops = Summarize(untraced.op_rounds, equal_work);
  Note("samples query_p50=" + std::to_string(queries.samples) +
       " op_p50=" + std::to_string(ops.samples) +
       " setups=" + std::to_string(untraced.setup_s.size()) + " (" +
       (equal_work ? "quietest tenth of " : "all of ") +
       std::to_string(untraced.query_rounds.size()) + " rounds)");
  if (!cfg.trace) {
    out.Add("query_p50_us", queries.p50, "us");
    out.Add("queries_per_s", queries.per_s, "1/s");
    out.Add("op_p50_us", ops.p50, "us");
    out.Add("ops_per_s", ops.per_s, "1/s");
    out.Add("ok_ratio", untraced.ledger.ok_ratio(), "ratio");
    out.Add("setup_s", untraced.setup_s.Quantile(0.25), "s");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  Pass traced(epoch);
  RunPass(cfg, /*traced=*/true, &traced);
  out.correct = out.correct && traced.correct;
  out.ledger.Merge(traced.ledger);
  LayerValues& v = traced.layers;
  traced.queries.Fill(&v);
  // Tails of the untraced pass, over every sample of every round.
  for (const auto& [name, rounds] :
       {std::pair{"tail.query_p99_us", &untraced.query_rounds},
        std::pair{"tail.op_p99_us", &untraced.op_rounds}}) {
    const Dist all = AllSamples(*rounds);
    if (all.size() < 1000) Die("fewer than 1000 samples behind a p99");
    v.Set(name, all.Quantile(0.99));
  }
  v.Set("constraints.precompile_ms", traced.open_ms.Median());
  v.Set("storage.load_ms", traced.load_ms.Median());
  v.Set("persist.save_ms", traced.save_ms.Median());
  v.Set("server.start_ms", traced.start_ms.Median());

  // Attribution compares medians over every sample of each pass, the
  // basis the layer medians are taken on.
  const double query_median = AllSamples(untraced.query_rounds).Median();
  const double traced_query_median = AllSamples(traced.query_rounds).Median();
  if (cfg.workload == "serve") {
    // A request is the server-side Execute plus everything around it
    // (wire, queue, poll, socket).
    v.Set("unaccounted.request_us",
          query_median -
              (v.Get("server.overhead_us") + v.Get("server.exec_us")));
    v.Set("trace.overhead_request_us", traced_query_median - query_median);
  } else {
    if (!untraced.query_miss_us.empty() && traced.queries.size() > 0) {
      v.Set("unaccounted.query_miss_us",
            untraced.query_miss_us.Median() - traced.queries.MissPathUs());
    }
    if (!untraced.query_hit_us.empty() && traced.queries.size() > 0) {
      v.Set("unaccounted.query_hit_us",
            untraced.query_hit_us.Median() - traced.queries.HitPathUs());
    }
    v.Set("trace.overhead_query_us", traced_query_median - query_median);
  }
  if (cfg.workload == "churn") {
    const double commit_median = AllSamples(untraced.op_rounds).Median();
    v.Set("unaccounted.commit_us", commit_median - v.Get("commit.path_us"));
    v.Set("trace.overhead_commit_us",
          AllSamples(traced.op_rounds).Median() - commit_median);
  }
  ExportSpans(traced.tracer, cfg.spans_path);
  v.Emit(&out);
  return out;
}

}  // namespace perfbench
