// Durability bench: what persistence costs on the write path and what
// it buys on startup. Measures (1) commit latency through Engine::Apply
// with the WAL fsync on vs off, split into clone/apply/WAL/fsync phases from
// the per-commit ApplyOutcome timers, (2) Checkpoint time (fold the log
// into a fresh snapshot), and (3) cold-open time — Engine::Open(dir) on a
// checkpointed 40k-row database, which deserializes the precompiled
// catalog, extents, indexes, and statistics — against the full re-Load
// path (constraint closure precompilation + data generation + stats
// collection) it replaces. Verifies before reporting that the engine
// reopened after the fsync-on commits answers the query pool identically
// to the loaded one that made them, and that the cold-opened checkpoint
// answers identically to the engine that wrote it. Emits
// BENCH_durability.json for the bench-smoke CI regression gate.
//
// Flags:
//   --quick        fewer commits/checkpoints (CI smoke mode; same DB)
//   --commits=N    commit-latency sample count per fsync mode
//   --out=PATH     JSON output path (default BENCH_durability.json)
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "workload/mutation_script.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             Clock::now() - start)
      .count();
}

// Mean per-commit cost of `n` small (4-update) batches, split into the
// phases the engine reports per commit: snapshot clone, apply +
// validate, WAL encode + write (fsync excluded), and the fsync itself.
// `total_us` is the caller-observed wall clock per Apply.
struct CommitTiming {
  double total_us = 0;
  double clone_us = 0;
  double apply_us = 0;
  double wal_us = 0;    // Append minus fsync
  double fsync_us = 0;  // fsync() alone; 0 with the flush off
};

CommitTiming MeasureCommits(sqopt::Engine* engine, int n, uint64_t seed) {
  using namespace sqopt;
  const Schema& schema = engine->schema();
  const ClassId supplier = schema.FindClass("supplier");
  const AttrRef rating = schema.ResolveQualified("supplier.rating").value();
  const int64_t rows = engine->store()->NumLiveObjects(supplier);
  Rng rng(seed);
  uint64_t clone = 0, apply = 0, wal = 0, fsync = 0;
  const auto start = Clock::now();
  for (int i = 0; i < n; ++i) {
    MutationBatch batch;
    for (int j = 0; j < 4; ++j) {
      int64_t row = rng.UniformInt(0, rows - 1);
      int seg = SegmentOfRow(row);
      batch.Update(supplier, row, rating.attr_id,
                   Value::Int(seg == 0 ? rng.UniformInt(8, 10)
                                       : rng.UniformInt(1, 7)));
    }
    ApplyOutcome out = bench::Unwrap(engine->Apply(batch));
    clone += out.clone_micros;
    apply += out.apply_micros;
    wal += out.wal_micros - out.fsync_micros;
    fsync += out.fsync_micros;
  }
  CommitTiming t;
  t.total_us = MsSince(start) * 1000.0 / n;
  t.clone_us = static_cast<double>(clone) / n;
  t.apply_us = static_cast<double>(apply) / n;
  t.wal_us = static_cast<double>(wal) / n;
  t.fsync_us = static_cast<double>(fsync) / n;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqopt;
  using bench::BenchJson;
  using bench::Check;
  using bench::Unwrap;

  bool quick = false;
  int commits = 0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--commits=", 10) == 0) {
      commits = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  // 5 classes x 8000 = 40k rows — the acceptance-scale database; quick
  // mode trims only the repetition counts.
  const DbSpec spec{"durability", 8000, 12000};
  if (commits <= 0) commits = quick ? 24 : 96;
  constexpr uint64_t kSeed = 20260729;
  const std::string dir =
      (fs::temp_directory_path() /
       ("sqopt_bench_durability_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);

  std::printf("=== Durability (%lld-row DB, %d commits/mode) ===\n",
              static_cast<long long>(spec.class_cardinality * 5), commits);

  // Full re-Load path: what every restart pays WITHOUT persistence —
  // rebuild the catalog (closure precompilation), regenerate the data,
  // recollect statistics + histograms.
  const auto load_start = Clock::now();
  Engine engine = bench::OpenExperimentEngine();
  Check(engine.Load(DataSource::Generated(spec, kSeed)));
  const double load_ms = MsSince(load_start);

  const auto save_start = Clock::now();
  Check(engine.Save(dir));
  const double save_ms = MsSince(save_start);

  // Commit latency, fsync on (the default DurabilityOptions).
  const CommitTiming fsync_on = MeasureCommits(&engine, commits, kSeed);

  // Same stream with the WAL flush off: durability is fixed at Open,
  // so reopen the same directory under that knob. The loaded engine is
  // the ground truth for Save plus replay of the fsync-on log: record
  // what it answers, then check the reopened engine against it.
  int identical = 1;
  {
    const uint64_t version = engine.data_version();
    const size_t derived = engine.catalog().num_derived();
    std::vector<ResultSet> answers;
    for (const std::string& text : MutationScript::QueryPool()) {
      answers.push_back(Unwrap(engine.Execute(text)).rows);
    }
    EngineOptions no_fsync;
    no_fsync.serve.durability.fsync = false;
    engine = Unwrap(Engine::Open(dir, no_fsync));
    if (engine.data_version() != version ||
        engine.catalog().num_derived() != derived) {
      identical = 0;
    }
    size_t i = 0;
    for (const std::string& text : MutationScript::QueryPool()) {
      QueryOutcome b = Unwrap(engine.Execute(text));
      if (!answers[i++].SameDistinctRows(b.rows)) identical = 0;
    }
  }
  const CommitTiming fsync_off =
      MeasureCommits(&engine, commits, kSeed ^ 0xF);

  // Checkpoint: fold the log (2 * commits records) into a new snapshot.
  const auto ckpt_start = Clock::now();
  Check(engine.Checkpoint());
  const double checkpoint_ms = MsSince(ckpt_start);

  // Cold open of the checkpointed directory.
  const auto open_start = Clock::now();
  Engine reopened = Unwrap(Engine::Open(dir));
  const double cold_open_ms = MsSince(open_start);

  // Correctness gate before any number leaves this process: identical
  // catalog size, versions, and query answers, after the reopen above
  // and again after Checkpoint plus a cold open.
  if (reopened.data_version() != engine.data_version() ||
      reopened.catalog().num_derived() != engine.catalog().num_derived()) {
    identical = 0;
  }
  for (const std::string& text : MutationScript::QueryPool()) {
    QueryOutcome a = Unwrap(engine.Execute(text));
    QueryOutcome b = Unwrap(reopened.Execute(text));
    if (!a.rows.SameDistinctRows(b.rows)) identical = 0;
  }

  const double open_speedup = cold_open_ms > 0 ? load_ms / cold_open_ms : 0;
  std::printf(
      "load %.0f ms, save %.0f ms, cold open %.0f ms (%.1fx faster than "
      "re-Load), checkpoint %.0f ms\n"
      "commit %.0f us total (fsync on: clone %.0f + apply %.0f + wal %.0f + "
      "fsync %.0f) / %.0f us (no fsync), identical=%d\n",
      load_ms, save_ms, cold_open_ms, open_speedup, checkpoint_ms,
      fsync_on.total_us, fsync_on.clone_us, fsync_on.apply_us,
      fsync_on.wal_us, fsync_on.fsync_us, fsync_off.total_us, identical);
  fs::remove_all(dir);

  BenchJson json("durability");
  json.Set("quick", quick);
  json.Set("db_rows", spec.class_cardinality * 5);
  json.Set("commits_per_mode", commits);
  json.Set("load_ms", load_ms);
  json.Set("save_ms", save_ms);
  json.Set("cold_open_ms", cold_open_ms);
  json.Set("open_speedup", open_speedup);
  json.Set("checkpoint_ms", checkpoint_ms);
  // Phase split of the fsync-on commit (totals stay for the gate):
  // clone = delta COW snapshot, apply = the ops plus their constraint
  // validation on the clone, wal = record encode + write, fsync = the
  // flush itself.
  json.Set("commit_fsync_us", fsync_on.total_us);
  json.Set("commit_clone_us", fsync_on.clone_us);
  json.Set("commit_apply_us", fsync_on.apply_us);
  json.Set("commit_wal_us", fsync_on.wal_us);
  json.Set("commit_sync_us", fsync_on.fsync_us);
  json.Set("commit_nofsync_us", fsync_off.total_us);
  json.Set("identical", identical);
  json.Set("final_version", engine.data_version());
  json.Write(out_path);
  return identical == 1 ? 0 : 1;
}
