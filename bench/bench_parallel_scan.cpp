// Morsel-driven parallel scan: one heavy scan query (full extent scan
// on a non-indexed predicate, expanded across one relationship)
// executed at parallelism 1 / 2 / 4 / 8 over a large generated
// database, through the Engine facade, on one engine per degree (the
// parallelism ceiling is fixed at Engine::Open). Measures the intra-query
// speedup the morsel fan-out buys and verifies byte-identical results
// (rows AND order) across every degree. Emits the machine-readable
// BENCH_scan.json consumed by the bench-smoke CI regression gate.
//
// Flags:
//   --quick        smaller DB + fewer reps (CI smoke mode)
//   --threads=N    worker-pool threads (default 8)
//   --reps=N       timed executions per parallelism degree
//   --out=PATH     JSON output path (default BENCH_scan.json)
//   --force-all    time every leg even beyond hardware_concurrency
//
// Parallelism legs above std::thread::hardware_concurrency() are
// SKIPPED (they cannot speed anything up on this machine and their
// numbers would only mislead): the leg's fields are emitted with the
// sequential leg's values for schema stability, and the skipped
// metrics are named in "skipped_metrics" so the regression gate
// ignores them on small runners.
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace sqopt;
  using bench::BenchJson;
  using bench::Check;
  using bench::Unwrap;

  bool quick = false;
  bool force_all = false;
  int threads = 8;
  int reps = 0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--force-all") == 0) {
      force_all = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  const DbSpec spec = quick ? DbSpec{"scan", 8000, 12000}
                            : DbSpec{"scan", 40000, 60000};
  if (reps <= 0) reps = quick ? 10 : 30;
  // ~32 morsels whatever the DB size, so every degree up to 8 has work.
  const int64_t morsel_size =
      std::max<int64_t>(512, spec.class_cardinality / 32);
  constexpr uint64_t kSeed = 20260728;

  // No constraints: this bench isolates the scan path; semantic
  // rewrites are someone else's benchmark. Every engine loads the same
  // deterministic database.
  auto open_engine = [&](int parallelism) {
    EngineOptions options;
    options.serve.threads = threads;
    options.serve.parallelism = parallelism;
    options.serve.morsel_size = morsel_size;
    Engine engine = Unwrap(Engine::Open(SchemaSource::Experiment(),
                                        ConstraintSource::None(), options));
    Check(engine.Load(DataSource::Generated(spec, kSeed)));
    return engine;
  };
  std::printf("generating %lld-row database...\n",
              static_cast<long long>(spec.class_cardinality));

  // Full extent scan (quantity is not indexed) + one pointer-join
  // expansion: the shape the morsel pipeline parallelizes end to end.
  const std::string query_text =
      "{cargo.code, vehicle.vehicleNo} {} {cargo.weight <= 40} "
      "{collects} {cargo, vehicle}";

  // Single-thread filtered-scan leg: the same non-indexed interval
  // predicate with no join, so the measured rate is the batch filter's
  // raw rows/sec through one core (the vectorized-kernel gate metric,
  // independent of runner core count).
  double scan_rows_per_sec = 0.0;
  {
    const std::string scan_only =
        "{cargo.code} {} {cargo.weight <= 40} {} {cargo}";
    const Engine engine = open_engine(1);
    QueryOutcome warm = Unwrap(engine.Execute(scan_only));
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      QueryOutcome out = Unwrap(engine.Execute(scan_only));
      (void)out;
    }
    const double wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - start)
            .count();
    const double rows_per_sec =
        wall_ms > 0 ? 1000.0 * reps * spec.class_cardinality / wall_ms : 0.0;
    std::printf(
        "filtered scan (no join, 1 thread): %6.2f ms/query  %.3g rows/sec  "
        "%llu rows out\n",
        wall_ms / reps, rows_per_sec,
        static_cast<unsigned long long>(warm.meter.rows_out));
    scan_rows_per_sec = rows_per_sec;
  }

  std::printf("=== Parallel scan (%lld rows, %d reps, %d pool threads) ===\n",
              static_cast<long long>(spec.class_cardinality), reps,
              threads);

  struct DegreeResult {
    int parallelism = 0;
    double wall_ms = 0.0;
    uint64_t rows = 0;
    uint64_t morsels = 0;
    uint64_t workers = 0;
    double meter_speedup = 0.0;
    bool skipped = false;
  };
  std::vector<DegreeResult> degrees;
  std::vector<std::string> baseline_keys;
  const unsigned hw_threads =
      std::max(1u, std::thread::hardware_concurrency());

  for (int parallelism : {1, 2, 4, 8}) {
    // On runners with >= 4 cores every leg is timed, even degrees above
    // hardware_concurrency: 8 software threads on 4 real cores still
    // overlap to a genuine ~4x, and the CI gate holds speedup_p8 there
    // (gate.json marks it min_cores: 4). Only 1-2 core machines skip
    // over-subscribed legs — a timed run there would just report noise
    // around 1.00x.
    if (!force_all && hw_threads < 4 &&
        parallelism > static_cast<int>(hw_threads)) {
      std::printf("parallelism %d: skipped (hardware_concurrency=%u)\n",
                  parallelism, hw_threads);
      DegreeResult result;
      result.parallelism = parallelism;
      result.skipped = true;
      degrees.push_back(result);
      continue;
    }
    const Engine engine = open_engine(parallelism);

    // Untimed warm-up: plan once into the cache, fault in the data.
    QueryOutcome warm = Unwrap(engine.Execute(query_text));
    std::vector<std::string> keys;
    keys.reserve(warm.rows.rows.size());
    for (const auto& row : warm.rows.rows) {
      std::string k;
      for (const Value& v : row) {
        k += v.ToString();
        k += '|';
      }
      keys.push_back(std::move(k));
    }
    if (parallelism == 1) {
      baseline_keys = std::move(keys);
    } else if (keys != baseline_keys) {
      std::fprintf(stderr,
                   "parallel scan bench: parallelism %d changed the "
                   "result (rows or order)\n",
                   parallelism);
      return 1;
    }

    DegreeResult result;
    result.parallelism = parallelism;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      QueryOutcome out = Unwrap(engine.Execute(query_text));
      result.rows = out.meter.rows_out;
      result.morsels = out.meter.morsels;
      result.workers = out.meter.morsel_workers;
      result.meter_speedup = out.meter.ParallelSpeedup();
    }
    result.wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - start)
            .count();
    std::printf("parallelism %d: %8.1f ms total  %7.2f ms/query  "
                "%llu rows  %llu morsels  %llu workers  busy/wall %.2fx\n",
                parallelism, result.wall_ms, result.wall_ms / reps,
                static_cast<unsigned long long>(result.rows),
                static_cast<unsigned long long>(result.morsels),
                static_cast<unsigned long long>(result.workers),
                result.meter_speedup);
    degrees.push_back(result);
  }

  const double wall_p1 = degrees[0].wall_ms;
  // Skipped legs inherit the sequential leg's measurements (that IS
  // what would run at that setting on this machine) so the emission
  // schema never depends on the runner's core count; the gate skips
  // their metrics by name.
  std::string skipped_metrics;
  for (DegreeResult& d : degrees) {
    if (!d.skipped) continue;
    const std::string suffix = "_p" + std::to_string(d.parallelism);
    d.wall_ms = wall_p1;
    d.rows = degrees[0].rows;
    d.morsels = degrees[0].morsels;
    d.workers = degrees[0].workers;
    for (const char* metric : {"wall_ms", "qps", "speedup"}) {
      if (!skipped_metrics.empty()) skipped_metrics += ",";
      skipped_metrics += metric + suffix;
    }
  }

  BenchJson json("scan");
  json.Set("quick", quick);
  json.Set("db_rows", spec.class_cardinality);
  json.Set("reps", reps);
  json.Set("threads", threads);
  json.Set("hw_threads", hw_threads);
  json.Set("morsel_size", morsel_size);
  json.Set("rows_out", degrees[0].rows);
  json.Set("scan_rows_per_sec", scan_rows_per_sec);
  for (const DegreeResult& d : degrees) {
    const std::string suffix = "_p" + std::to_string(d.parallelism);
    json.Set("wall_ms" + suffix, d.wall_ms);
    json.Set("qps" + suffix,
             d.wall_ms > 0 ? 1000.0 * reps / d.wall_ms : 0.0);
    if (d.parallelism > 1) {
      json.Set("speedup" + suffix,
               d.skipped ? 1.0
                         : (d.wall_ms > 0 ? wall_p1 / d.wall_ms : 0.0));
      json.Set("skipped" + suffix, d.skipped);
    }
  }
  json.Set("morsels_p8", degrees.back().morsels);
  json.Set("workers_p8", degrees.back().workers);
  json.Set("meter_speedup_p8", degrees.back().meter_speedup);
  if (degrees.back().skipped) {
    for (const char* metric :
         {"morsels_p8", "workers_p8", "meter_speedup_p8"}) {
      if (!skipped_metrics.empty()) skipped_metrics += ",";
      skipped_metrics += metric;
    }
  }
  json.Set("skipped_metrics", skipped_metrics);
  if (degrees.back().skipped) {
    std::printf("speedup at 8 threads: skipped (%u cores)\n", hw_threads);
  } else {
    const double speedup_8 =
        degrees.back().wall_ms > 0 ? wall_p1 / degrees.back().wall_ms : 0.0;
    std::printf("speedup at 8 threads: %.2fx\n", speedup_8);
  }
  json.Write(out_path);
  return 0;
}
