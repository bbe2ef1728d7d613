// Mixed read/write workload through the Engine facade: rounds of
// concurrent Execute traffic interleaved with transactional commits
// submitted through ApplyGroup — four batches per commit group
// (segment-consistent updates, world inserts, occasional in-group
// rejected writes), measuring read throughput while the store churns,
// group-commit throughput, and how well the plan cache survives
// threshold-gated epoching. commits_per_sec counts SUCCESSFUL batches
// over the write-phase wall clock, so it prices the whole group
// protocol (one WAL append + one fsync + one snapshot per group).
// Emits BENCH_mixed.json for the bench-smoke CI regression gate.
//
// Flags:
//   --quick        smaller DB + fewer rounds (CI smoke mode)
//   --threads=N    caller threads running each round's reads (default 4)
//   --rounds=N     mutate+serve rounds
//   --out=PATH     JSON output path (default BENCH_mixed.json)
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/rng.h"

int main(int argc, char** argv) {
  using namespace sqopt;
  using bench::BenchJson;
  using bench::Check;
  using bench::Unwrap;

  bool quick = false;
  int threads = 4;
  int rounds = 0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      rounds = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  const DbSpec spec = quick ? DbSpec{"mixed", 104, 154}
                            : DbSpec{"mixed", 416, 616};
  if (threads < 1) {
    std::fprintf(stderr, "--threads must be at least 1\n");
    return 2;
  }
  if (rounds <= 0) rounds = quick ? 60 : 240;
  constexpr uint64_t kSeed = 20260729;

  Engine engine = bench::OpenExperimentEngine();
  Check(engine.Load(DataSource::Generated(spec, kSeed)));
  const Schema& schema = engine.schema();
  const ClassId supplier = schema.FindClass("supplier");
  const ClassId cargo = schema.FindClass("cargo");
  const AttrRef rating = schema.ResolveQualified("supplier.rating").value();
  const AttrRef weight = schema.ResolveQualified("cargo.weight").value();

  // The read stream: the serving bench's query shapes.
  const std::vector<std::string> pool = {
      "{supplier.name} {} {supplier.rating >= 8} {} {supplier}",
      "{cargo.code} {} {cargo.weight <= 40} {} {cargo}",
      "{supplier.name, cargo.code} {} {cargo.desc = \"frozen food\"} "
      "{supplies} {supplier, cargo}",
      "{cargo.code, vehicle.vehicleNo} {} "
      "{vehicle.desc = \"refrigerated truck\"} {collects} {cargo, vehicle}",
  };
  std::vector<std::string> stream;
  const size_t per_round = quick ? 24 : 64;
  for (size_t i = 0; i < per_round; ++i) {
    stream.push_back(pool[i % pool.size()]);
  }

  Rng rng(kSeed);
  uint64_t read_micros = 0, write_micros = 0;
  uint64_t reads = 0, commits = 0, rejects = 0, cache_hits = 0;
  uint64_t invalidations = 0;
  int64_t next_ordinal = 0;

  std::printf("=== Mixed workload (%lld rows, %d rounds, %d threads) ===\n",
              static_cast<long long>(spec.class_cardinality), rounds,
              threads);
  const auto bench_start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    // Writes: four small segment-consistent batches submitted as ONE
    // commit group (a deterministic stand-in for four concurrent
    // writers — one WAL append, one fsync, one published snapshot for
    // the whole group). A world insert rides in the first batch every
    // 8th round, and every 16th round a doomed batch joins the group
    // to prove a violation is rejected in-group without poisoning the
    // other members.
    std::vector<MutationBatch> group(4);
    for (size_t b = 0; b < 4; ++b) {
      for (int i = 0; i < 4; ++i) {
        int64_t row = rng.UniformInt(0, spec.class_cardinality - 1);
        int seg = SegmentOfRow(row);
        if (i % 2 == 0) {
          group[b].Update(supplier, row, rating.attr_id,
                          Value::Int(seg == 0 ? rng.UniformInt(8, 10)
                                              : rng.UniformInt(1, 7)));
        } else {
          group[b].Update(cargo, row, weight.attr_id,
                          Value::Int(seg == 0 ? rng.UniformInt(10, 40)
                                              : rng.UniformInt(41, 100)));
        }
      }
    }
    if (round % 8 == 0) {
      int seg = static_cast<int>(rng.Index(kNumSegments));
      std::vector<int64_t> handle(schema.num_classes(), -1);
      for (const ObjectClass& oc : schema.classes()) {
        handle[oc.id] = group[0].Insert(
            oc.id, Unwrap(MakeSegmentObject(schema, oc.id, seg,
                                            next_ordinal)));
      }
      ++next_ordinal;
      for (const Relationship& rel : schema.relationships()) {
        group[0].Link(rel.id, handle[rel.a], handle[rel.b]);
      }
    }
    size_t doomed_index = group.size();
    if (round % 16 == 0) {
      // Segment-1 supplier rating 9 violates i1; must be rejected
      // in-group while its groupmates commit.
      MutationBatch doomed;
      int64_t row = 1 + 4 * rng.UniformInt(0, spec.class_cardinality / 8);
      doomed.Update(supplier, row, rating.attr_id, Value::Int(9));
      doomed_index = group.size();
      group.push_back(std::move(doomed));
    }
    auto write_start = std::chrono::steady_clock::now();
    std::vector<Result<ApplyOutcome>> results = engine.ApplyGroup(group);
    write_micros += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - write_start)
            .count());
    bool invalidated = false;
    for (size_t b = 0; b < results.size(); ++b) {
      if (b == doomed_index) {
        if (results[b].ok() || results[b].status().code() !=
                                   StatusCode::kConstraintViolation) {
          std::fprintf(stderr,
                       "mixed bench: violating write was not rejected\n");
          return 1;
        }
        ++rejects;
        continue;
      }
      ApplyOutcome applied = Unwrap(std::move(results[b]));
      ++commits;
      if (applied.plan_cache_invalidated) invalidated = true;
    }
    if (invalidated) ++invalidations;

    // Reads: the stream split into strided slices, one per caller
    // thread, all sharing the engine's plan cache.
    std::atomic<uint64_t> failed{0}, hits{0};
    auto read_start = std::chrono::steady_clock::now();
    std::vector<std::thread> readers;
    for (int t = 0; t < threads; ++t) {
      readers.emplace_back([&, t] {
        for (size_t i = t; i < stream.size(); i += threads) {
          Result<QueryOutcome> out = engine.Execute(stream[i]);
          if (!out.ok()) {
            failed.fetch_add(1, std::memory_order_relaxed);
          } else if (out->plan_cache_hit) {
            hits.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& reader : readers) reader.join();
    read_micros += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - read_start)
            .count());
    if (failed.load() != 0) {
      std::fprintf(stderr, "mixed bench: %llu queries failed\n",
                   static_cast<unsigned long long>(failed.load()));
      return 1;
    }
    reads += stream.size();
    cache_hits += hits.load();
  }
  const double total_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - bench_start)
          .count();

  const double read_qps =
      read_micros > 0 ? 1e6 * static_cast<double>(reads) /
                            static_cast<double>(read_micros)
                      : 0.0;
  const double commits_per_s =
      write_micros > 0 ? 1e6 * static_cast<double>(commits) /
                             static_cast<double>(write_micros)
                       : 0.0;
  const double hit_rate =
      reads > 0 ? static_cast<double>(cache_hits) /
                      static_cast<double>(reads)
                : 0.0;
  std::printf(
      "%llu reads (%.0f qps while mutating), %llu commits (%.0f/s), "
      "%llu rejected, cache hit rate %.3f, %.1fs total\n",
      static_cast<unsigned long long>(reads), read_qps,
      static_cast<unsigned long long>(commits), commits_per_s,
      static_cast<unsigned long long>(rejects), hit_rate, total_s);

  BenchJson json("mixed");
  json.Set("quick", quick);
  json.Set("db_rows", spec.class_cardinality);
  json.Set("rounds", rounds);
  json.Set("threads", threads);
  json.Set("queries", reads);
  json.Set("commits", commits);
  json.Set("rejected", rejects);
  json.Set("read_qps", read_qps);
  json.Set("commits_per_sec", commits_per_s);
  json.Set("cache_hit_rate", hit_rate);
  json.Set("replan_invalidations", invalidations);
  json.Set("final_version", engine.data_version());
  json.Write(out_path);
  return 0;
}
