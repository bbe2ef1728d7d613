// Per-layer attribution for the traced run. Query layers are timed by
// calling the engine's public entry points one layer at a time on a
// probe engine (same data, plan cache off): Parse, Analyze (parse +
// optimize), Prepare (parse + optimize + plan) and
// PreparedQuery::Execute; a layer's time is the difference between
// neighbouring calls, as the metric table in NOTES.md defines. Commit
// and server layers come from the program's own phase reports
// (ApplyOutcome, Response::exec_micros, ServerStats).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/engine.h"
#include "harness.h"

namespace perfbench {

// Every per-layer metric, in print order. A workload that does not
// exercise a layer reports 0 for its metrics (exec.parallel_speedup
// reports 1 when no plan ran a parallel phase).
struct LayerDef {
  const char* name;
  const char* unit;
};
inline constexpr LayerDef kLayerMetrics[] = {
    {"tail.query_p99_us", "us"},
    {"tail.op_p99_us", "us"},
    {"query.parse_us", "us"},
    {"sqo.optimize_us", "us"},
    {"sqo.transform_us", "us"},
    {"sqo.formulate_us", "us"},
    {"sqo.firings_per_query", "count"},
    {"sqo.relevant_constraints_per_query", "count"},
    {"sqo.elimination_share", "ratio"},
    {"sqo.contradiction_share", "ratio"},
    {"sqo.cost_ratio", "ratio"},
    {"exec.plan_us", "us"},
    {"exec.execute_us", "us"},
    {"exec.serial_us", "us"},
    {"exec.parallel_speedup", "ratio"},
    {"exec.scanned_per_row", "ratio"},
    {"exec.rows_out_per_query", "count"},
    {"exec.predicate_evals_per_query", "count"},
    {"exec.pointer_traversals_per_query", "count"},
    {"plan_cache.hit_ratio", "ratio"},
    {"plan_cache.evictions_per_query", "count"},
    {"plan_cache.invalidations", "count"},
    {"api.hit_overhead_us", "us"},
    {"storage.clone_us", "us"},
    {"persist.wal_write_us", "us"},
    {"persist.fsync_us", "us"},
    {"commit.other_us", "us"},
    {"constraints.checks_per_commit", "count"},
    {"cost.stats_drift", "ratio"},
    {"persist.wal_bytes_per_batch", "B"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.recover_ms", "ms"},
    {"persist.disk_mb", "MB"},
    {"constraints.precompile_ms", "ms"},
    {"storage.load_ms", "ms"},
    {"persist.save_ms", "ms"},
    {"server.start_ms", "ms"},
    {"server.rtt_us", "us"},
    {"server.overhead_us", "us"},
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"server.queue_depth_hwm", "count"},
    {"server.rejected", "count"},
    {"server.timed_out", "count"},
    {"server.protocol_errors", "count"},
    {"unaccounted.query_miss_us", "us"},
    {"unaccounted.query_hit_us", "us"},
    {"unaccounted.commit_us", "us"},
    {"unaccounted.request_us", "us"},
    {"trace.overhead_query_us", "us"},
    {"trace.overhead_commit_us", "us"},
    {"trace.overhead_request_us", "us"},
};

// Per-layer values by name; Emit() appends all of kLayerMetrics (other
// names may hold intermediate sums and are not emitted).
class LayerValues {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  void Emit(RunResult* out) const;

 private:
  std::map<std::string, double> values_;
};

// One query taken apart on the probe engine.
struct QueryProbe {
  double parse_us = 0;
  double analyze_us = 0;
  double prepare_us = 0;
  double execute_us = 0;
  sqopt::ExecutionMeter meter;  // from PreparedQuery::Execute
  size_t firings = 0;
  size_t relevant_constraints = 0;
  bool eliminated = false;
  bool contradiction = false;
  double transform_us = 0;
  double formulate_us = 0;
};

// Parse -> Analyze -> Prepare -> PreparedQuery::Execute of `text` on
// `probe` (an engine whose plan cache is off, so Prepare always plans),
// each call a child span of a "probe" root span for op `op`.
QueryProbe ProbeQuery(const sqopt::Engine& probe, const std::string& text,
                      Tracer* tracer, int64_t op);

// Accumulates query-layer samples over a traced pass.
class QueryLayers {
 public:
  // `real_us` is the traced Execute(text) on the serving engine (or the
  // server-side exec time for requests), `hit` whether it hit the plan
  // cache, `oracle_cost` the unoptimized meter's cost units.
  void Add(const QueryProbe& probe, bool hit, double real_us,
           double oracle_cost);
  void SetCacheDelta(uint64_t evictions, uint64_t invalidations) {
    evictions_ = evictions;
    invalidations_ = invalidations;
  }
  // Sum of layer medians along each path, over the ops that took it: a
  // miss parses, optimizes, plans and executes; a hit looks the plan up
  // and executes.
  double MissPathUs() const;
  double HitPathUs() const;
  void Fill(LayerValues* values) const;
  size_t size() const { return samples_.size(); }

 private:
  struct Sample {
    QueryProbe probe;
    bool hit = false;
    double real_us = 0;
  };
  // Median over the samples `keep` selects of the value `get` computes.
  template <typename Keep, typename Get>
  double Median(Keep keep, Get get) const {
    Dist d;
    for (const Sample& s : samples_) {
      if (keep(s)) d.Add(get(s));
    }
    return d.Median();
  }

  std::vector<Sample> samples_;
  double cost_opt_ = 0, cost_unopt_ = 0;
  uint64_t evictions_ = 0, invalidations_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
