#include "layers.h"

namespace perfbench {

void LayerValues::Emit(RunResult* out) const {
  for (const LayerDef& def : kLayerMetrics) {
    auto it = values_.find(def.name);
    double value = it == values_.end() ? 0.0 : it->second;
    if (it == values_.end() &&
        std::string(def.name) == "exec.parallel_speedup") {
      value = 1.0;
    }
    out->Add(def.name, value, def.unit);
  }
}

QueryProbe ProbeQuery(const sqopt::Engine& probe, const std::string& text,
                      Tracer* tracer, int64_t op) {
  QueryProbe p;
  // One untimed optimization first, so Analyze and Prepare below both
  // run it warm and their difference is the planning step alone.
  Must(probe.Analyze(text), "probe Analyze (warm-up)");
  ScopedSpan root(tracer, "probe", op, -1);
  {
    ScopedSpan s(tracer, "query.parse", op, root.id());
    Must(probe.Parse(text), "probe Parse");
    p.parse_us = s.Stop();
  }
  {
    ScopedSpan s(tracer, "sqo.analyze", op, root.id());
    sqopt::QueryOutcome analyzed = Must(probe.Analyze(text), "probe Analyze");
    p.analyze_us = s.Stop();
    const sqopt::OptimizationReport& r = analyzed.report;
    p.firings = r.num_firings;
    p.relevant_constraints = r.num_relevant_constraints;
    p.eliminated = !r.eliminated_classes.empty();
    p.contradiction = r.empty_result;
    p.transform_us = static_cast<double>(r.transform_ns) / 1e3;
    p.formulate_us = static_cast<double>(r.formulate_ns) / 1e3;
  }
  sqopt::PreparedQuery prepared;
  {
    ScopedSpan s(tracer, "exec.prepare", op, root.id());
    prepared = Must(probe.Prepare(text), "probe Prepare");
    p.prepare_us = s.Stop();
  }
  {
    ScopedSpan s(tracer, "exec.execute", op, root.id());
    sqopt::QueryOutcome executed =
        Must(prepared.Execute(), "probe PreparedQuery::Execute");
    p.execute_us = s.Stop();
    p.meter = executed.meter;
  }
  return p;
}

void QueryLayers::Add(const QueryProbe& p, bool hit, double real_us,
                      double oracle_cost) {
  samples_.push_back({p, hit, real_us});
  cost_opt_ += p.meter.CostUnits();
  cost_unopt_ += oracle_cost;
}

namespace {
double Parse(const QueryProbe& p) { return p.parse_us; }
double Optimize(const QueryProbe& p) { return p.analyze_us - p.parse_us; }
double Plan(const QueryProbe& p) { return p.prepare_us - p.analyze_us; }
double Execute(const QueryProbe& p) { return p.execute_us; }
// A hit's cost above executing its plan: lookup, alias, result wrap.
double HitOverhead(const QueryProbe& p, double real_us) {
  return real_us - p.execute_us;
}
}  // namespace

double QueryLayers::MissPathUs() const {
  auto miss = [](const Sample& s) { return !s.hit; };
  return Median(miss, [](const Sample& s) { return Parse(s.probe); }) +
         Median(miss, [](const Sample& s) { return Optimize(s.probe); }) +
         Median(miss, [](const Sample& s) { return Plan(s.probe); }) +
         Median(miss, [](const Sample& s) { return Execute(s.probe); });
}

double QueryLayers::HitPathUs() const {
  auto hit = [](const Sample& s) { return s.hit; };
  auto overhead = [](const Sample& s) {
    return HitOverhead(s.probe, s.real_us);
  };
  return Median(hit, overhead) +
         Median(hit, [](const Sample& s) { return Execute(s.probe); });
}

void QueryLayers::Fill(LayerValues* v) const {
  if (samples_.empty()) return;
  auto all = [](const Sample&) { return true; };
  double hits = 0, firings = 0, relevant = 0, eliminated = 0,
         contradictions = 0, scanned = 0, rows = 0, evals = 0,
         traversals = 0;
  Dist speedup;
  for (const Sample& s : samples_) {
    const QueryProbe& p = s.probe;
    hits += s.hit ? 1 : 0;
    firings += static_cast<double>(p.firings);
    relevant += static_cast<double>(p.relevant_constraints);
    eliminated += p.eliminated ? 1 : 0;
    contradictions += p.contradiction ? 1 : 0;
    scanned += static_cast<double>(p.meter.instances_scanned);
    rows += static_cast<double>(p.meter.rows_out);
    evals += static_cast<double>(p.meter.predicate_evals);
    traversals += static_cast<double>(p.meter.pointer_traversals);
    if (p.meter.parallel_wall_micros > 0) {
      speedup.Add(p.meter.ParallelSpeedup());
    }
  }
  const double n = static_cast<double>(samples_.size());
  v->Set("query.parse_us",
         Median(all, [](const Sample& s) { return Parse(s.probe); }));
  v->Set("sqo.optimize_us",
         Median(all, [](const Sample& s) { return Optimize(s.probe); }));
  v->Set("sqo.transform_us",
         Median(all, [](const Sample& s) { return s.probe.transform_us; }));
  v->Set("sqo.formulate_us",
         Median(all, [](const Sample& s) { return s.probe.formulate_us; }));
  v->Set("sqo.firings_per_query", firings / n);
  v->Set("sqo.relevant_constraints_per_query", relevant / n);
  v->Set("sqo.elimination_share", eliminated / n);
  v->Set("sqo.contradiction_share", contradictions / n);
  v->Set("sqo.cost_ratio", cost_unopt_ > 0 ? cost_opt_ / cost_unopt_ : 0.0);
  v->Set("exec.plan_us",
         Median(all, [](const Sample& s) { return Plan(s.probe); }));
  v->Set("exec.execute_us",
         Median(all, [](const Sample& s) { return Execute(s.probe); }));
  v->Set("exec.serial_us", Median(all, [](const Sample& s) {
           return s.probe.execute_us -
                  static_cast<double>(s.probe.meter.parallel_wall_micros);
         }));
  if (!speedup.empty()) v->Set("exec.parallel_speedup", speedup.Median());
  v->Set("exec.scanned_per_row", rows > 0 ? scanned / rows : 0.0);
  v->Set("exec.rows_out_per_query", rows / n);
  v->Set("exec.predicate_evals_per_query", evals / n);
  v->Set("exec.pointer_traversals_per_query", traversals / n);
  v->Set("plan_cache.hit_ratio", hits / n);
  v->Set("plan_cache.evictions_per_query",
         static_cast<double>(evictions_) / n);
  v->Set("plan_cache.invalidations", static_cast<double>(invalidations_));
  if (hits > 0) {
    v->Set("api.hit_overhead_us",
           Median([](const Sample& s) { return s.hit; },
                  [](const Sample& s) {
                    return HitOverhead(s.probe, s.real_us);
                  }));
  }
}

}  // namespace perfbench
