#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <utility>

#include "exec/batch_filter.h"
#include "exec/plan_builder.h"
#include "storage/morsel.h"

namespace sqopt {

double ExecutionMeter::CostUnits() const {
  double pages = static_cast<double>(instances_scanned) / kPageInstances;
  if (instances_scanned > 0 && pages < 1.0) pages = 1.0;
  return pages + kCpuWeight * static_cast<double>(predicate_evals) +
         kProbeWeight *
             static_cast<double>(index_probes + pointer_traversals) +
         kOutputWeight * static_cast<double>(rows_out);
}

double ExecutionMeter::ParallelSpeedup() const {
  if (parallel_wall_micros == 0) return 0.0;
  return static_cast<double>(parallel_busy_micros) /
         static_cast<double>(parallel_wall_micros);
}

namespace {

std::string RowKey(const std::vector<Value>& row) {
  std::string k;
  for (const Value& v : row) {
    k += v.ToString();
    k += '\x1f';
  }
  return k;
}

}  // namespace

bool ResultSet::SameRows(const ResultSet& other) const {
  if (rows.size() != other.rows.size()) return false;
  std::multiset<std::string> a, b;
  for (const auto& row : rows) a.insert(RowKey(row));
  for (const auto& row : other.rows) b.insert(RowKey(row));
  return a == b;
}

bool ResultSet::SameDistinctRows(const ResultSet& other) const {
  std::set<std::string> a, b;
  for (const auto& row : rows) a.insert(RowKey(row));
  for (const auto& row : other.rows) b.insert(RowKey(row));
  return a == b;
}

namespace {

// The flat pipeline. A stage-s tuple is s + 1 row ids laid out
// contiguously, tuple[k] being the row bound by plan step k; a stage's
// tuples live in one std::vector<int64_t>. Every attribute a predicate
// or the projection reads is resolved to (step, extent, slot) once per
// plan, so no stage touches a class-indexed binding, allocates per row,
// or looks up a slot per cell.
struct AttrSlot {
  size_t step = 0;
  const Extent* extent = nullptr;
  int slot = -1;  // -1: the attribute is not in the extent (reads null)

  const Value& Read(const int64_t* tuple, Value* scratch) const {
    return extent->ValueRefAtSlot(tuple[step], slot, scratch);
  }
};

struct CompiledPredicate {
  const Predicate* pred = nullptr;
  AttrSlot lhs;
  AttrSlot rhs;  // attr-attr predicates only
};

// A cycle-closing relationship, checked once both endpoints are bound.
struct CycleCheck {
  RelId rel = kInvalidRel;
  ClassId a = kInvalidClass;
  size_t a_step = 0;
  size_t b_step = 0;
};

struct Stage {
  // Expansion steps: the relationship followed from step `from`.
  RelId via_rel = kInvalidRel;
  ClassId from_class = kInvalidClass;
  size_t from = 0;
  // Expansion steps only: the step's residual conjuncts (the driving
  // step's run in the batch filter).
  std::vector<CompiledPredicate> residuals;
  // Join predicates and cycles that become checkable at this step:
  // both ends bound, and not checkable earlier.
  std::vector<CompiledPredicate> joins;
  std::vector<CycleCheck> cycles;
};

// Immutable once built; shared by every morsel.
struct Pipeline {
  std::vector<Stage> stages;  // parallel to plan.steps
  std::vector<AttrSlot> projection;
};

Result<Pipeline> BuildPipeline(const ObjectStore& store, const Plan& plan) {
  const Schema& schema = store.schema();
  std::vector<int> step_of(schema.num_classes(), -1);
  Pipeline pipe;
  pipe.stages.resize(plan.steps.size());

  auto known = [&](ClassId id) {
    return id >= 0 && id < static_cast<ClassId>(step_of.size());
  };
  auto bound = [&](ClassId id, size_t at) {
    return known(id) && step_of[id] >= 0 &&
           static_cast<size_t>(step_of[id]) <= at;
  };
  // The step binding `class_id` no later than step `at`.
  auto step_binding = [&](ClassId class_id, size_t at) -> Result<size_t> {
    if (!bound(class_id, at)) {
      return Status::InvalidArgument(
          "plan reads a class before any step binds it");
    }
    return static_cast<size_t>(step_of[class_id]);
  };
  auto resolve = [&](const AttrRef& ref, size_t at) -> Result<AttrSlot> {
    SQOPT_ASSIGN_OR_RETURN(size_t step, step_binding(ref.class_id, at));
    const Extent& extent = store.extent(ref.class_id);
    return AttrSlot{step, &extent, extent.SlotOf(ref.attr_id)};
  };
  auto compile = [&](const Predicate& p,
                     size_t at) -> Result<CompiledPredicate> {
    CompiledPredicate c;
    c.pred = &p;
    SQOPT_ASSIGN_OR_RETURN(c.lhs, resolve(p.lhs(), at));
    if (!p.is_attr_const()) {
      SQOPT_ASSIGN_OR_RETURN(c.rhs, resolve(p.rhs_attr(), at));
    }
    return c;
  };

  std::vector<bool> placed(plan.join_predicates.size(), false);
  std::vector<bool> rel_placed(plan.residual_relationships.size(), false);
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const AccessStep& step = plan.steps[s];
    Stage& stage = pipe.stages[s];
    if (!known(step.class_id) || step_of[step.class_id] >= 0) {
      return Status::InvalidArgument("plan step binds an unknown class or "
                                     "one an earlier step bound");
    }
    step_of[step.class_id] = static_cast<int>(s);
    if (s > 0) {
      stage.via_rel = step.via_rel;
      stage.from_class = step.from_class;
      SQOPT_ASSIGN_OR_RETURN(stage.from, step_binding(step.from_class, s - 1));
      for (const Predicate& p : step.residual_predicates) {
        SQOPT_ASSIGN_OR_RETURN(CompiledPredicate c, compile(p, s));
        stage.residuals.push_back(c);
      }
    }
    for (size_t j = 0; j < plan.join_predicates.size(); ++j) {
      const Predicate& p = plan.join_predicates[j];
      if (placed[j] || !bound(p.lhs().class_id, s) ||
          !bound(p.rhs_attr().class_id, s)) {
        continue;
      }
      SQOPT_ASSIGN_OR_RETURN(CompiledPredicate c, compile(p, s));
      stage.joins.push_back(c);
      placed[j] = true;
    }
    for (size_t r = 0; r < plan.residual_relationships.size(); ++r) {
      const Relationship& rel =
          schema.relationship(plan.residual_relationships[r]);
      if (rel_placed[r] || !bound(rel.a, s) || !bound(rel.b, s)) continue;
      stage.cycles.push_back(CycleCheck{rel.id, rel.a,
                                        static_cast<size_t>(step_of[rel.a]),
                                        static_cast<size_t>(step_of[rel.b])});
      rel_placed[r] = true;
    }
  }
  for (size_t j = 0; j < plan.join_predicates.size(); ++j) {
    if (!placed[j]) {
      return Status::InvalidArgument(
          "join predicate references a class not covered by the plan");
    }
  }
  for (size_t r = 0; r < plan.residual_relationships.size(); ++r) {
    if (!rel_placed[r]) {
      return Status::InvalidArgument(
          "residual relationship not covered by the plan's steps");
    }
  }
  const size_t last = plan.steps.size() - 1;
  for (const AttrRef& ref : plan.projection) {
    SQOPT_ASSIGN_OR_RETURN(AttrSlot slot, resolve(ref, last));
    pipe.projection.push_back(slot);
  }
  return pipe;
}

bool EvalCompiled(const CompiledPredicate& c, const int64_t* tuple,
                  ExecutionMeter* meter) {
  ++meter->predicate_evals;
  Value lhs_scratch, rhs_scratch;
  const Value& lhs = c.lhs.Read(tuple, &lhs_scratch);
  if (c.pred->is_attr_const()) {
    return EvalCompare(lhs, c.pred->op(), c.pred->rhs_value());
  }
  return EvalCompare(lhs, c.pred->op(), c.rhs.Read(tuple, &rhs_scratch));
}

// Residuals, then joins, then cycles, each list short-circuiting — the
// order and counts the meter contract fixes.
bool PassesStage(const ObjectStore& store, const Stage& stage,
                 const int64_t* tuple, ExecutionMeter* meter) {
  for (const CompiledPredicate& c : stage.residuals) {
    if (!EvalCompiled(c, tuple, meter)) return false;
  }
  for (const CompiledPredicate& c : stage.joins) {
    if (!EvalCompiled(c, tuple, meter)) return false;
  }
  for (const CycleCheck& cycle : stage.cycles) {
    std::span<const int64_t> partners =
        store.Partners(cycle.rel, cycle.a, tuple[cycle.a_step]);
    ++meter->pointer_traversals;
    if (std::find(partners.begin(), partners.end(), tuple[cycle.b_step]) ==
        partners.end()) {
      return false;
    }
  }
  return true;
}

// Runs driving candidates [begin, end) through the whole pipeline —
// driving residual filters, expansion steps, join predicates, cycle
// filters, projection — appending result rows to `out` and work counts
// to `meter`. `candidates` null means the identity scan (candidate
// position IS the extent row), so full scans never materialize a
// 0..n-1 vector. Candidate-generation accounting (index probe,
// instances scanned at the driving step) is the CALLER's job, so
// per-morsel meters sum exactly to a sequential run's meter. Output
// row order is lexicographic in (candidate position, partner position
// per step), so concatenating per-morsel outputs in morsel order
// reproduces the sequential order.
void RunPipeline(const ObjectStore& store, const Plan& plan,
                 const Pipeline& pipe,
                 const std::vector<int64_t>* candidates, int64_t begin,
                 int64_t end, ResultSet* out, ExecutionMeter* meter) {
  // Driving step, batch-at-a-time: residual conjuncts run over whole
  // segment column ranges (selection vectors + vectorized kernels, see
  // exec/batch_filter.h) instead of row-at-a-time. An identity scan
  // walks row SLOTS, so tombstoned rows are skipped inside the filter;
  // index candidates never contain dead rows (Delete drops their
  // entries). The eval-counting contract keeps per-morsel meters
  // summing exactly to a sequential run's. The survivors are the
  // stage-0 tuples.
  const AccessStep& drive = plan.steps[0];
  const Extent& drive_extent = store.extent(drive.class_id);
  std::vector<int64_t> tuples;
  if (candidates == nullptr) {
    FilterScratch scratch;
    FilterRows(drive_extent, drive.residual_predicates,
               drive.residual_classes, begin, end, &scratch, &tuples,
               &meter->predicate_evals);
  } else {
    FilterCandidates(drive_extent, drive.residual_predicates, *candidates,
                     begin, end, &tuples, &meter->predicate_evals);
  }

  // Join predicates and cycles placed at step 0 reference only the
  // driving class.
  const Stage& first = pipe.stages[0];
  if (!first.joins.empty() || !first.cycles.empty()) {
    size_t w = 0;
    for (size_t i = 0; i < tuples.size(); ++i) {
      if (PassesStage(store, first, &tuples[i], meter)) {
        tuples[w++] = tuples[i];
      }
    }
    tuples.resize(w);
  }

  // Expansion steps: a stage-(s-1) tuple and one partner make a
  // stage-s tuple, written straight into the next stage's array and
  // retracted if a check rejects it.
  std::vector<int64_t> next;
  for (size_t s = 1; s < plan.steps.size(); ++s) {
    const Stage& stage = pipe.stages[s];
    next.clear();
    next.reserve(tuples.size() / s * (s + 1));
    for (size_t t = 0; t < tuples.size(); t += s) {
      const int64_t* parent = &tuples[t];
      std::span<const int64_t> partners =
          store.Partners(stage.via_rel, stage.from_class, parent[stage.from]);
      ++meter->pointer_traversals;
      meter->instances_scanned += partners.size();
      for (int64_t partner : partners) {
        const size_t at = next.size();
        next.insert(next.end(), parent, parent + s);
        next.push_back(partner);
        if (!PassesStage(store, stage, &next[at], meter)) next.resize(at);
      }
    }
    tuples.swap(next);
  }

  // Projection.
  const size_t width = plan.steps.size();
  const size_t count = tuples.size() / width;
  out->rows.reserve(out->rows.size() + count);
  for (size_t t = 0; t < tuples.size(); t += width) {
    const int64_t* tuple = &tuples[t];
    std::vector<Value> row;
    row.reserve(pipe.projection.size());
    for (const AttrSlot& col : pipe.projection) {
      row.push_back(col.extent->ValueAtSlot(tuple[col.step], col.slot));
    }
    out->rows.push_back(std::move(row));
  }
}

// Shared state of one parallel scan. Heap-allocated behind shared_ptr:
// helper tasks that the pool dequeues after the query already finished
// (every morsel claimed) find no work and only touch the atomic
// cursor, which this object keeps alive.
struct MorselRun {
  const ObjectStore* store = nullptr;
  const Plan* plan = nullptr;
  const Pipeline* pipe = nullptr;
  const std::vector<int64_t>* candidates = nullptr;  // null = identity scan
  std::vector<Morsel> morsels;

  std::atomic<int64_t> next{0};  // morsel claim cursor
  // Per-morsel outputs, slot-owned. A morsel fills private buffers and
  // stores them here once, when it is done: neighbouring slots share
  // cache lines, so writing them row by row made the workers contend
  // on those lines.
  std::vector<ResultSet> results;
  std::vector<ExecutionMeter> meters;

  std::atomic<size_t> completed{0};
  // Distinct threads that ran >= 1 morsel; each bumps it once, before
  // completing its first morsel, so the count is final by the time the
  // submitter wakes on the last completion.
  std::atomic<uint64_t> worker_count{0};
  std::mutex mu;  // serves only the final cv handshake
  std::condition_variable cv;
};

// Claims and runs morsels until the cursor is exhausted. Runs on pool
// workers AND on the submitting thread, so progress never depends on
// pool capacity.
void WorkMorsels(const std::shared_ptr<MorselRun>& run) {
  const size_t total = run->morsels.size();
  bool registered = false;
  for (;;) {
    const int64_t i = run->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= static_cast<int64_t>(total)) break;
    // Register once, BEFORE completing the claimed morsel: the
    // submitter only wakes after every claimed morsel completes, so by
    // then every thread that ran one is counted.
    if (!registered) {
      registered = true;
      run->worker_count.fetch_add(1, std::memory_order_relaxed);
    }
    const size_t slot = static_cast<size_t>(i);
    const Morsel& morsel = run->morsels[slot];
    const auto start = std::chrono::steady_clock::now();
    ResultSet rows;
    ExecutionMeter meter;
    RunPipeline(*run->store, *run->plan, *run->pipe, run->candidates,
                morsel.begin, morsel.end, &rows, &meter);
    meter.parallel_busy_micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    run->results[slot] = std::move(rows);
    run->meters[slot] = meter;
    // acq_rel keeps the increment chain a release sequence: the
    // submitter's acquire load of the final count sees every worker's
    // slot writes. Only the last morsel pays the lock + notify.
    const size_t done =
        run->completed.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == total) {
      std::lock_guard<std::mutex> lock(run->mu);
      run->cv.notify_all();
    }
  }
}

}  // namespace

Result<ResultSet> ExecutePlan(const ObjectStore& store, const Plan& plan,
                              ExecutionMeter* meter) {
  return ExecutePlan(store, plan, meter, ExecContext{});
}

Result<ResultSet> ExecutePlan(const ObjectStore& store, const Plan& plan,
                              ExecutionMeter* meter,
                              const ExecContext& context) {
  ExecutionMeter local;
  if (meter == nullptr) meter = &local;
  ResultSet result;
  if (plan.empty_result) return result;
  if (plan.steps.empty()) {
    return Status::InvalidArgument("plan has no access steps");
  }

  SQOPT_ASSIGN_OR_RETURN(Pipeline pipe, BuildPipeline(store, plan));

  // Driving candidates: the ordered sequence the morsels slice. A full
  // scan morselizes the extent itself (PartitionExtent) and never
  // materializes the 0..n-1 list — position IS the row; an index range
  // scan morselizes the lookup result. Candidate accounting happens
  // here, once, whatever the fan-out.
  const AccessStep& drive = plan.steps[0];
  std::vector<int64_t> index_candidates;
  const std::vector<int64_t>* candidates = nullptr;  // null = identity
  int64_t count = 0;
  if (drive.index_predicate.has_value()) {
    const Predicate& ip = *drive.index_predicate;
    const AttributeIndex* index = store.GetIndex(ip.lhs());
    if (index == nullptr) {
      return Status::Internal("plan chose a nonexistent index");
    }
    // Canonical candidate order: ascending row id, which Lookup
    // returns. Full scans visit rows in ascending slot order too, so
    // EVERY plan's output order is a function of driving-row order
    // alone, which is what lets the morsel merge stay concatenation.
    index_candidates = index->Lookup(ip.op(), ip.rhs_value());
    ++meter->index_probes;
    candidates = &index_candidates;
    count = static_cast<int64_t>(index_candidates.size());
  } else {
    count = store.NumObjects(drive.class_id);
  }
  meter->instances_scanned += static_cast<uint64_t>(count);

  // Partition only when a fan-out is actually possible — the default
  // sequential configuration never pays for the morsel vector.
  std::vector<Morsel> morsels;
  int workers = 1;
  if (context.pool != nullptr && plan.parallelism > 1) {
    morsels = candidates == nullptr
                  ? store.PartitionExtent(drive.class_id, plan.morsel_size)
                  : MakeMorsels(count, plan.morsel_size);
    workers = plan.parallelism;
    if (workers > static_cast<int>(morsels.size())) {
      workers = static_cast<int>(morsels.size());
    }
    // This thread works too, so more helpers than pool threads would
    // only queue guaranteed no-op tasks behind other queries' work.
    if (workers > context.pool->threads() + 1) {
      workers = context.pool->threads() + 1;
    }
  }

  if (workers <= 1 || morsels.size() <= 1) {
    // Sequential: one pipeline pass over the whole candidate list.
    RunPipeline(store, plan, pipe, candidates, 0, count, &result, meter);
    meter->rows_out += result.rows.size();
    return result;
  }

  // Morsel-parallel: (workers - 1) helper tasks on the shared pool plus
  // this thread, all pulling from one claim cursor.
  auto run = std::make_shared<MorselRun>();
  run->store = &store;
  run->plan = &plan;
  run->pipe = &pipe;
  run->candidates = candidates;
  run->morsels = std::move(morsels);
  run->results.resize(run->morsels.size());
  run->meters.resize(run->morsels.size());

  const auto wall_start = std::chrono::steady_clock::now();
  for (int w = 1; w < workers; ++w) {
    context.pool->Submit([run] { WorkMorsels(run); });
  }
  WorkMorsels(run);
  {
    std::unique_lock<std::mutex> lock(run->mu);
    run->cv.wait(lock, [&] {
      return run->completed.load(std::memory_order_acquire) ==
             run->morsels.size();
    });
  }
  const uint64_t wall_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());

  // Deterministic merge: morsel order IS candidate order, so the
  // concatenation is exactly the sequential result.
  size_t total_rows = 0;
  for (const ResultSet& part : run->results) total_rows += part.rows.size();
  result.rows.reserve(total_rows);
  for (ResultSet& part : run->results) {
    for (auto& row : part.rows) result.rows.push_back(std::move(row));
  }
  for (const ExecutionMeter& part : run->meters) {
    meter->instances_scanned += part.instances_scanned;
    meter->pointer_traversals += part.pointer_traversals;
    meter->predicate_evals += part.predicate_evals;
    meter->index_probes += part.index_probes;
    meter->parallel_busy_micros += part.parallel_busy_micros;
  }
  meter->morsels += run->morsels.size();
  meter->morsel_workers +=
      run->worker_count.load(std::memory_order_relaxed);
  meter->parallel_wall_micros += wall_micros;
  meter->rows_out += result.rows.size();
  return result;
}

Result<ResultSet> ExecuteQuery(const ObjectStore& store, const Query& query,
                               ExecutionMeter* meter) {
  DatabaseStats stats = CollectStats(store);
  SQOPT_ASSIGN_OR_RETURN(Plan plan,
                         BuildPlan(store.schema(), stats, query));
  return ExecutePlan(store, plan, meter);
}

}  // namespace sqopt
