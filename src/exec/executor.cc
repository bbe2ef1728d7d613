#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "exec/batch_filter.h"
#include "exec/plan_builder.h"
#include "storage/morsel.h"

namespace sqopt {

double ExecutionMeter::CostUnits(const CostModelParams& params) const {
  double pages =
      static_cast<double>(instances_scanned) / params.page_instances;
  if (instances_scanned > 0 && pages < 1.0) pages = 1.0;
  return pages +
         params.cpu_weight * static_cast<double>(predicate_evals) +
         params.probe_weight *
             static_cast<double>(index_probes + pointer_traversals) +
         params.output_weight * static_cast<double>(rows_out);
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

using Binding = std::vector<int64_t>;  // class id -> row (-1 unbound)

bool EvalPredicate(const ObjectStore& store, const Binding& binding,
                   const Predicate& p, ExecutionMeter* meter) {
  ++meter->predicate_evals;
  Value lhs_scratch, rhs_scratch;
  const Value& lhs =
      store.extent(p.lhs().class_id)
          .ValueRef(binding[p.lhs().class_id], p.lhs().attr_id,
                    &lhs_scratch);
  if (p.is_attr_const()) {
    return EvalCompare(lhs, p.op(), p.rhs_value());
  }
  const Value& rhs =
      store.extent(p.rhs_attr().class_id)
          .ValueRef(binding[p.rhs_attr().class_id], p.rhs_attr().attr_id,
                    &rhs_scratch);
  return EvalCompare(lhs, p.op(), rhs);
}

// Which join predicates / residual (cycle-closing) relationships
// become checkable after each step: both endpoint classes bound, and
// not checkable earlier. Immutable once built; shared by every morsel.
struct StepSchedule {
  std::vector<std::vector<Predicate>> joins_at;
  std::vector<std::vector<RelId>> rels_at;
};

Result<StepSchedule> BuildStepSchedule(const Schema& schema,
                                       const Plan& plan) {
  StepSchedule sched;
  sched.joins_at.resize(plan.steps.size());
  sched.rels_at.resize(plan.steps.size());
  std::set<ClassId> bound;
  std::vector<bool> placed(plan.join_predicates.size(), false);
  std::vector<bool> rel_placed(plan.residual_relationships.size(), false);
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    bound.insert(plan.steps[s].class_id);
    for (size_t j = 0; j < plan.join_predicates.size(); ++j) {
      if (placed[j]) continue;
      const Predicate& p = plan.join_predicates[j];
      if (bound.count(p.lhs().class_id) > 0 &&
          bound.count(p.rhs_attr().class_id) > 0) {
        sched.joins_at[s].push_back(p);
        placed[j] = true;
      }
    }
    for (size_t r = 0; r < plan.residual_relationships.size(); ++r) {
      if (rel_placed[r]) continue;
      const Relationship& rel =
          schema.relationship(plan.residual_relationships[r]);
      if (bound.count(rel.a) > 0 && bound.count(rel.b) > 0) {
        sched.rels_at[s].push_back(rel.id);
        rel_placed[r] = true;
      }
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
  return sched;
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
// reproduces the sequential order. `prov` (optional) receives the
// driving row of every appended output row, in output order.
void RunPipeline(const ObjectStore& store, const Plan& plan,
                 const StepSchedule& sched,
                 const std::vector<int64_t>* candidates, int64_t begin,
                 int64_t end, ResultSet* out, ExecutionMeter* meter,
                 std::vector<int64_t>* prov = nullptr) {
  const Schema& schema = store.schema();
  size_t num_classes = schema.num_classes();

  // Membership filter for a cycle-closing relationship.
  auto linked = [&](RelId rel_id, const Binding& binding) {
    const Relationship& rel = schema.relationship(rel_id);
    std::span<const int64_t> partners =
        store.Partners(rel_id, rel.a, binding[rel.a]);
    ++meter->pointer_traversals;
    return std::find(partners.begin(), partners.end(), binding[rel.b]) !=
           partners.end();
  };

  // Driving step, batch-at-a-time: residual conjuncts run over whole
  // segment column ranges (selection vectors + vectorized kernels, see
  // exec/batch_filter.h) instead of row-at-a-time. An identity scan
  // walks row SLOTS, so tombstoned rows are skipped inside the filter;
  // index candidates never contain dead rows (Delete drops their
  // entries). The eval-counting contract keeps per-morsel meters
  // summing exactly to a sequential run's.
  const AccessStep& drive = plan.steps[0];
  const Extent& drive_extent = store.extent(drive.class_id);
  std::vector<int64_t> survivors;
  if (candidates == nullptr) {
    FilterScratch scratch;
    FilterRows(drive_extent, drive.residual_predicates,
               drive.residual_classes, begin, end, &scratch, &survivors,
               &meter->predicate_evals);
  } else {
    FilterCandidates(drive_extent, drive.residual_predicates, *candidates,
                     begin, end, &survivors, &meter->predicate_evals);
  }

  // Join predicates and cycle filters placed at step 0 reference only
  // the driving class; apply them per surviving row, in the same order
  // (and with the same short-circuit counting) as the expansion steps
  // apply theirs.
  if (!sched.joins_at[0].empty() || !sched.rels_at[0].empty()) {
    auto eval_at_drive_row = [&](const Predicate& p, int64_t row) {
      ++meter->predicate_evals;
      Value lhs_scratch, rhs_scratch;
      const Value& lhs =
          drive_extent.ValueRef(row, p.lhs().attr_id, &lhs_scratch);
      if (p.is_attr_const()) return EvalCompare(lhs, p.op(), p.rhs_value());
      const Value& rhs =
          drive_extent.ValueRef(row, p.rhs_attr().attr_id, &rhs_scratch);
      return EvalCompare(lhs, p.op(), rhs);
    };
    size_t w = 0;
    for (int64_t row : survivors) {
      bool keep = true;
      for (const Predicate& p : sched.joins_at[0]) {
        if (!eval_at_drive_row(p, row)) {
          keep = false;
          break;
        }
      }
      for (RelId rel_id : sched.rels_at[0]) {
        if (!keep) break;
        const Relationship& rel = schema.relationship(rel_id);
        std::span<const int64_t> partners =
            store.Partners(rel_id, rel.a, row);
        ++meter->pointer_traversals;
        if (std::find(partners.begin(), partners.end(), row) ==
            partners.end()) {
          keep = false;
        }
      }
      if (keep) survivors[w++] = row;
    }
    survivors.resize(w);
  }

  // Single-step plan: fuse filter→project per morsel — project the
  // surviving rows straight out of the columns, no Binding vectors.
  if (plan.steps.size() == 1) {
    std::vector<int> proj_slots;
    proj_slots.reserve(plan.projection.size());
    for (const AttrRef& ref : plan.projection) {
      proj_slots.push_back(drive_extent.SlotOf(ref.attr_id));
    }
    out->rows.reserve(out->rows.size() + survivors.size());
    for (int64_t row : survivors) {
      const SegmentBatch batch =
          drive_extent.Batch(row / Extent::kSegmentRows);
      const size_t offset = static_cast<size_t>(row - batch.base_row);
      std::vector<Value> result_row;
      result_row.reserve(proj_slots.size());
      for (int slot : proj_slots) {
        result_row.push_back(slot < 0
                                 ? Value::Null()
                                 : batch.chunk(static_cast<size_t>(slot))
                                       .Get(offset));
      }
      out->rows.push_back(std::move(result_row));
      if (prov != nullptr) prov->push_back(row);
    }
    return;
  }

  std::vector<Binding> bindings;
  bindings.reserve(survivors.size());
  for (int64_t row : survivors) {
    Binding binding(num_classes, -1);
    binding[drive.class_id] = row;
    bindings.push_back(std::move(binding));
  }

  // Expansion steps.
  for (size_t s = 1; s < plan.steps.size(); ++s) {
    const AccessStep& step = plan.steps[s];
    std::vector<Binding> next;
    for (const Binding& binding : bindings) {
      int64_t from_row = binding[step.from_class];
      std::span<const int64_t> partners =
          store.Partners(step.via_rel, step.from_class, from_row);
      ++meter->pointer_traversals;
      meter->instances_scanned += partners.size();
      for (int64_t partner : partners) {
        Binding extended = binding;
        extended[step.class_id] = partner;
        bool keep = true;
        for (const Predicate& p : step.residual_predicates) {
          if (!EvalPredicate(store, extended, p, meter)) {
            keep = false;
            break;
          }
        }
        for (const Predicate& p : sched.joins_at[s]) {
          if (!keep) break;
          if (!EvalPredicate(store, extended, p, meter)) keep = false;
        }
        for (RelId rel_id : sched.rels_at[s]) {
          if (!keep) break;
          if (!linked(rel_id, extended)) keep = false;
        }
        if (keep) next.push_back(std::move(extended));
      }
    }
    bindings = std::move(next);
  }

  // Projection.
  out->rows.reserve(out->rows.size() + bindings.size());
  for (const Binding& binding : bindings) {
    std::vector<Value> row;
    row.reserve(plan.projection.size());
    for (const AttrRef& ref : plan.projection) {
      row.push_back(store.extent(ref.class_id)
                        .ValueAt(binding[ref.class_id], ref.attr_id));
    }
    out->rows.push_back(std::move(row));
    if (prov != nullptr) prov->push_back(binding[drive.class_id]);
  }
}

// Shared state of one parallel scan. Heap-allocated behind shared_ptr:
// helper tasks that the pool dequeues after the query already finished
// (every morsel claimed) find no work and only touch the atomic
// cursor, which this object keeps alive.
struct MorselRun {
  const ObjectStore* store = nullptr;
  const Plan* plan = nullptr;
  const StepSchedule* sched = nullptr;
  const std::vector<int64_t>* candidates = nullptr;  // null = identity scan
  std::vector<Morsel> morsels;

  std::atomic<int64_t> next{0};  // morsel claim cursor
  std::vector<ResultSet> results;       // per-morsel, slot-owned
  std::vector<ExecutionMeter> meters;   // per-morsel, slot-owned
  bool want_provenance = false;
  std::vector<std::vector<int64_t>> provenance;  // per-morsel, slot-owned

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
    RunPipeline(*run->store, *run->plan, *run->sched, run->candidates,
                morsel.begin, morsel.end, &run->results[slot],
                &run->meters[slot],
                run->want_provenance ? &run->provenance[slot] : nullptr);
    run->meters[slot].parallel_busy_micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
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

  SQOPT_ASSIGN_OR_RETURN(StepSchedule sched,
                         BuildStepSchedule(store.schema(), plan));

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
    index_candidates = index->Lookup(ip.op(), ip.rhs_value());
    // Canonical candidate order: ascending row id. Full scans already
    // visit rows in ascending slot order; sorting index results makes
    // EVERY plan's output order a function of driving-row order alone,
    // which is what lets (a) morsel merge stay concatenation and (b)
    // the sharded engine reproduce single-engine output order by
    // k-way-merging per-shard results on global driving row.
    std::sort(index_candidates.begin(), index_candidates.end());
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
    RunPipeline(store, plan, sched, candidates, 0, count, &result, meter,
                context.driving_rows);
    meter->rows_out += result.rows.size();
    return result;
  }

  // Morsel-parallel: (workers - 1) helper tasks on the shared pool plus
  // this thread, all pulling from one claim cursor.
  auto run = std::make_shared<MorselRun>();
  run->store = &store;
  run->plan = &plan;
  run->sched = &sched;
  run->candidates = candidates;
  run->morsels = std::move(morsels);
  run->results.resize(run->morsels.size());
  run->meters.resize(run->morsels.size());
  run->want_provenance = context.driving_rows != nullptr;
  if (run->want_provenance) run->provenance.resize(run->morsels.size());

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
  if (context.driving_rows != nullptr) {
    context.driving_rows->reserve(context.driving_rows->size() +
                                  total_rows);
    for (const std::vector<int64_t>& part : run->provenance) {
      context.driving_rows->insert(context.driving_rows->end(),
                                   part.begin(), part.end());
    }
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
