#include "api/prepared_query.h"

#include "api/engine.h"
#include "api/engine_impl.h"
#include "exec/executor.h"

namespace sqopt {

namespace {

const Query& EmptyQuery() {
  static const Query* kEmpty = new Query();
  return *kEmpty;
}

const OptimizationReport& EmptyReport() {
  static const OptimizationReport* kEmpty = new OptimizationReport();
  return *kEmpty;
}

}  // namespace

Result<QueryOutcome> PreparedQuery::Execute() const {
  if (state_ == nullptr) {
    return Status::FailedPrecondition(
        "invalid PreparedQuery: obtain handles from Engine::Prepare");
  }
  const detail::PreparedState& prepared = *state_;

  QueryOutcome out;
  out.original = prepared.original;
  out.transformed = prepared.transformed;
  out.report = prepared.report;

  if (prepared.empty_result) {
    out.answered_without_database = true;
    if (engine_ != nullptr) {
      engine_->contradictions.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    // Execute against the engine's CURRENT snapshot when it descends
    // from the same Load as this plan, so prepared statements observe
    // committed Apply() mutations; across a full reload (new lineage)
    // the handle keeps the snapshot it was planned on.
    std::shared_ptr<const detail::LoadedData> data =
        engine_ != nullptr ? engine_->data_snapshot() : nullptr;
    const detail::LoadedData* exec_data =
        detail::ChooseExecData(data, prepared.data);
    if (exec_data == nullptr) {
      return Status::FailedPrecondition(
          "prepared without data: Engine::Load must run before Prepare "
          "for the handle to be executable");
    }
    // Parallel plans borrow the engine's morsel pool; the handle
    // co-owns the engine state, so the pool outlives this call even if
    // the Engine object is gone.
    ExecContext context;
    if (engine_ != nullptr) {
      context = detail::MakeExecContext(*engine_, *prepared.plan);
    }
    SQOPT_ASSIGN_OR_RETURN(
        out.rows, ExecutePlan(*exec_data->store, *prepared.plan,
                              &out.meter, context));
    out.executed = true;
  }

  prepared.executions.fetch_add(1, std::memory_order_relaxed);
  if (engine_ != nullptr) {
    engine_->prepared_executions.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

const Query& PreparedQuery::original() const {
  return state_ == nullptr ? EmptyQuery() : state_->original;
}

const Query& PreparedQuery::transformed() const {
  return state_ == nullptr ? EmptyQuery() : state_->transformed;
}

const OptimizationReport& PreparedQuery::report() const {
  return state_ == nullptr ? EmptyReport() : state_->report;
}

bool PreparedQuery::answered_without_database() const {
  return state_ != nullptr && state_->empty_result;
}

uint64_t PreparedQuery::executions() const {
  return state_ == nullptr
             ? 0
             : state_->executions.load(std::memory_order_relaxed);
}

}  // namespace sqopt
