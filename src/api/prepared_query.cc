#include "api/prepared_query.h"

#include "api/engine.h"
#include "api/engine_impl.h"

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
  SQOPT_ASSIGN_OR_RETURN(
      QueryOutcome out,
      detail::ExecutePrepared(*engine_, *state_, engine_->data_snapshot()));
  state_->executions.fetch_add(1, std::memory_order_relaxed);
  engine_->prepared_executions.fetch_add(1, std::memory_order_relaxed);
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
