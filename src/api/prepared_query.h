// A prepared-query handle: the parsed query, its relevant-constraint
// retrieval, the semantic transformation, and the physical plan are all
// computed once at Engine::Prepare, through the same prepare function
// and plan cache as Engine::Execute; Execute() then replays only the
// plan against the store, through the engine's one run function. This
// is the high-throughput path: repeated execution skips parse +
// retrieval + transformation + planning.
//
// Handles are cheap to copy (two shared pointers), safe to execute
// from any number of threads, and keep the engine internals they were
// prepared against alive — destroying the Engine does not invalidate
// outstanding handles.
#ifndef SQOPT_API_PREPARED_QUERY_H_
#define SQOPT_API_PREPARED_QUERY_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "query/query.h"
#include "sqo/report.h"

namespace sqopt {

struct QueryOutcome;
class Engine;

namespace detail {
struct EngineState;
struct PreparedState;
}  // namespace detail

class PreparedQuery {
 public:
  // Default-constructed handles are invalid; obtain real ones from
  // Engine::Prepare.
  PreparedQuery() = default;

  bool valid() const { return state_ != nullptr; }

  // Replays the cached plan with a fresh meter. No parsing, constraint
  // retrieval, transformation, or planning happens here. Const and
  // thread-safe. kFailedPrecondition for an invalid handle and for one
  // prepared before Engine::Load (it has no plan, even after a Load).
  Result<QueryOutcome> Execute() const;

  // The query as parsed at Prepare time.
  const Query& original() const;
  // The semantically transformed form the plan was built from.
  const Query& transformed() const;
  // The optimization trace captured at Prepare time.
  const OptimizationReport& report() const;
  // True if the optimizer proved the result empty; Execute() then
  // returns zero rows without touching the store.
  bool answered_without_database() const;
  // Number of completed Execute() calls on this statement.
  uint64_t executions() const;

 private:
  friend class Engine;
  PreparedQuery(std::shared_ptr<const detail::EngineState> engine,
                std::shared_ptr<const detail::PreparedState> state)
      : engine_(std::move(engine)), state_(std::move(state)) {}

  std::shared_ptr<const detail::EngineState> engine_;
  std::shared_ptr<const detail::PreparedState> state_;
};

}  // namespace sqopt

#endif  // SQOPT_API_PREPARED_QUERY_H_
