// A client-side EngineInterface that speaks wire protocol v2 to a
// remote sqopt_server — the shard-per-node transport seam. To a
// caller (the TCP front end, a test) a RemoteShard is
// indistinguishable from an in-process Engine: Execute sends kQuery,
// Apply sends kApply, Checkpoint sends kCheckpoint, and
// stats()/data_version() parse the server's kStats metrics text. One
// connection, one outstanding request (the Engine read path's
// concurrency lives server-side in its worker pool); a mutex makes
// the handle safe to share the way tests share an Engine.
//
// Plans don't cross the wire: a RemoteShard executes from query TEXT
// and the remote node plans locally (see DESIGN.md "Replication").
#ifndef SQOPT_SHARD_REMOTE_SHARD_H_
#define SQOPT_SHARD_REMOTE_SHARD_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "api/engine.h"
#include "api/engine_iface.h"
#include "common/status.h"
#include "server/client.h"

namespace sqopt::shard {

class RemoteShard : public EngineInterface {
 public:
  // Connects and negotiates v2. Fails with the server's typed
  // kUnsupportedVersion if the remote end cannot speak it.
  static Result<std::unique_ptr<RemoteShard>> Connect(
      const std::string& host, int port, int timeout_ms = 5000);

  Result<QueryOutcome> Execute(std::string_view query_text) const override;
  // Always "not cached": the plan cache lives on the remote end.
  Result<CachedAnswer> ExecuteIfCached(
      std::string_view query_text) const override;
  Result<ApplyOutcome> Apply(const MutationBatch& batch) override;
  std::vector<Result<ApplyOutcome>> ApplyGroup(
      std::span<const MutationBatch> batches) override;
  Status Checkpoint() override;

  // Parsed from the remote kStats text ("name value" lines); a
  // transport failure returns zeroed stats (the interface is
  // non-failing by design, matching in-process accessors).
  uint64_t data_version() const override;
  EngineStats stats() const override;
  PlanCacheStats plan_cache_stats() const override;
  bool has_data() const override;

 private:
  explicit RemoteShard(server::Client client);

  Result<std::string> FetchStats() const;

  mutable std::mutex mu_;  // one outstanding request per connection
  mutable server::Client client_;
};

}  // namespace sqopt::shard

#endif  // SQOPT_SHARD_REMOTE_SHARD_H_
