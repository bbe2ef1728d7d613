#include "shard/remote_shard.h"

#include <cstdlib>
#include <utility>
#include <vector>

namespace sqopt::shard {

namespace {

// Parses one "name value" line out of a kStats metrics text; 0 when
// the metric is absent (an older server).
uint64_t ParseMetric(const std::string& text, std::string_view name) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    if (line.size() > name.size() + 1 &&
        line.substr(0, name.size()) == name && line[name.size()] == ' ') {
      return std::strtoull(line.data() + name.size() + 1, nullptr, 10);
    }
    pos = eol + 1;
  }
  return 0;
}

}  // namespace

RemoteShard::RemoteShard(server::Client client)
    : client_(std::move(client)) {}

Result<std::unique_ptr<RemoteShard>> RemoteShard::Connect(
    const std::string& host, int port, int timeout_ms) {
  SQOPT_ASSIGN_OR_RETURN(server::Client client,
                         server::Client::Connect(host, port, timeout_ms));
  SQOPT_ASSIGN_OR_RETURN(server::Response hello, client.Hello());
  if (!hello.ok()) return hello.ToStatus();
  if (client.protocol() < 2) {
    return Status::UnsupportedVersion(
        "remote shard at " + host + ":" + std::to_string(port) +
        " negotiated wire protocol v" + std::to_string(client.protocol()) +
        " but RemoteShard requires v2");
  }
  return std::unique_ptr<RemoteShard>(new RemoteShard(std::move(client)));
}

Result<QueryOutcome> RemoteShard::Execute(
    std::string_view query_text) const {
  std::lock_guard<std::mutex> lock(mu_);
  SQOPT_ASSIGN_OR_RETURN(server::Response response,
                         client_.Query(query_text));
  if (!response.ok()) return response.ToStatus();
  QueryOutcome outcome;
  outcome.executed = !response.answered_without_database;
  outcome.answered_without_database = response.answered_without_database;
  outcome.plan_cache_hit = response.plan_cache_hit;
  outcome.rows.rows = std::move(response.rows);
  outcome.meter.rows_out = outcome.rows.rows.size();
  return outcome;
}

Result<CachedAnswer> RemoteShard::ExecuteIfCached(
    std::string_view /*query_text*/) const {
  return CachedAnswer{};
}

Result<ApplyOutcome> RemoteShard::Apply(const MutationBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  SQOPT_ASSIGN_OR_RETURN(server::Response response, client_.Apply(batch));
  if (!response.ok()) return response.ToStatus();
  ApplyOutcome outcome;
  outcome.snapshot_version = response.snapshot_version;
  outcome.inserted_rows = std::move(response.inserted_rows);
  outcome.group_size = response.group_size;
  for (const Mutation& op : batch.ops()) {
    switch (op.kind) {
      case Mutation::Kind::kInsert: ++outcome.inserts; break;
      case Mutation::Kind::kUpdate: ++outcome.updates; break;
      case Mutation::Kind::kDelete: ++outcome.deletes; break;
      case Mutation::Kind::kLink: ++outcome.links; break;
      case Mutation::Kind::kUnlink: ++outcome.unlinks; break;
    }
  }
  return outcome;
}

std::vector<Result<ApplyOutcome>> RemoteShard::ApplyGroup(
    std::span<const MutationBatch> batches) {
  // One kApply per batch, in order: the remote engine's own group
  // commit coalesces concurrent senders; a single client's group
  // rides sequentially.
  std::vector<Result<ApplyOutcome>> out;
  out.reserve(batches.size());
  for (const MutationBatch& batch : batches) {
    out.push_back(Apply(batch));
  }
  return out;
}

Status RemoteShard::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return client_.Checkpoint();
}

Result<std::string> RemoteShard::FetchStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return client_.Stats();
}

uint64_t RemoteShard::data_version() const {
  Result<std::string> text = FetchStats();
  if (!text.ok()) return 0;
  return ParseMetric(*text, "engine_data_version");
}

EngineStats RemoteShard::stats() const {
  EngineStats s;
  Result<std::string> text = FetchStats();
  if (!text.ok()) return s;
  s.queries_parsed = ParseMetric(*text, "engine_queries_parsed");
  s.queries_executed = ParseMetric(*text, "engine_queries_executed");
  s.queries_analyzed = ParseMetric(*text, "engine_queries_analyzed");
  s.statements_prepared = ParseMetric(*text, "engine_statements_prepared");
  s.prepared_executions = ParseMetric(*text, "engine_prepared_executions");
  s.contradictions = ParseMetric(*text, "engine_contradictions");
  s.mutation_batches_applied =
      ParseMetric(*text, "engine_mutation_batches_applied");
  s.mutation_ops_applied = ParseMetric(*text, "engine_mutation_ops_applied");
  s.mutation_batches_rejected =
      ParseMetric(*text, "engine_mutation_batches_rejected");
  s.checkpoints = ParseMetric(*text, "engine_checkpoints");
  s.wal_records_replayed =
      ParseMetric(*text, "engine_wal_records_replayed");
  s.stats_recollections = ParseMetric(*text, "engine_stats_recollections");
  return s;
}

PlanCacheStats RemoteShard::plan_cache_stats() const {
  PlanCacheStats s;
  Result<std::string> text = FetchStats();
  if (!text.ok()) return s;
  s.hits = ParseMetric(*text, "plan_cache_hits");
  s.misses = ParseMetric(*text, "plan_cache_misses");
  s.evictions = ParseMetric(*text, "plan_cache_evictions");
  s.invalidations = ParseMetric(*text, "plan_cache_invalidations");
  s.entries = ParseMetric(*text, "plan_cache_entries");
  s.aliases = ParseMetric(*text, "plan_cache_aliases");
  s.capacity = ParseMetric(*text, "plan_cache_capacity");
  s.shards = ParseMetric(*text, "plan_cache_shards");
  return s;
}

bool RemoteShard::has_data() const { return data_version() > 0; }

}  // namespace sqopt::shard
