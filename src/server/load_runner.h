// The open-loop load engine behind tools/loadgen. Open-loop means
// arrivals are scheduled on a fixed clock (target QPS), NOT gated on
// completions: request i is due at start + i/qps whether or not
// earlier requests have finished, and each request's recorded latency
// runs from its SCHEDULED arrival to its completion. A server that
// falls behind therefore shows the backlog in its tail latencies
// instead of silently slowing the generator down — the
// coordinated-omission trap of a closed loop.
//
// The query mix is Zipfian over a fixed pool (few hot templates, long
// cold tail — the heavy-traffic shape the plan cache exists for),
// deterministic in the seed.
#ifndef SQOPT_SERVER_LOAD_RUNNER_H_
#define SQOPT_SERVER_LOAD_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace sqopt::server {

struct LoadOptions {
  double target_qps = 500.0;
  uint64_t duration_ms = 2000;
  // Concurrent connections (one thread each). The open-loop schedule
  // is shared: a connection grabs the next due slot, sleeps until its
  // arrival time, and fires. More connections = more headroom before
  // the generator itself becomes the bottleneck.
  int connections = 8;
  // Zipf skew of the query mix (Rng::SkewedIndex theta). 0 = uniform.
  double zipf_theta = 0.9;
  // Per-request deadline forwarded to the server; 0 = server default.
  uint32_t deadline_ms = 0;
  uint64_t seed = 20260807;
};

struct LoadReport {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t overloaded = 0;       // typed kOverloaded rejections
  uint64_t timed_out = 0;        // typed kTimeout responses
  uint64_t failed = 0;           // other typed server-side errors
  uint64_t protocol_errors = 0;  // transport/framing failures
  double wall_seconds = 0.0;
  double offered_qps = 0.0;   // sent / wall
  double achieved_qps = 0.0;  // ok / wall

  // Latency from scheduled arrival to completion, all outcomes.
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
  uint64_t max_us = 0;

  // Every response was either OK or a typed rejection — nothing broke
  // at the protocol level.
  bool clean() const { return protocol_errors == 0; }
};

// Drives `queries` at the target open-loop rate against host:port.
// Fails (error Result) only when no connection could be established;
// per-request failures are counted in the report.
Result<LoadReport> RunOpenLoop(const std::string& host, int port,
                               const std::vector<std::string>& queries,
                               const LoadOptions& options);

}  // namespace sqopt::server

#endif  // SQOPT_SERVER_LOAD_RUNNER_H_
