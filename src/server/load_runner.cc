#include "server/load_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "server/client.h"

namespace sqopt::server {

namespace {

using Clock = std::chrono::steady_clock;

struct SharedCounts {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> overloaded{0};
  std::atomic<uint64_t> timed_out{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> protocol_errors{0};
};

void CountOutcome(const Result<Response>& response, SharedCounts* counts) {
  if (!response.ok()) {
    counts->protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  switch (response->code) {
    case StatusCode::kOk:
      counts->ok.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kOverloaded:
      counts->overloaded.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kTimeout:
      counts->timed_out.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      counts->failed.fetch_add(1, std::memory_order_relaxed);
  }
}

void Percentiles(std::vector<uint64_t>* latencies, LoadReport* report) {
  if (latencies->empty()) return;
  std::sort(latencies->begin(), latencies->end());
  report->p50_us = (*latencies)[latencies->size() / 2];
  report->p95_us = (*latencies)[latencies->size() * 95 / 100];
  report->p99_us = (*latencies)[latencies->size() * 99 / 100];
  report->max_us = latencies->back();
}

}  // namespace

Result<LoadReport> RunOpenLoop(const std::string& host, int port,
                               const std::vector<std::string>& queries,
                               const LoadOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("open-loop run needs a query pool");
  }
  if (options.target_qps <= 0.0 || options.connections < 1) {
    return Status::InvalidArgument(
        "target_qps must be positive and connections >= 1");
  }
  const uint64_t total = std::max<uint64_t>(
      1, static_cast<uint64_t>(options.target_qps *
                               (static_cast<double>(options.duration_ms) /
                                1000.0)));
  const double micros_per_slot = 1e6 / options.target_qps;

  // Probe once so a dead server is an error, not a report of failures.
  {
    auto probe = Client::Connect(host, port);
    if (!probe.ok()) return probe.status();
    SQOPT_RETURN_IF_ERROR(probe->Ping());
  }

  SharedCounts counts;
  std::atomic<uint64_t> next_slot{0};
  std::mutex latencies_mu;
  std::vector<uint64_t> latencies;
  latencies.reserve(total);

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options.connections));
  for (int t = 0; t < options.connections; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect(host, port);
      if (!client.ok()) {
        // Connection refused mid-run: every slot this thread would
        // have served becomes a protocol error.
        for (;;) {
          if (next_slot.fetch_add(1, std::memory_order_relaxed) >= total) {
            return;
          }
          counts.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
      Rng rng(options.seed * 1315423911u + static_cast<uint64_t>(t));
      std::vector<uint64_t> local_latencies;
      for (;;) {
        const uint64_t slot =
            next_slot.fetch_add(1, std::memory_order_relaxed);
        if (slot >= total) break;
        const Clock::time_point due =
            start + std::chrono::microseconds(static_cast<int64_t>(
                        static_cast<double>(slot) * micros_per_slot));
        std::this_thread::sleep_until(due);
        const size_t qi =
            options.zipf_theta > 0.0
                ? rng.SkewedIndex(queries.size(), options.zipf_theta)
                : rng.Index(queries.size());
        Result<Response> response =
            client->Query(queries[qi], options.deadline_ms);
        // Open-loop latency: measured from the SCHEDULED arrival, so
        // generator backlog and server queueing both land in the tail.
        local_latencies.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - due)
                .count()));
        CountOutcome(response, &counts);
        if (!response.ok()) {
          // The transport broke (reset, timeout); reconnect so the
          // remaining slots still get offered.
          client = Client::Connect(host, port);
          if (!client.ok()) {
            for (;;) {
              if (next_slot.fetch_add(1, std::memory_order_relaxed) >=
                  total) {
                break;
              }
              counts.protocol_errors.fetch_add(1,
                                               std::memory_order_relaxed);
            }
            break;
          }
        }
      }
      std::lock_guard<std::mutex> lock(latencies_mu);
      latencies.insert(latencies.end(), local_latencies.begin(),
                       local_latencies.end());
    });
  }
  for (std::thread& th : threads) th.join();

  LoadReport report;
  report.sent = total;
  report.ok = counts.ok.load();
  report.overloaded = counts.overloaded.load();
  report.timed_out = counts.timed_out.load();
  report.failed = counts.failed.load();
  report.protocol_errors = counts.protocol_errors.load();
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (report.wall_seconds > 0.0) {
    report.offered_qps =
        static_cast<double>(report.sent) / report.wall_seconds;
    report.achieved_qps =
        static_cast<double>(report.ok) / report.wall_seconds;
  }
  Percentiles(&latencies, &report);
  return report;
}

}  // namespace sqopt::server
