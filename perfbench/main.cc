// The repository benchmark: one workload per process, driven through
// sqopt's public API, every answer checked against the unoptimized
// oracle. Prints each metric as "metric <name> <value> <unit>" and, as
// the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload adhoc|scan|churn|serve --seed N --seconds S
//             --trace 0|1 --work-dir DIR --spans PATH
//
// Exit status 0 with a result line; 2 on bad arguments; 3 on a harness
// error (a crash-level failure or a typed error from a call that must
// succeed), without a result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --spans PATH\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else if (flag == "--spans") {
      cfg.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) Usage("flags take one value each");
  if (!have_workload || !have_seed) Usage("--workload and --seed are required");
  if (cfg.seconds < 1) Usage("--seconds must be at least 1");
  if (cfg.work_dir.empty()) cfg.work_dir = ".";
  if (cfg.spans_path.empty()) {
    cfg.spans_path = cfg.work_dir + "/spans-" + cfg.workload + ".tsv";
  }
  std::filesystem::create_directories(cfg.work_dir);

  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  perfbench::RunResult result = perfbench::RunWorkload(cfg);
  result.ledger.Print(stdout);

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.ledger.attempted());
  json += ", \"failed\": " + std::to_string(result.ledger.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (!std::isfinite(m.value)) {
      perfbench::Die("metric " + m.name + " is not finite");
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    std::printf("metric %s %s %s\n", m.name.c_str(), value, m.unit.c_str());
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
