// The four workloads of the repository benchmark (see NOTES.md for why
// each exists and which layers it stresses).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;  // adhoc | scan | churn | serve
  uint64_t seed = 1;
  int seconds = 10;  // sizes the fixed operation sequence, see NOTES.md
  bool trace = false;
  std::string work_dir;    // scratch space for persist dirs
  std::string spans_path;  // where the traced run writes its spans
};

// Runs one workload. With trace off the result carries the end-to-end
// metrics; with trace on it runs the untraced pass first (for the
// untraced medians) and then the traced pass, and carries the per-layer
// metrics. Harness errors exit the process via Die().
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
