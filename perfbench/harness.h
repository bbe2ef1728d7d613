// Shared plumbing of the repository benchmark: timing, sample
// distributions, the operation ledger that backs ok_ratio, the oracle
// comparison, the in-memory span tracer, and the metric list printed at
// the end of a run. Nothing here reaches into the engine; the workload
// files drive sqopt only through its public calls.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/executor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Microseconds between two clock readings, with sub-microsecond digits.
inline double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// A harness error: a crash-level failure or a typed error from a call
// that must succeed. Prints the reason and exits non-zero without a
// result line.
[[noreturn]] void Die(const std::string& what);

inline void Must(const sqopt::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T Must(sqopt::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

// A bag of samples. Quantiles interpolate linearly between ranks.
class Dist {
 public:
  void Add(double x) { values_.push_back(x); }
  void Append(const Dist& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

// Every operation a workload attempts is counted here: it either
// succeeded and matched the oracle, or it failed. Failures are grouped
// by query text (or operation label) so a run lists each distinct
// failing operation once, with how often it failed.
class Ledger {
 public:
  void Ok() { ++attempted_; }
  void Fail(const std::string& label, int64_t op, const std::string& detail);
  void Merge(const Ledger& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double ok_ratio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
  }
  void Print(std::FILE* out) const;

 private:
  struct Failure {
    uint64_t count = 0;
    int64_t first_op = 0;
    std::string detail;
  };
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, Failure> failures_;
};

// The oracle contract: the optimized answer must hold the same distinct
// rows as ExecuteUnoptimized on the same snapshot, each row's columns in
// projection order (set semantics; see DESIGN.md). An answer equal row
// for row is accepted without building the distinct-row sets.
inline bool SameAnswer(const sqopt::ResultSet& got,
                       const sqopt::ResultSet& oracle) {
  return got.rows == oracle.rows || got.SameDistinctRows(oracle);
}

// Short description of a mismatch for the failure listing.
std::string DescribeMismatch(const sqopt::ResultSet& got,
                             const sqopt::ResultSet& oracle);

// In-memory span recorder. A span is one call into a layer, timed
// around the public call by the benchmark. Spans of one operation share
// its op id; `parent` links a call to the span that caused it (-1 for
// an operation's root). A "reported" span carries a duration the
// program measured itself (ApplyOutcome phase times, Response
// exec_micros); it has no start of its own. One Tracer per thread.
struct Span {
  const char* name = "";
  int64_t op = 0;
  int32_t parent = -1;
  bool reported = false;
  int64_t start_ns = 0;  // since the tracer's epoch; 0 when reported
  int64_t end_ns = 0;    // duration when reported
  double duration_us() const {
    return static_cast<double>(reported ? end_ns : end_ns - start_ns) / 1e3;
  }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  int32_t Begin(const char* name, int64_t op, int32_t parent = -1);
  void End(int32_t id);
  // Records `micros` as a reported child of `parent`; returns its id.
  int32_t Reported(const char* name, int64_t op, int32_t parent,
                   double micros);
  double DurationUs(int32_t id) const { return spans_[id].duration_us(); }

  const std::vector<Span>& spans() const { return spans_; }
  // Appends another thread's spans, re-basing their parent links.
  void Merge(const Tracer& other);

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Times one call as a child span: Begin on construction, End on Stop()
// (or destruction). Returns the elapsed microseconds from Stop().
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op, int32_t parent)
      : tracer_(tracer), id_(tracer->Begin(name, op, parent)) {}
  ~ScopedSpan() {
    if (!stopped_) Stop();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  double Stop() {
    tracer_->End(id_);
    stopped_ = true;
    return tracer_->DurationUs(id_);
  }
  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
  bool stopped_ = false;
};

// Writes every span as one tab-separated line (id, parent, op, name,
// start_ns, end_ns, reported) and prints, per span name, the count, the
// median duration and the median self time: a span's duration minus
// the part of it its children cover.
void ExportSpans(const Tracer& tracer, const std::string& path);

// One round of a workload's measured stream: the latency of each
// operation, the work it completed and the time its rate is taken over.
struct Round {
  Dist us;
  double units = 0;   // queries, or committed batches
  double busy_s = 0;  // in-call time, or the round's wall time
};

// What a run reports for one stream: p50 over the union of the kept
// rounds' samples, the rate over their units and time. A stream whose
// rounds do equal work keeps its quietest tenth, ranked by round
// median: on a shared host, contention from other tenants only adds
// time and comes in episodes, so the quietest rounds repeat from run to
// run where a whole-run figure does not (see NOTES.md). A stream whose
// work grows round by round (churn's store grows) keeps every round,
// since ranking would only pick its earliest; churn samples a longer
// window by running replicas of its sequence instead.
struct Summary {
  double p50 = 0;
  double per_s = 0;
  size_t samples = 0;  // behind p50
};
Summary Summarize(const std::vector<Round>& rounds, bool equal_work);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Outcome of one run of one workload.
struct RunResult {
  bool correct = true;
  Ledger ledger;
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// ru_maxrss of this process, in MB.
double PeakRssMb();

// Total bytes of the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
