#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>

namespace perfbench {

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: harness error: %s\n", what.c_str());
  std::fflush(stdout);
  std::_Exit(3);  // no static destructors: client threads may still run
}

double Dist::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void Ledger::Fail(const std::string& label, int64_t op,
                  const std::string& detail) {
  ++attempted_;
  ++failed_;
  Failure& f = failures_[label];
  if (f.count++ == 0) {
    f.first_op = op;
    f.detail = detail;
  }
}

void Ledger::Merge(const Ledger& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& [label, f] : other.failures_) {
    Failure& mine = failures_[label];
    if (mine.count == 0 || f.first_op < mine.first_op) {
      mine.first_op = f.first_op;
      mine.detail = f.detail;
    }
    mine.count += f.count;
  }
}

void Ledger::Print(std::FILE* out) const {
  std::fprintf(out, "operations attempted=%llu failed=%llu distinct=%zu\n",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_), failures_.size());
  for (const auto& [label, f] : failures_) {
    std::fprintf(out, "failed x%llu first_op=%lld %s :: %s\n",
                 static_cast<unsigned long long>(f.count),
                 static_cast<long long>(f.first_op), f.detail.c_str(),
                 label.c_str());
  }
}

Summary Summarize(const std::vector<Round>& rounds, bool equal_work) {
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t r = 0; r < rounds.size(); ++r) {
    if (!rounds[r].us.empty()) ranked.emplace_back(rounds[r].us.Median(), r);
  }
  if (equal_work) {
    std::sort(ranked.begin(), ranked.end());
    ranked.resize((ranked.size() + 9) / 10);
  }
  Summary s;
  Dist kept;
  double units = 0, busy = 0;
  for (const auto& [median, r] : ranked) {
    kept.Append(rounds[r].us);
    units += rounds[r].units;
    busy += rounds[r].busy_s;
  }
  s.p50 = kept.Median();
  s.per_s = busy > 0 ? units / busy : 0;
  s.samples = kept.size();
  return s;
}

std::string DescribeMismatch(const sqopt::ResultSet& got,
                             const sqopt::ResultSet& oracle) {
  std::string s = "mismatch rows=" + std::to_string(got.rows.size()) +
                  " oracle_rows=" + std::to_string(oracle.rows.size());
  if (!got.rows.empty()) {
    s += " first_row=";
    for (size_t i = 0; i < got.rows[0].size(); ++i) {
      if (i > 0) s += " | ";
      s += got.rows[0][i].ToString();
    }
  }
  return s;
}

int32_t Tracer::Begin(const char* name, int64_t op, int32_t parent) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t id) {
  spans_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
}

int32_t Tracer::Reported(const char* name, int64_t op, int32_t parent,
                         double micros) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.reported = true;
  s.end_ns = static_cast<int64_t>(micros * 1e3);
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::Merge(const Tracer& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

void ExportSpans(const Tracer& tracer, const std::string& path) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<std::vector<int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(i);
  }
  std::map<std::string, std::pair<Dist, Dist>> by_name;  // duration, self
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Covered part: the union of timed children's intervals (sequential
    // calls never overlap, but take the union anyway) plus the reported
    // children's durations.
    std::vector<std::pair<int64_t, int64_t>> iv;
    double covered_us = 0.0;
    for (int32_t c : children[i]) {
      if (spans[c].reported) {
        covered_us += spans[c].duration_us();
      } else {
        iv.emplace_back(spans[c].start_ns, spans[c].end_ns);
      }
    }
    std::sort(iv.begin(), iv.end());
    int64_t cur_lo = 0, cur_hi = -1, covered_ns = 0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered_ns += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered_ns += cur_hi - cur_lo;
    covered_us += static_cast<double>(covered_ns) / 1e3;
    auto& [dur, self] = by_name[s.name];
    dur.Add(s.duration_us());
    self.Add(s.duration_us() - covered_us);
  }

  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "id\tparent\top\tname\tstart_ns\tend_ns\treported\n");
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%d\t%lld\t%s\t%lld\t%lld\t%d\n", i, s.parent,
                   static_cast<long long>(s.op), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.reported ? 1 : 0);
    }
    std::fclose(f);
    std::printf("spans written=%zu path=%s\n", spans.size(), path.c_str());
  } else {
    Die("cannot write spans to " + path);
  }
  for (const auto& [name, d] : by_name) {
    std::printf("span %-24s count=%zu median_us=%.3f self_median_us=%.3f\n",
                name.c_str(), d.first.size(), d.first.Median(),
                d.second.Median());
  }
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
