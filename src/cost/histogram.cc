#include "cost/histogram.h"

#include <algorithm>
#include <cmath>

namespace sqopt {

Histogram Histogram::Build(const std::vector<Value>& values,
                           int num_buckets) {
  Histogram h;
  if (num_buckets < 1) num_buckets = 1;

  std::vector<double> xs;
  xs.reserve(values.size());
  for (const Value& v : values) {
    if (v.is_numeric()) xs.push_back(v.AsDouble());
  }
  if (xs.size() < 2) return h;
  auto [lo_it, hi_it] = std::minmax_element(xs.begin(), xs.end());
  if (*lo_it == *hi_it) return h;  // constant attribute: no spread

  h.lo_ = *lo_it;
  h.hi_ = *hi_it;
  h.counts_.assign(num_buckets, 0);
  h.width_ = (h.hi_ - h.lo_) / num_buckets;
  for (double x : xs) {
    int b = static_cast<int>((x - h.lo_) / h.width_);
    if (b >= num_buckets) b = num_buckets - 1;  // x == hi
    if (b < 0) b = 0;
    h.counts_[b] += 1;
  }
  h.total_ = static_cast<int64_t>(xs.size());
  return h;
}

Histogram Histogram::FromParts(double lo, double hi, int64_t total,
                               std::vector<int64_t> counts) {
  Histogram h;
  if (total <= 0 || counts.empty() || hi <= lo) return h;
  h.lo_ = lo;
  h.hi_ = hi;
  h.width_ = (hi - lo) / static_cast<double>(counts.size());
  h.total_ = total;
  h.counts_ = std::move(counts);
  return h;
}

bool Histogram::Add(double x) {
  if (empty() || !std::isfinite(x)) return false;
  while (x < lo_ || x > hi_) {
    if (!Widen(/*grow_up=*/x > hi_)) return false;
  }
  int b = static_cast<int>((x - lo_) / width_);
  if (b >= num_buckets()) b = num_buckets() - 1;
  if (b < 0) b = 0;
  counts_[b] += 1;
  total_ += 1;
  return true;
}

bool Histogram::Widen(bool grow_up) {
  const double span = 2.0 * (hi_ - lo_);
  const double lo = grow_up ? lo_ : hi_ - span;
  const double hi = grow_up ? lo_ + span : hi_;
  if (!std::isfinite(lo) || !std::isfinite(hi)) return false;
  // New bucket j holds old buckets 2j and 2j + 1 counted from the
  // anchored side; with an odd count the far new bucket gets one old
  // bucket, and the half of the range beyond the old one starts empty.
  const int n = num_buckets();
  std::vector<int64_t> merged(counts_.size(), 0);
  for (int i = 0; i < n; ++i) {
    if (grow_up) {
      merged[i / 2] += counts_[i];
    } else {
      merged[n - 1 - (n - 1 - i) / 2] += counts_[i];
    }
  }
  counts_ = std::move(merged);
  lo_ = lo;
  hi_ = hi;
  width_ = (hi_ - lo_) / static_cast<double>(n);  // as FromParts derives it
  return true;
}

bool Histogram::Remove(double x) {
  if (empty() || x < lo_ || x > hi_) return false;
  int b = static_cast<int>((x - lo_) / width_);
  if (b >= num_buckets()) b = num_buckets() - 1;
  if (b < 0) b = 0;
  if (counts_[b] <= 0) return false;
  counts_[b] -= 1;
  total_ -= 1;
  return true;
}

double Histogram::Selectivity(CompareOp op, const Value& constant,
                              double fallback) const {
  if (empty() || !constant.is_numeric()) return fallback;
  double c = constant.AsDouble();
  double total = static_cast<double>(total_);

  // Mass strictly below c, with linear interpolation inside c's bucket.
  auto mass_below = [&](double x) {
    if (x <= lo_) return 0.0;
    if (x >= hi_) return total;
    int b = static_cast<int>((x - lo_) / width_);
    if (b >= num_buckets()) b = num_buckets() - 1;
    double below = 0.0;
    for (int i = 0; i < b; ++i) below += static_cast<double>(counts_[i]);
    double bucket_lo = lo_ + b * width_;
    double frac = (x - bucket_lo) / width_;
    below += frac * static_cast<double>(counts_[b]);
    return below;
  };

  // Mass equal to c, approximated as the bucket's share of one
  // "distinct step" — we spread a bucket's mass uniformly and charge an
  // epsilon slice. Without distinct counts per bucket the convention
  // below (bucket mass / bucket span in steps) is the textbook choice;
  // a simple bucket_count/total/8 works well at our scales.
  auto mass_equal = [&](double x) {
    if (x < lo_ || x > hi_) return 0.0;
    int b = static_cast<int>((x - lo_) / width_);
    if (b >= num_buckets()) b = num_buckets() - 1;
    return static_cast<double>(counts_[b]) / 8.0;
  };

  double sel = fallback * total;
  switch (op) {
    case CompareOp::kLt:
      sel = mass_below(c);
      break;
    case CompareOp::kLe:
      sel = mass_below(c) + mass_equal(c);
      break;
    case CompareOp::kGt:
      sel = total - mass_below(c) - mass_equal(c);
      break;
    case CompareOp::kGe:
      sel = total - mass_below(c);
      break;
    case CompareOp::kEq:
      sel = mass_equal(c);
      break;
    case CompareOp::kNe:
      sel = total - mass_equal(c);
      break;
  }
  return std::clamp(sel / total, 0.0, 1.0);
}

}  // namespace sqopt
