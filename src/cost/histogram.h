// Equi-width histograms over numeric attributes. When attached to
// DatabaseStats they refine the selectivity estimates beyond the
// min/max-interpolation default, which sharpens the profitability
// analysis of optional predicates (§3.4) on skewed data.
#ifndef SQOPT_COST_HISTOGRAM_H_
#define SQOPT_COST_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "expr/predicate.h"
#include "types/value.h"

namespace sqopt {

class Histogram {
 public:
  // Builds an equi-width histogram with `num_buckets` buckets over the
  // numeric values in `values` (non-numeric values are ignored).
  // Returns an empty histogram (total() == 0) when fewer than 2
  // distinct numeric values exist.
  static Histogram Build(const std::vector<Value>& values,
                         int num_buckets = 16);

  // Persistence hook (src/persist/snapshot.cc): reassembles a
  // histogram from its serialized parts. `counts` empty or `total` 0
  // produce an empty histogram; the bucket width is recomputed from
  // [lo, hi] exactly as Build derives it.
  static Histogram FromParts(double lo, double hi, int64_t total,
                             std::vector<int64_t> counts);

  bool empty() const { return total_ == 0; }
  int64_t total() const { return total_; }
  int num_buckets() const { return static_cast<int>(counts_.size()); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  int64_t bucket_count(int b) const { return counts_[b]; }

  // Estimated fraction of values satisfying `x op constant`, assuming
  // uniform distribution within each bucket. Clamped to [0, 1]. Returns
  // `fallback` when the histogram is empty or the constant is not
  // numeric.
  double Selectivity(CompareOp op, const Value& constant,
                     double fallback) const;

  // Incremental maintenance for the commit path: adds/removes one
  // observation in place. An Add outside [lo, hi] first widens the
  // range, doubling the bucket width by merging adjacent bucket pairs
  // (anchored on the side away from x) until x fits: O(buckets) per
  // doubling, no rescan, total conserved. Returns false when the
  // update cannot be absorbed without a rebuild — the histogram is
  // empty, `x` is not finite (or widening to it would overflow), a
  // removal falls outside [lo, hi], or a removal would drive a count
  // negative. The caller falls back to a full recollection then.
  bool Add(double x);
  bool Remove(double x);

 private:
  // One doubling of the range toward +inf (grow_up) or -inf. False,
  // leaving the histogram unchanged, when a bound would overflow.
  bool Widen(bool grow_up);

  double lo_ = 0.0;
  double hi_ = 0.0;
  double width_ = 0.0;
  int64_t total_ = 0;
  std::vector<int64_t> counts_;
};

}  // namespace sqopt

#endif  // SQOPT_COST_HISTOGRAM_H_
