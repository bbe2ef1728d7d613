#include "cost/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace sqopt {
namespace {

std::vector<Value> Ints(std::initializer_list<int64_t> xs) {
  std::vector<Value> out;
  for (int64_t x : xs) out.push_back(Value::Int(x));
  return out;
}

TEST(HistogramTest, EmptyOnTooFewValues) {
  EXPECT_TRUE(Histogram::Build({}).empty());
  EXPECT_TRUE(Histogram::Build(Ints({5})).empty());
  // Constant attribute: no spread, no histogram.
  EXPECT_TRUE(Histogram::Build(Ints({5, 5, 5})).empty());
}

TEST(HistogramTest, IgnoresNonNumericValues) {
  std::vector<Value> values = {Value::String("a"), Value::Int(1),
                               Value::Int(10), Value::Null()};
  Histogram h = Histogram::Build(values);
  EXPECT_EQ(h.total(), 2);
}

TEST(HistogramTest, EmptyFallsBackToDefault) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kLt, Value::Int(5), 0.33),
                   0.33);
}

TEST(HistogramTest, UniformDataMatchesLinearEstimate) {
  std::vector<Value> values;
  for (int i = 0; i < 1000; ++i) values.push_back(Value::Int(i));
  Histogram h = Histogram::Build(values, 16);
  EXPECT_EQ(h.total(), 1000);
  EXPECT_NEAR(h.Selectivity(CompareOp::kLt, Value::Int(250), 0.5), 0.25,
              0.02);
  EXPECT_NEAR(h.Selectivity(CompareOp::kGe, Value::Int(750), 0.5), 0.25,
              0.02);
  EXPECT_NEAR(h.Selectivity(CompareOp::kLe, Value::Int(999), 0.5), 1.0,
              0.02);
  EXPECT_NEAR(h.Selectivity(CompareOp::kGt, Value::Int(999), 0.5), 0.0,
              0.02);
}

TEST(HistogramTest, SkewedDataBeatsMinMaxInterpolation) {
  // 90% of the mass at [0, 10), a thin tail to 1000.
  std::vector<Value> values;
  Rng rng(5);
  for (int i = 0; i < 900; ++i) {
    values.push_back(Value::Int(rng.UniformInt(0, 9)));
  }
  for (int i = 0; i < 100; ++i) {
    values.push_back(Value::Int(rng.UniformInt(10, 1000)));
  }
  Histogram h = Histogram::Build(values, 32);
  // True selectivity of x < 40 is ~0.903; min/max interpolation says
  // 0.04. The histogram must land near the truth.
  double sel = h.Selectivity(CompareOp::kLt, Value::Int(40), 0.33);
  EXPECT_GT(sel, 0.80);
  EXPECT_LT(sel, 1.0);
}

TEST(HistogramTest, OutOfRangeConstants) {
  std::vector<Value> values;
  for (int i = 0; i < 100; ++i) values.push_back(Value::Int(i));
  Histogram h = Histogram::Build(values);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kLt, Value::Int(-10), 0.5),
                   0.0);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kGe, Value::Int(-10), 0.5),
                   1.0);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kGt, Value::Int(500), 0.5),
                   0.0);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kLe, Value::Int(500), 0.5),
                   1.0);
}

TEST(HistogramTest, ComplementsSumToOne) {
  std::vector<Value> values;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    values.push_back(Value::Int(rng.UniformInt(0, 200)));
  }
  Histogram h = Histogram::Build(values);
  for (int64_t c : {10, 50, 100, 150, 190}) {
    double lt = h.Selectivity(CompareOp::kLt, Value::Int(c), 0.5);
    double ge = h.Selectivity(CompareOp::kGe, Value::Int(c), 0.5);
    EXPECT_NEAR(lt + ge, 1.0, 1e-9) << c;
    double le = h.Selectivity(CompareOp::kLe, Value::Int(c), 0.5);
    double gt = h.Selectivity(CompareOp::kGt, Value::Int(c), 0.5);
    EXPECT_NEAR(le + gt, 1.0, 1e-9) << c;
  }
}

TEST(HistogramTest, MonotoneInConstant) {
  std::vector<Value> values;
  Rng rng(23);
  for (int i = 0; i < 400; ++i) {
    values.push_back(Value::Double(rng.UniformDouble() * 100));
  }
  Histogram h = Histogram::Build(values);
  double prev = -1.0;
  for (int c = 0; c <= 100; c += 5) {
    double sel = h.Selectivity(CompareOp::kLe, Value::Int(c), 0.5);
    EXPECT_GE(sel, prev - 1e-9) << c;
    prev = sel;
  }
}

TEST(HistogramTest, NonNumericConstantUsesFallback) {
  std::vector<Value> values = Ints({1, 2, 3, 4, 5});
  Histogram h = Histogram::Build(values);
  EXPECT_DOUBLE_EQ(
      h.Selectivity(CompareOp::kLt, Value::String("x"), 0.42), 0.42);
}

TEST(HistogramTest, IncrementalAddMatchesFullRebuild) {
  // The commit path patches histograms in place instead of
  // recollecting; an in-range Add must land exactly where a rebuild
  // over the extended value set would put it.
  std::vector<Value> values;
  for (int i = 0; i < 1000; ++i) values.push_back(Value::Int(i));
  Histogram patched = Histogram::Build(values, 16);
  ASSERT_TRUE(patched.Add(42.0));
  ASSERT_TRUE(patched.Add(901.0));

  values.push_back(Value::Int(42));
  values.push_back(Value::Int(901));
  // Same [lo, hi] (both new values are interior), so the rebuilt
  // buckets are directly comparable.
  Histogram rebuilt = Histogram::Build(values, 16);
  ASSERT_EQ(patched.total(), rebuilt.total());
  ASSERT_EQ(patched.num_buckets(), rebuilt.num_buckets());
  for (int b = 0; b < patched.num_buckets(); ++b) {
    EXPECT_EQ(patched.bucket_count(b), rebuilt.bucket_count(b)) << b;
  }
}

TEST(HistogramTest, IncrementalRemoveMatchesFullRebuild) {
  std::vector<Value> values;
  for (int i = 0; i < 1000; ++i) values.push_back(Value::Int(i));
  Histogram patched = Histogram::Build(values, 16);
  ASSERT_TRUE(patched.Remove(500.0));

  // Rebuild without one interior 500 (min/max survive, so the bucket
  // geometry is unchanged).
  std::vector<Value> without;
  bool dropped = false;
  for (const Value& v : values) {
    if (!dropped && v == Value::Int(500)) {
      dropped = true;
      continue;
    }
    without.push_back(v);
  }
  Histogram rebuilt = Histogram::Build(without, 16);
  ASSERT_EQ(patched.total(), rebuilt.total());
  for (int b = 0; b < patched.num_buckets(); ++b) {
    EXPECT_EQ(patched.bucket_count(b), rebuilt.bucket_count(b)) << b;
  }
}

TEST(HistogramTest, AddRemoveRefuseWhatNeedsARebuild) {
  Histogram empty;
  EXPECT_FALSE(empty.Add(1.0));
  EXPECT_FALSE(empty.Remove(1.0));

  std::vector<Value> values = Ints({0, 10, 20, 30, 40});
  Histogram h = Histogram::Build(values, 4);
  // Out of [lo, hi]: the range widens instead of refusing; only
  // non-finite values still need the caller's rebuild.
  EXPECT_TRUE(h.Add(-1.0));
  EXPECT_TRUE(h.Add(41.0));
  EXPECT_LE(h.lo(), -1.0);
  EXPECT_GE(h.hi(), 41.0);
  EXPECT_EQ(h.total(), 7);
  EXPECT_FALSE(h.Add(std::nan("")));
  EXPECT_FALSE(h.Add(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(h.Add(-std::numeric_limits<double>::infinity()));
  EXPECT_EQ(h.total(), 7);
  // Removing from a bucket that holds nothing would go negative.
  Histogram drained = Histogram::Build(Ints({0, 0, 0, 40}), 4);
  ASSERT_TRUE(drained.Remove(40.0));
  EXPECT_FALSE(drained.Remove(40.0));
  // In-range add/remove round-trips the total.
  const int64_t total = h.total();
  ASSERT_TRUE(h.Add(20.0));
  ASSERT_TRUE(h.Remove(20.0));
  EXPECT_EQ(h.total(), total);
}

// One widening step as the histogram documents it: new bucket j holds
// old buckets 2j and 2j + 1, counted from the side away from the new
// value.
std::vector<int64_t> MergePairs(const std::vector<int64_t>& counts,
                                bool grow_up) {
  const int n = static_cast<int>(counts.size());
  std::vector<int64_t> merged(counts.size(), 0);
  for (int j = 0; j < n; ++j) {
    for (int i : {2 * j, 2 * j + 1}) {
      if (i >= n) continue;
      if (grow_up) {
        merged[j] += counts[i];
      } else {
        merged[n - 1 - j] += counts[n - 1 - i];
      }
    }
  }
  return merged;
}

std::vector<int64_t> Counts(const Histogram& h) {
  std::vector<int64_t> out;
  for (int b = 0; b < h.num_buckets(); ++b) out.push_back(h.bucket_count(b));
  return out;
}

// An out-of-range Add doubles the width until the value fits, anchored
// on the far side, and must equal the pairwise merge of the old
// buckets plus the one new value: both directions, even and odd bucket
// counts, one and several doublings.
TEST(HistogramTest, WideningMergesBucketPairsAndConservesTotal) {
  std::vector<Value> values;
  for (int i = 0; i <= 100; ++i) values.push_back(Value::Int(i * i % 101));
  for (int buckets : {4, 5, 16}) {
    for (double x : {150.0, 1000.0, -30.0, -900.0}) {
      Histogram h = Histogram::Build(values, buckets);
      ASSERT_FALSE(h.empty());
      const bool grow_up = x > h.hi();
      double lo = h.lo();
      double hi = h.hi();
      std::vector<int64_t> expected = Counts(h);
      while (x < lo || x > hi) {
        expected = MergePairs(expected, grow_up);
        if (grow_up) {
          hi = lo + 2.0 * (hi - lo);
        } else {
          lo = hi - 2.0 * (hi - lo);
        }
      }
      const int64_t total = h.total();
      ASSERT_TRUE(h.Add(x)) << buckets << " " << x;
      EXPECT_EQ(h.total(), total + 1);
      EXPECT_DOUBLE_EQ(h.lo(), lo);
      EXPECT_DOUBLE_EQ(h.hi(), hi);
      EXPECT_LE(h.lo(), x);
      EXPECT_GE(h.hi(), x);
      const double width = (hi - lo) / buckets;
      const int xb = std::min(buckets - 1, static_cast<int>((x - lo) / width));
      expected[static_cast<size_t>(xb)] += 1;
      EXPECT_EQ(Counts(h), expected) << buckets << " " << x;
      int64_t sum = 0;
      for (int64_t c : Counts(h)) sum += c;
      EXPECT_EQ(sum, h.total());
    }
  }
}

// Widening keeps the histogram usable by the estimator and by the
// snapshot codec: FromParts over its parts reproduces it exactly.
TEST(HistogramTest, WidenedHistogramRoundTripsThroughParts) {
  Histogram h = Histogram::Build(Ints({0, 10, 20, 30, 40}), 4);
  for (int i = 1; i <= 50; ++i) ASSERT_TRUE(h.Add(40.0 + 13.0 * i));
  Histogram copy = Histogram::FromParts(h.lo(), h.hi(), h.total(), Counts(h));
  for (double c : {-5.0, 0.0, 17.0, 200.0, 555.0, 700.0}) {
    EXPECT_EQ(copy.Selectivity(CompareOp::kLt, Value::Double(c), 0.5),
              h.Selectivity(CompareOp::kLt, Value::Double(c), 0.5));
  }
  EXPECT_GT(h.Selectivity(CompareOp::kGt, Value::Int(300), 0.5), 0.4);
}

}  // namespace
}  // namespace sqopt
