#include "storage/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"

namespace sqopt {
namespace {

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.Equal(Value::Int(1)).empty());
  EXPECT_TRUE(tree.Scan().empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeTest, SingleInsertAndLookup) {
  BTree tree;
  tree.Insert(Value::Int(5), 100);
  EXPECT_EQ(tree.size(), 1u);
  std::vector<int64_t> rows = tree.Equal(Value::Int(5));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 100);
  EXPECT_TRUE(tree.Equal(Value::Int(6)).empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeTest, SplitsIncreaseHeight) {
  BTree tree(/*order=*/4);  // tiny order forces splits early
  for (int i = 0; i < 100; ++i) {
    tree.Insert(Value::Int(i), i);
    ASSERT_TRUE(tree.CheckInvariants()) << "after insert " << i;
  }
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_GT(tree.height(), 2);
  EXPECT_GT(tree.num_nodes(), 10u);
  for (int i = 0; i < 100; ++i) {
    std::vector<int64_t> rows = tree.Equal(Value::Int(i));
    ASSERT_EQ(rows.size(), 1u) << i;
    EXPECT_EQ(rows[0], i);
  }
}

TEST(BTreeTest, ReverseAndZigzagInsertionOrders) {
  for (int pattern = 0; pattern < 2; ++pattern) {
    BTree tree(4);
    for (int i = 0; i < 200; ++i) {
      int key = pattern == 0 ? 199 - i : (i % 2 == 0 ? i / 2 : 199 - i / 2);
      tree.Insert(Value::Int(key), key);
    }
    ASSERT_TRUE(tree.CheckInvariants());
    auto scan = tree.Scan();
    ASSERT_EQ(scan.size(), 200u);
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(scan[i].first, Value::Int(i));
    }
  }
}

TEST(BTreeTest, DuplicateKeysAllFound) {
  BTree tree(4);
  for (int i = 0; i < 60; ++i) {
    tree.Insert(Value::Int(i % 3), i);  // 20 copies of each key
  }
  ASSERT_TRUE(tree.CheckInvariants());
  for (int k = 0; k < 3; ++k) {
    std::vector<int64_t> rows = tree.Equal(Value::Int(k));
    EXPECT_EQ(rows.size(), 20u) << "key " << k;
    for (int64_t row : rows) {
      EXPECT_EQ(row % 3, k);
    }
  }
}

TEST(BTreeTest, MassiveDuplicateRun) {
  BTree tree(4);
  for (int i = 0; i < 100; ++i) tree.Insert(Value::Int(7), i);
  tree.Insert(Value::Int(3), -1);
  tree.Insert(Value::Int(9), -2);
  ASSERT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.Equal(Value::Int(7)).size(), 100u);
  EXPECT_EQ(tree.Equal(Value::Int(3)).size(), 1u);
  EXPECT_EQ(tree.Equal(Value::Int(9)).size(), 1u);
}

TEST(BTreeTest, RangeScans) {
  BTree tree(6);
  for (int i = 0; i < 50; ++i) tree.Insert(Value::Int(i), i);
  EXPECT_EQ(tree.LessThan(Value::Int(10), false).size(), 10u);
  EXPECT_EQ(tree.LessThan(Value::Int(10), true).size(), 11u);
  EXPECT_EQ(tree.GreaterThan(Value::Int(40), false).size(), 9u);
  EXPECT_EQ(tree.GreaterThan(Value::Int(40), true).size(), 10u);
  EXPECT_EQ(tree.GreaterThan(Value::Int(-5), true).size(), 50u);
  EXPECT_EQ(tree.LessThan(Value::Int(100), true).size(), 50u);
  EXPECT_TRUE(tree.LessThan(Value::Int(0), false).empty());
  EXPECT_TRUE(tree.GreaterThan(Value::Int(49), false).empty());
}

TEST(BTreeTest, StringKeys) {
  BTree tree(4);
  std::vector<std::string> words = {"delta", "alpha", "echo", "charlie",
                                    "bravo"};
  for (size_t i = 0; i < words.size(); ++i) {
    tree.Insert(Value::String(words[i]), static_cast<int64_t>(i));
  }
  ASSERT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.Equal(Value::String("charlie")).size(), 1u);
  EXPECT_EQ(tree.LessThan(Value::String("c"), false).size(), 2u);
  auto scan = tree.Scan();
  EXPECT_EQ(scan.front().first, Value::String("alpha"));
  EXPECT_EQ(scan.back().first, Value::String("echo"));
}

TEST(BTreeTest, MixedNumericKeysInterleave) {
  BTree tree(4);
  tree.Insert(Value::Int(2), 1);
  tree.Insert(Value::Double(2.5), 2);
  tree.Insert(Value::Int(3), 3);
  EXPECT_EQ(tree.GreaterThan(Value::Int(2), false).size(), 2u);
  EXPECT_EQ(tree.Equal(Value::Double(3.0)).size(), 1u);  // 3 == 3.0
}

// Randomized differential test against std::multimap across orders.
class BTreeFuzzTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(BTreeFuzzTest, MatchesMultimapOracle) {
  const auto& [order, seed] = GetParam();
  BTree tree(order);
  std::multimap<int64_t, int64_t> oracle;
  Rng rng(static_cast<uint64_t>(seed));

  for (int i = 0; i < 800; ++i) {
    int64_t key = rng.UniformInt(0, 60);  // heavy duplicate pressure
    tree.Insert(Value::Int(key), i);
    oracle.emplace(key, i);
  }
  ASSERT_TRUE(tree.CheckInvariants());
  ASSERT_EQ(tree.size(), oracle.size());

  for (int64_t key = -2; key <= 62; ++key) {
    // Equality.
    std::vector<int64_t> got = tree.Equal(Value::Int(key));
    std::vector<int64_t> want;
    auto [lo, hi] = oracle.equal_range(key);
    for (auto it = lo; it != hi; ++it) want.push_back(it->second);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "Equal(" << key << ")";

    // Ranges.
    auto count_lt = [&](bool inclusive) {
      size_t n = 0;
      for (const auto& [k, v] : oracle) {
        if (k < key || (inclusive && k == key)) ++n;
      }
      return n;
    };
    EXPECT_EQ(tree.LessThan(Value::Int(key), false).size(),
              count_lt(false));
    EXPECT_EQ(tree.LessThan(Value::Int(key), true).size(), count_lt(true));
    EXPECT_EQ(tree.GreaterThan(Value::Int(key), false).size(),
              oracle.size() - count_lt(true));
    EXPECT_EQ(tree.GreaterThan(Value::Int(key), true).size(),
              oracle.size() - count_lt(false));
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndSeeds, BTreeFuzzTest,
    ::testing::Combine(::testing::Values(4, 6, 16, 64),
                       ::testing::Values(1, 2, 3)));

TEST(BTreeTest, HeightStaysLogarithmic) {
  BTree tree(64);
  for (int i = 0; i < 100000; ++i) tree.Insert(Value::Int(i), i);
  // 100k entries at order 64: height must stay tiny.
  EXPECT_LE(tree.height(), 4);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeTest, CloneIsStructurallyIdenticalAndIndependent) {
  BTree tree(4);  // small order: multiple levels
  for (int i = 0; i < 200; ++i) tree.Insert(Value::Int(i % 50), i);

  BTree copy = tree.Clone();
  EXPECT_EQ(copy.size(), tree.size());
  EXPECT_EQ(copy.height(), tree.height());
  EXPECT_EQ(copy.num_nodes(), tree.num_nodes());
  EXPECT_TRUE(copy.CheckInvariants());
  EXPECT_EQ(copy.Scan(), tree.Scan());

  // Divergence stays private in both directions.
  copy.Insert(Value::Int(999), 999);
  EXPECT_TRUE(copy.Remove(Value::Int(7), 7));
  tree.Insert(Value::Int(-5), 1);
  EXPECT_EQ(copy.Equal(Value::Int(999)).size(), 1u);
  EXPECT_TRUE(tree.Equal(Value::Int(999)).empty());
  EXPECT_EQ(tree.Equal(Value::Int(7)).size(), 4u);
  EXPECT_EQ(copy.Equal(Value::Int(7)).size(), 3u);
  EXPECT_TRUE(copy.Equal(Value::Int(-5)).empty());
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_TRUE(copy.CheckInvariants());
}

TEST(BTreeTest, MoveSemantics) {
  BTree a(4);
  for (int i = 0; i < 32; ++i) a.Insert(Value::Int(i), i);
  BTree b = std::move(a);
  EXPECT_EQ(b.size(), 32u);
  EXPECT_TRUE(b.CheckInvariants());
  EXPECT_EQ(b.Equal(Value::Int(7)).size(), 1u);
}

// Nodes of `tree` that `base` does not share.
int UnsharedNodes(const BTree& base, const BTree& tree) {
  std::vector<const void*> shared = base.NodeIdentities();
  std::sort(shared.begin(), shared.end());
  int count = 0;
  for (const void* node : tree.NodeIdentities()) {
    if (!std::binary_search(shared.begin(), shared.end(), node)) ++count;
  }
  return count;
}

TEST(BTreeTest, CloneSharesEveryNodeAndAWriteCopiesOnlyItsPath) {
  // Both sizes bulk-build to height 3 at order 64; the copied path is
  // the same length on the tree twice the size.
  for (int n : {20000, 40000}) {
    std::vector<std::pair<Value, int64_t>> entries;
    for (int i = 0; i < n; ++i) entries.emplace_back(Value::Int(i), i);
    BTree base = BTree::BuildFromSorted(std::move(entries));
    ASSERT_EQ(base.height(), 3) << n;
    BTree clone = base.Clone();
    EXPECT_EQ(UnsharedNodes(base, clone), 0);

    ASSERT_TRUE(clone.Remove(Value::Int(n / 3), n / 3));
    EXPECT_EQ(UnsharedNodes(base, clone), 3) << n;
    EXPECT_FALSE(clone.Remove(Value::Int(n / 3), n / 3));  // miss: no copy
    EXPECT_EQ(UnsharedNodes(base, clone), 3) << n;
    EXPECT_EQ(base.Equal(Value::Int(n / 3)), std::vector<int64_t>{n / 3});
    EXPECT_TRUE(clone.Equal(Value::Int(n / 3)).empty());

    // A second write on the same path copies nothing more.
    ASSERT_TRUE(clone.Remove(Value::Int(n / 3 + 1), n / 3 + 1));
    EXPECT_EQ(UnsharedNodes(base, clone), 3) << n;
    EXPECT_EQ(base.size(), static_cast<size_t>(n));
    EXPECT_TRUE(base.CheckInvariants());
    EXPECT_TRUE(clone.CheckInvariants());
  }
}

// Duplicates are ordered by (key, row): Equal() returns rows ascending
// whatever the insertion order, and a range returns each key's run in
// row order.
TEST(BTreeTest, EqualReturnsRowsInAscendingOrder) {
  BTree tree(4);
  Rng rng(7);
  std::vector<int64_t> rows(300);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
  for (size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[rng.Index(i + 1)]);
  }
  for (int64_t row : rows) tree.Insert(Value::Int(row % 3), row);
  ASSERT_TRUE(tree.CheckInvariants());
  for (int key = 0; key < 3; ++key) {
    std::vector<int64_t> got = tree.Equal(Value::Int(key));
    ASSERT_EQ(got.size(), 100u);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << "key " << key;
  }
  std::vector<int64_t> below = tree.LessThan(Value::Int(2), false);
  ASSERT_EQ(below.size(), 200u);
  EXPECT_TRUE(std::is_sorted(below.begin(), below.begin() + 100));
  EXPECT_TRUE(std::is_sorted(below.begin() + 100, below.end()));
}

// Remove descends once on the pair (key, row) instead of walking the
// key's duplicates: on 4 keys, doubling the tree (and each key's run)
// must not grow the comparisons a remove costs beyond one more level.
TEST(BTreeTest, RemoveComparisonsDoNotGrowWithDuplicateRuns) {
  auto per_remove = [](int n) {
    std::vector<std::pair<Value, int64_t>> entries;
    for (int key = 0; key < 4; ++key) {
      for (int row = key; row < n; row += 4) {
        entries.emplace_back(Value::Int(key), row);
      }
    }
    BTree tree = BTree::BuildFromSorted(std::move(entries));
    const uint64_t before = BTree::KeyComparisons();
    int removes = 0;
    for (int row = n / 2; row < n / 2 + 400; ++row, ++removes) {
      EXPECT_TRUE(tree.Remove(Value::Int(row % 4), row));
    }
    const uint64_t comparisons = BTree::KeyComparisons() - before;
    EXPECT_TRUE(tree.CheckInvariants());
    return static_cast<double>(comparisons) / removes;
  };
  const double small = per_remove(20000);
  const double large = per_remove(40000);
  // One comparison per binary-search step, at most 6 steps per node;
  // the larger tree may add one level.
  EXPECT_LT(small, 30.0);
  EXPECT_LT(large, small + 8.0);
}

// Many live versions of one lineage, each mutated, cloned and dropped
// at random, against a std::multimap per version. Every version must
// keep its own contents (duplicates in insertion order) and invariants.
TEST(BTreeTest, RandomizedMultiVersionDifferential) {
  struct Version {
    BTree tree;
    std::multimap<int64_t, int64_t> model;
  };
  Rng rng(20261019);
  std::vector<Version> versions;
  versions.push_back({BTree(4), {}});
  auto check = [](const Version& v) {
    ASSERT_TRUE(v.tree.CheckInvariants());
    std::vector<std::pair<Value, int64_t>> expected;
    for (const auto& [k, r] : v.model) expected.emplace_back(Value::Int(k), r);
    ASSERT_EQ(v.tree.Scan(), expected);
  };
  for (int step = 0; step < 4000; ++step) {
    Version& v = versions[rng.Index(versions.size())];
    const int64_t key = rng.UniformInt(0, 60);
    const uint64_t action = rng.Index(10);
    if (action < 5) {
      const int64_t row = step;
      v.tree.Insert(Value::Int(key), row);
      v.model.emplace(key, row);
    } else if (action < 8) {
      auto [lo, hi] = v.model.equal_range(key);
      if (lo == hi) {
        ASSERT_FALSE(v.tree.Remove(Value::Int(key), -1));
        continue;
      }
      auto victim = std::next(
          lo, static_cast<long>(rng.Index(std::distance(lo, hi))));
      ASSERT_TRUE(v.tree.Remove(Value::Int(key), victim->second));
      v.model.erase(victim);
    } else if (action == 8 && versions.size() < 8) {
      Version copy{v.tree.Clone(), v.model};
      versions.push_back(std::move(copy));
    } else if (versions.size() > 1) {
      versions.erase(versions.begin() +
                     static_cast<long>(rng.Index(versions.size())));
    }
    if (step % 50 == 0) {
      for (const Version& live : versions) check(live);
    }
    // Point and range probes against the model.
    const Version& probe = versions[rng.Index(versions.size())];
    std::vector<int64_t> eq, lt, ge;
    for (const auto& [k, r] : probe.model) {
      if (k == key) eq.push_back(r);
      if (k < key) lt.push_back(r);
      if (k >= key) ge.push_back(r);
    }
    ASSERT_EQ(probe.tree.Equal(Value::Int(key)), eq);
    ASSERT_EQ(probe.tree.LessThan(Value::Int(key), false), lt);
    ASSERT_EQ(probe.tree.GreaterThan(Value::Int(key), true), ge);
  }
  for (const Version& live : versions) check(live);
}

}  // namespace
}  // namespace sqopt
