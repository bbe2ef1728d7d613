#include "constraints/grouping.h"

#include <gtest/gtest.h>

#include <set>

#include "constraints/constraint_parser.h"
#include "tests/test_util.h"
#include "workload/constraint_gen.h"
#include "workload/dbgen.h"

namespace sqopt {
namespace {

class GroupingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(schema_, BuildExperimentSchema());
    ASSERT_OK_AND_ASSIGN(clauses_, ExperimentConstraints(schema_));
    stats_ = std::make_unique<AccessStats>(schema_.num_classes());
  }
  Schema schema_;
  std::vector<HornClause> clauses_;
  std::unique_ptr<AccessStats> stats_;
};

TEST_F(GroupingTest, EveryConstraintAssignedToReferencedClass) {
  for (GroupingPolicy policy :
       {GroupingPolicy::kArbitrary, GroupingPolicy::kBalanced}) {
    ConstraintGrouping grouping;
    grouping.Build(schema_, clauses_, policy, nullptr);
    for (size_t i = 0; i < clauses_.size(); ++i) {
      ClassId assigned = grouping.GroupOf(static_cast<ConstraintId>(i));
      std::vector<ClassId> referenced = clauses_[i].ReferencedClasses();
      EXPECT_NE(std::find(referenced.begin(), referenced.end(), assigned),
                referenced.end())
          << "policy " << static_cast<int>(policy)
          << " assigned constraint " << i
          << " to a class it does not reference";
    }
  }
}

TEST_F(GroupingTest, AssignmentIsAPartition) {
  ConstraintGrouping grouping;
  grouping.Build(schema_, clauses_, GroupingPolicy::kArbitrary, nullptr);
  size_t total = 0;
  for (size_t c = 0; c < schema_.num_classes(); ++c) {
    total += grouping.group_size(static_cast<ClassId>(c));
  }
  EXPECT_EQ(total, clauses_.size());
}

TEST_F(GroupingTest, RetrievalIsComplete) {
  // Core correctness property from §3: for any query class set, every
  // relevant constraint (all referenced classes ⊆ query classes) must be
  // retrieved, under every policy.
  stats_->SetCount(schema_.FindClass("cargo"), 100);
  for (GroupingPolicy policy :
       {GroupingPolicy::kArbitrary, GroupingPolicy::kLeastFrequentlyAccessed,
        GroupingPolicy::kBalanced}) {
    ConstraintGrouping grouping;
    grouping.Build(schema_, clauses_, policy, stats_.get());
    // Try all 2^5 class subsets.
    for (unsigned mask = 1; mask < 32; ++mask) {
      std::vector<ClassId> subset;
      for (int c = 0; c < 5; ++c) {
        if (mask & (1u << c)) subset.push_back(c);
      }
      std::set<ConstraintId> retrieved;
      for (ConstraintId id : grouping.Retrieve(subset)) {
        retrieved.insert(id);
      }
      for (size_t i = 0; i < clauses_.size(); ++i) {
        bool relevant = true;
        for (ClassId ref : clauses_[i].ReferencedClasses()) {
          if (std::find(subset.begin(), subset.end(), ref) ==
              subset.end()) {
            relevant = false;
          }
        }
        if (relevant) {
          EXPECT_TRUE(retrieved.count(static_cast<ConstraintId>(i)) > 0)
              << "policy " << static_cast<int>(policy)
              << " missed constraint " << clauses_[i].label() << " for mask "
              << mask;
        }
      }
    }
  }
}

TEST_F(GroupingTest, LeastFrequentPolicyAvoidsHotClasses) {
  // Make cargo scorching hot; every constraint referencing cargo and a
  // cold class must be filed under the cold class.
  ClassId cargo = schema_.FindClass("cargo");
  stats_->SetCount(cargo, 1000);
  ConstraintGrouping grouping;
  grouping.Build(schema_, clauses_,
                 GroupingPolicy::kLeastFrequentlyAccessed, stats_.get());
  for (size_t i = 0; i < clauses_.size(); ++i) {
    std::vector<ClassId> referenced = clauses_[i].ReferencedClasses();
    if (referenced.size() > 1) {
      EXPECT_NE(grouping.GroupOf(static_cast<ConstraintId>(i)), cargo)
          << clauses_[i].label();
    }
  }
  // Intra-class cargo constraints have nowhere else to go.
  ASSERT_GT(grouping.group_size(cargo), 0u);
}

TEST_F(GroupingTest, BalancedPolicyEvensGroupSizes) {
  ConstraintGrouping balanced;
  balanced.Build(schema_, clauses_, GroupingPolicy::kBalanced, nullptr);
  size_t max_size = 0, min_size = SIZE_MAX;
  for (size_t c = 0; c < schema_.num_classes(); ++c) {
    size_t size = balanced.group_size(static_cast<ClassId>(c));
    max_size = std::max(max_size, size);
    min_size = std::min(min_size, size);
  }
  // 15 constraints over 5 classes: balanced keeps the spread tight.
  EXPECT_LE(max_size - min_size, 2u);
}

TEST_F(GroupingTest, RetrieveIgnoresOutOfRangeClasses) {
  ConstraintGrouping grouping;
  grouping.Build(schema_, clauses_, GroupingPolicy::kArbitrary, nullptr);
  std::vector<ConstraintId> out = grouping.Retrieve({kInvalidClass, 999});
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace sqopt
