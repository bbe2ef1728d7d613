#include "cost/cost_model.h"

#include <gtest/gtest.h>

#include "cost/selectivity.h"
#include "query/query_parser.h"
#include "tests/test_util.h"
#include "workload/dbgen.h"

namespace sqopt {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(schema_, BuildExperimentSchema());
    // Uniform synthetic stats.
    for (const ObjectClass& oc : schema_.classes()) {
      stats_.SetClassCardinality(oc.id, 1000);
      for (AttrId attr_id : schema_.LayoutOf(oc.id)) {
        AttrStatsData data;
        data.distinct_values = 10;
        stats_.SetAttrStats(AttrRef{oc.id, attr_id}, data);
      }
    }
    for (const Relationship& rel : schema_.relationships()) {
      stats_.SetRelationshipCardinality(rel.id, 2000);
    }
    model_ = std::make_unique<CostModel>(&schema_, &stats_);
  }
  Query Q(const std::string& text) {
    auto q = ParseQuery(schema_, text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }
  Schema schema_;
  DatabaseStats stats_;
  std::unique_ptr<CostModel> model_;
};

TEST_F(CostModelTest, SelectivityEqualityUsesNdv) {
  auto p = ParsePredicate(schema_, "cargo.desc = \"frozen food\"");
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(EstimateSelectivity(schema_, stats_, *p), 0.1);
}

TEST_F(CostModelTest, SelectivityRangeUsesMinMax) {
  AttrStatsData data;
  data.distinct_values = 100;
  data.min = Value::Int(0);
  data.max = Value::Int(100);
  AttrRef weight = schema_.ResolveQualified("cargo.weight").value();
  stats_.SetAttrStats(weight, data);
  auto p = ParsePredicate(schema_, "cargo.weight <= 25");
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(EstimateSelectivity(schema_, stats_, *p), 0.25, 1e-9);
  auto q = ParsePredicate(schema_, "cargo.weight >= 25");
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(EstimateSelectivity(schema_, stats_, *q), 0.75, 1e-9);
}

TEST_F(CostModelTest, SelectivityDefaultsWithoutStats) {
  DatabaseStats empty;
  auto p = ParsePredicate(schema_, "cargo.weight <= 25");
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(EstimateSelectivity(schema_, empty, *p),
                   kDefaultRangeSelectivity);
}

TEST_F(CostModelTest, JoinSelectivityUsesLargerNdv) {
  AttrRef lc = schema_.ResolveQualified("driver.licenseClass").value();
  AttrRef vc = schema_.ResolveQualified("vehicle.vclass").value();
  Predicate eq = Predicate::AttrAttr(lc, CompareOp::kEq, vc);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(schema_, stats_, eq), 0.1);
}

TEST_F(CostModelTest, ClassSelectivityMultiplies) {
  Query q = Q("{cargo.code} {} {cargo.desc = \"frozen food\", "
              "cargo.weight >= 500} {} {cargo}");
  double sel = ClassSelectivity(schema_, stats_, q.selective_predicates,
                                schema_.FindClass("cargo"));
  EXPECT_LT(sel, 0.1 + 1e-9);
}

TEST_F(CostModelTest, SelectivePredicateReducesCost) {
  Query base = Q("{cargo.code} {} {} {} {cargo}");
  Query filtered =
      Q("{cargo.code} {} {cargo.desc = \"frozen food\"} {} {cargo}");
  // Both scan the extent, but the filtered query produces less output
  // and its indexed predicate enables index access.
  EXPECT_LT(model_->QueryCost(filtered), model_->QueryCost(base));
}

TEST_F(CostModelTest, JoinCostGrowsWithClasses) {
  Query one = Q("{cargo.code} {} {} {} {cargo}");
  Query two = Q("{cargo.code} {} {} {collects} {cargo, vehicle}");
  EXPECT_GT(model_->QueryCost(two), model_->QueryCost(one));
}

TEST_F(CostModelTest, IndexedPredicateCheaperThanScan) {
  // cargo.desc is indexed; cargo.weight is not.
  Query indexed =
      Q("{cargo.code} {} {cargo.desc = \"frozen food\"} {} {cargo}");
  Query scanned = Q("{cargo.code} {} {cargo.weight = 5} {} {cargo}");
  EXPECT_LT(model_->QueryCost(indexed), model_->QueryCost(scanned));
}

TEST_F(CostModelTest, RedundantPredicateAddsCostNotSavings) {
  // weight <= 40 plus the implied weight <= 50 on the same class: the
  // marginal-selectivity logic must give the weaker predicate zero
  // credit, so the version carrying it costs (slightly) more.
  Query tight = Q("{cargo.code} {} {cargo.weight <= 40} {} {cargo}");
  Query padded = Q(
      "{cargo.code} {} {cargo.weight <= 40, cargo.weight <= 50} {} "
      "{cargo}");
  EXPECT_GE(model_->QueryCost(padded), model_->QueryCost(tight));
}

TEST_F(CostModelTest, RetainIsProfitableForStrongIndexedPredicate) {
  Query q = Q("{cargo.code} {} {cargo.desc = \"frozen food\"} {} {cargo}");
  auto p = ParsePredicate(schema_, "cargo.desc = \"frozen food\"");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(RetainIsProfitable(*model_, q, *p));
}

TEST_F(CostModelTest, RetainNotProfitableForImpliedDuplicate) {
  Query q = Q(
      "{cargo.code} {} {cargo.weight <= 40, cargo.weight <= 50} {} "
      "{cargo}");
  auto weak = ParsePredicate(schema_, "cargo.weight <= 50");
  ASSERT_TRUE(weak.ok());
  EXPECT_FALSE(RetainIsProfitable(*model_, q, *weak));
}

TEST_F(CostModelTest, RetainVacuousForAbsentPredicate) {
  Query q = Q("{cargo.code} {} {} {} {cargo}");
  auto p = ParsePredicate(schema_, "cargo.weight <= 40");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(RetainIsProfitable(*model_, q, *p));
}

TEST_F(CostModelTest, EliminationProfitableForDanglingClass) {
  Query with = Q("{cargo.code} {} {} {collects} {cargo, vehicle}");
  Query without = Q("{cargo.code} {} {} {} {cargo}");
  EXPECT_TRUE(EliminationIsProfitable(*model_, with, without));
}

TEST_F(CostModelTest, DefaultStatsNeverZero) {
  DatabaseStats empty;
  EXPECT_GT(empty.ClassCardinality(0), 0);
  EXPECT_GT(empty.RelationshipCardinality(0), 0);
  EXPECT_EQ(empty.AttrStatsFor(AttrRef{0, 0}), nullptr);
}

}  // namespace
}  // namespace sqopt
