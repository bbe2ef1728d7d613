#include "constraints/rule_derivation.h"

#include <gtest/gtest.h>

#include "sqo/optimizer.h"
#include "query/query_parser.h"
#include "tests/test_util.h"

namespace sqopt {
namespace {

using sqopt::testing::ExperimentFixture;

class RuleDerivationTest : public ExperimentFixture {
 protected:
  void SetUp() override {
    ExperimentFixture::SetUp();
    ASSERT_OK_AND_ASSIGN(
        store_, GenerateDatabase(schema_, DbSpec{"RD", 64, 128}, 99));
  }
  std::unique_ptr<ObjectStore> store_;
};

TEST_F(RuleDerivationTest, EveryDerivedRuleHoldsOnTheStore) {
  ASSERT_OK_AND_ASSIGN(std::vector<HornClause> rules,
                       DeriveStateRules(*store_));
  EXPECT_FALSE(rules.empty());
  for (const HornClause& rule : rules) {
    EXPECT_TRUE(RuleHoldsOnStore(*store_, rule)) << rule.ToString(schema_);
  }
}

TEST_F(RuleDerivationTest, RediscoversHandWrittenIntraConstraints) {
  // The segment construction makes i2 (frozen food -> weight <= 40)
  // true in every state; the miner must find it (as a value rule or a
  // conditional range with bound <= 40).
  ASSERT_OK_AND_ASSIGN(std::vector<HornClause> rules,
                       DeriveStateRules(*store_));
  auto frozen = ParsePredicate(schema_, "cargo.desc = \"frozen food\"");
  ASSERT_TRUE(frozen.ok());
  bool found = false;
  for (const HornClause& rule : rules) {
    if (rule.antecedents().size() != 1) continue;
    if (!(rule.antecedents()[0] == *frozen)) continue;
    const Predicate& c = rule.consequent();
    if (c.is_attr_const() && c.op() == CompareOp::kLe &&
        schema_.attribute(c.lhs()).name == "weight" &&
        c.rhs_value().Compare(Value::Int(40)).value_or(1) <= 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found)
      << "miner failed to rediscover frozen-food weight bound";
}

TEST_F(RuleDerivationTest, GlobalRangeRulesHaveEmptyAntecedents) {
  ASSERT_OK_AND_ASSIGN(std::vector<HornClause> rules,
                       DeriveStateRules(*store_));
  int range_rules = 0;
  for (const HornClause& rule : rules) {
    if (rule.antecedents().empty()) {
      ++range_rules;
      const Predicate& c = rule.consequent();
      EXPECT_TRUE(c.op() == CompareOp::kGe || c.op() == CompareOp::kLe);
    }
  }
  EXPECT_GT(range_rules, 0);
}

TEST_F(RuleDerivationTest, SupportThresholdFiltersSmallGroups) {
  // Every class of this store holds fewer than kMinRuleSupport rows, and
  // range rules are also gated on extent size, so nothing qualifies.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> small,
                       GenerateDatabase(schema_, DbSpec{"RD-small", 6, 3}, 99));
  for (const ObjectClass& oc : schema_.classes()) {
    ASSERT_LT(small->extent(oc.id).live_count(), kMinRuleSupport) << oc.name;
  }
  ASSERT_OK_AND_ASSIGN(std::vector<HornClause> rules,
                       DeriveStateRules(*small));
  EXPECT_TRUE(rules.empty());
}

TEST_F(RuleDerivationTest, DerivationIsDeterministic) {
  ASSERT_OK_AND_ASSIGN(std::vector<HornClause> a,
                       DeriveStateRules(*store_));
  ASSERT_OK_AND_ASSIGN(std::vector<HornClause> b,
                       DeriveStateRules(*store_));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].StructurallyEquals(b[i]));
    EXPECT_EQ(a[i].label(), b[i].label());
  }
}

TEST_F(RuleDerivationTest, MinedRulesDriveTheOptimizer) {
  // Fresh catalog containing ONLY mined rules: the optimizer must be
  // able to fire them like any integrity constraint (Siegel's point).
  ConstraintCatalog catalog(&schema_);
  ASSERT_OK_AND_ASSIGN(std::vector<HornClause> rules,
                       DeriveStateRules(*store_));
  size_t added = 0;
  for (HornClause& rule : rules) {
    if (catalog.AddConstraint(std::move(rule)).ok()) ++added;
  }
  ASSERT_GT(added, 0u);
  AccessStats access(schema_.num_classes());
  ASSERT_OK(catalog.Precompile(&access));

  ASSERT_OK_AND_ASSIGN(
      Query query,
      ParseQuery(schema_,
                 "{cargo.code} {} {cargo.desc = \"frozen food\"} {} "
                 "{cargo}"));
  SemanticOptimizer optimizer(&schema_, &catalog, nullptr);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));
  EXPECT_GT(result.report.num_firings, 0u);
}

TEST_F(RuleDerivationTest, RuleHoldsDetectsViolations) {
  // Hand-build a rule that is false on the data: frozen food implies
  // weight <= 0.
  auto frozen = ParsePredicate(schema_, "cargo.desc = \"frozen food\"");
  auto bogus = ParsePredicate(schema_, "cargo.weight <= 0");
  ASSERT_TRUE(frozen.ok() && bogus.ok());
  HornClause lie("lie", {*frozen}, *bogus);
  EXPECT_FALSE(RuleHoldsOnStore(*store_, lie));
}

}  // namespace
}  // namespace sqopt
