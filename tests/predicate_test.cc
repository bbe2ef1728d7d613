#include "expr/predicate.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "workload/dbgen.h"

namespace sqopt {
namespace {

class PredicateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(schema_, BuildExperimentSchema());
  }
  Schema schema_;
};

TEST_F(PredicateTest, ParseAttrConst) {
  ASSERT_OK_AND_ASSIGN(
      Predicate p, ParsePredicate(schema_, "cargo.desc = \"frozen food\""));
  EXPECT_TRUE(p.is_attr_const());
  EXPECT_EQ(p.op(), CompareOp::kEq);
  EXPECT_EQ(p.rhs_value(), Value::String("frozen food"));
  EXPECT_EQ(p.ToString(schema_), "cargo.desc = \"frozen food\"");
}

TEST_F(PredicateTest, ParseAllOperators) {
  for (const char* text :
       {"cargo.weight = 5", "cargo.weight != 5", "cargo.weight < 5",
        "cargo.weight <= 5", "cargo.weight > 5", "cargo.weight >= 5",
        "cargo.weight == 5", "cargo.weight <> 5"}) {
    EXPECT_TRUE(ParsePredicate(schema_, text).ok()) << text;
  }
}

TEST_F(PredicateTest, ParseFlipsConstantOnLeft) {
  ASSERT_OK_AND_ASSIGN(Predicate p,
                       ParsePredicate(schema_, "40 >= cargo.weight"));
  EXPECT_TRUE(p.is_attr_const());
  EXPECT_EQ(p.op(), CompareOp::kLe);  // cargo.weight <= 40
  EXPECT_EQ(p.rhs_value(), Value::Int(40));
}

TEST_F(PredicateTest, ParseAttrAttrCanonicalizes) {
  ASSERT_OK_AND_ASSIGN(
      Predicate p,
      ParsePredicate(schema_, "driver.licenseClass >= vehicle.vclass"));
  ASSERT_OK_AND_ASSIGN(
      Predicate q,
      ParsePredicate(schema_, "vehicle.vclass <= driver.licenseClass"));
  EXPECT_TRUE(p.is_attr_attr());
  EXPECT_EQ(p, q);  // same canonical form regardless of writing order
  EXPECT_EQ(p.Hash(), q.Hash());
}

TEST_F(PredicateTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParsePredicate(schema_, "cargo.desc").ok());
  EXPECT_FALSE(ParsePredicate(schema_, "nothing here").ok());
  EXPECT_FALSE(ParsePredicate(schema_, "ghost.attr = 1").ok());
  EXPECT_FALSE(ParsePredicate(schema_, "cargo.ghost = 1").ok());
  EXPECT_FALSE(ParsePredicate(schema_, "= 5").ok());
}

TEST_F(PredicateTest, QuotedOperatorCharactersAreNotOperators) {
  ASSERT_OK_AND_ASSIGN(
      Predicate p, ParsePredicate(schema_, "cargo.desc = \"a < b = c\""));
  EXPECT_EQ(p.rhs_value(), Value::String("a < b = c"));
}

TEST_F(PredicateTest, ReferencedClasses) {
  ASSERT_OK_AND_ASSIGN(Predicate single,
                       ParsePredicate(schema_, "cargo.weight <= 40"));
  EXPECT_EQ(single.ReferencedClasses().size(), 1u);

  ASSERT_OK_AND_ASSIGN(
      Predicate join,
      ParsePredicate(schema_, "driver.licenseClass >= vehicle.vclass"));
  EXPECT_EQ(join.ReferencedClasses().size(), 2u);
}

TEST_F(PredicateTest, EqualityDistinguishesOpAndValue) {
  AttrRef w = schema_.ResolveQualified("cargo.weight").value();
  Predicate a = Predicate::AttrConst(w, CompareOp::kLe, Value::Int(40));
  Predicate b = Predicate::AttrConst(w, CompareOp::kLt, Value::Int(40));
  Predicate c = Predicate::AttrConst(w, CompareOp::kLe, Value::Int(41));
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a, Predicate::AttrConst(w, CompareOp::kLe, Value::Int(40)));
}

TEST(CompareOpTest, FlipAndNegate) {
  EXPECT_EQ(FlipCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(FlipCompareOp(CompareOp::kLe), CompareOp::kGe);
  EXPECT_EQ(FlipCompareOp(CompareOp::kEq), CompareOp::kEq);
  EXPECT_EQ(NegateCompareOp(CompareOp::kEq), CompareOp::kNe);
  EXPECT_EQ(NegateCompareOp(CompareOp::kLt), CompareOp::kGe);
  EXPECT_EQ(NegateCompareOp(CompareOp::kGe), CompareOp::kLt);
}

TEST(CompareOpTest, EvalCompareSemantics) {
  EXPECT_TRUE(EvalCompare(Value::Int(3), CompareOp::kEq, Value::Int(3)));
  EXPECT_TRUE(EvalCompare(Value::Int(3), CompareOp::kLe, Value::Double(3.5)));
  EXPECT_FALSE(EvalCompare(Value::Int(3), CompareOp::kGt, Value::Int(3)));
  // Incomparable evaluates false for EVERY operator, including !=.
  EXPECT_FALSE(EvalCompare(Value::Null(), CompareOp::kEq, Value::Int(3)));
  EXPECT_FALSE(EvalCompare(Value::Null(), CompareOp::kNe, Value::Int(3)));
  EXPECT_FALSE(
      EvalCompare(Value::String("3"), CompareOp::kEq, Value::Int(3)));
}

// Parameterized: every operator against an ordered triple.
class EvalSweepTest
    : public ::testing::TestWithParam<std::tuple<CompareOp, int, bool>> {};

TEST_P(EvalSweepTest, AgainstFive) {
  const auto& [op, lhs, expected] = GetParam();
  EXPECT_EQ(EvalCompare(Value::Int(lhs), op, Value::Int(5)), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EvalSweepTest,
    ::testing::Values(
        std::tuple{CompareOp::kLt, 4, true},
        std::tuple{CompareOp::kLt, 5, false},
        std::tuple{CompareOp::kLe, 5, true},
        std::tuple{CompareOp::kLe, 6, false},
        std::tuple{CompareOp::kGt, 6, true},
        std::tuple{CompareOp::kGt, 5, false},
        std::tuple{CompareOp::kGe, 5, true},
        std::tuple{CompareOp::kGe, 4, false},
        std::tuple{CompareOp::kEq, 5, true},
        std::tuple{CompareOp::kEq, 4, false},
        std::tuple{CompareOp::kNe, 4, true},
        std::tuple{CompareOp::kNe, 5, false}));

}  // namespace
}  // namespace sqopt
