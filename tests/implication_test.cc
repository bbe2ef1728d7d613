#include "expr/implication.h"

#include <gtest/gtest.h>

#include <tuple>

#include "tests/test_util.h"
#include "workload/dbgen.h"

namespace sqopt {
namespace {

class ImplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(schema_, BuildExperimentSchema());
    weight_ = schema_.ResolveQualified("cargo.weight").value();
    quantity_ = schema_.ResolveQualified("cargo.quantity").value();
  }
  Predicate W(CompareOp op, int64_t v) {
    return Predicate::AttrConst(weight_, op, Value::Int(v));
  }
  Schema schema_;
  AttrRef weight_;
  AttrRef quantity_;
};

TEST_F(ImplicationTest, Reflexive) {
  Predicate p = W(CompareOp::kLe, 40);
  EXPECT_TRUE(Implies(p, p));
}

TEST_F(ImplicationTest, DifferentAttributesNeverImply) {
  Predicate a = W(CompareOp::kEq, 5);
  Predicate b =
      Predicate::AttrConst(quantity_, CompareOp::kGe, Value::Int(0));
  EXPECT_FALSE(Implies(a, b));
}

TEST_F(ImplicationTest, EqualityImpliesConsistentComparisons) {
  Predicate eq5 = W(CompareOp::kEq, 5);
  EXPECT_TRUE(Implies(eq5, W(CompareOp::kLe, 5)));
  EXPECT_TRUE(Implies(eq5, W(CompareOp::kLe, 10)));
  EXPECT_TRUE(Implies(eq5, W(CompareOp::kLt, 6)));
  EXPECT_TRUE(Implies(eq5, W(CompareOp::kGe, 5)));
  EXPECT_TRUE(Implies(eq5, W(CompareOp::kGt, 4)));
  EXPECT_TRUE(Implies(eq5, W(CompareOp::kNe, 6)));
  EXPECT_FALSE(Implies(eq5, W(CompareOp::kLt, 5)));
  EXPECT_FALSE(Implies(eq5, W(CompareOp::kNe, 5)));
  EXPECT_FALSE(Implies(eq5, W(CompareOp::kEq, 6)));
}

TEST_F(ImplicationTest, RangeStrengthening) {
  EXPECT_TRUE(Implies(W(CompareOp::kGt, 10), W(CompareOp::kGt, 5)));
  EXPECT_TRUE(Implies(W(CompareOp::kGt, 10), W(CompareOp::kGe, 10)));
  EXPECT_TRUE(Implies(W(CompareOp::kGe, 10), W(CompareOp::kGe, 5)));
  EXPECT_FALSE(Implies(W(CompareOp::kGe, 10), W(CompareOp::kGt, 10)));
  EXPECT_TRUE(Implies(W(CompareOp::kLt, 5), W(CompareOp::kLt, 10)));
  EXPECT_TRUE(Implies(W(CompareOp::kLt, 5), W(CompareOp::kLe, 5)));
  EXPECT_FALSE(Implies(W(CompareOp::kLe, 5), W(CompareOp::kLt, 5)));
  EXPECT_FALSE(Implies(W(CompareOp::kLt, 10), W(CompareOp::kLt, 5)));
}

TEST_F(ImplicationTest, RangeImpliesDisequality) {
  EXPECT_TRUE(Implies(W(CompareOp::kLt, 5), W(CompareOp::kNe, 5)));
  EXPECT_TRUE(Implies(W(CompareOp::kLt, 5), W(CompareOp::kNe, 7)));
  EXPECT_FALSE(Implies(W(CompareOp::kLt, 5), W(CompareOp::kNe, 3)));
  EXPECT_TRUE(Implies(W(CompareOp::kGe, 5), W(CompareOp::kNe, 4)));
  EXPECT_FALSE(Implies(W(CompareOp::kGe, 5), W(CompareOp::kNe, 5)));
}

TEST_F(ImplicationTest, OnlyEqualityImpliesEquality) {
  EXPECT_TRUE(Implies(W(CompareOp::kEq, 5), W(CompareOp::kEq, 5)));
  EXPECT_FALSE(Implies(W(CompareOp::kLe, 5), W(CompareOp::kEq, 5)));
  EXPECT_FALSE(Implies(W(CompareOp::kGe, 5), W(CompareOp::kEq, 5)));
}

TEST_F(ImplicationTest, StringEqualityImpliesDisequality) {
  AttrRef desc = schema_.ResolveQualified("cargo.desc").value();
  Predicate frozen = Predicate::AttrConst(desc, CompareOp::kEq,
                                          Value::String("frozen food"));
  Predicate not_fuel =
      Predicate::AttrConst(desc, CompareOp::kNe, Value::String("fuel"));
  EXPECT_TRUE(Implies(frozen, not_fuel));
  Predicate not_frozen = Predicate::AttrConst(
      desc, CompareOp::kNe, Value::String("frozen food"));
  EXPECT_FALSE(Implies(frozen, not_frozen));
}

TEST_F(ImplicationTest, AttrAttrImplication) {
  AttrRef lc = schema_.ResolveQualified("driver.licenseClass").value();
  AttrRef vc = schema_.ResolveQualified("vehicle.vclass").value();
  Predicate lt = Predicate::AttrAttr(lc, CompareOp::kLt, vc);
  Predicate le = Predicate::AttrAttr(lc, CompareOp::kLe, vc);
  Predicate ne = Predicate::AttrAttr(lc, CompareOp::kNe, vc);
  Predicate eq = Predicate::AttrAttr(lc, CompareOp::kEq, vc);
  Predicate ge = Predicate::AttrAttr(lc, CompareOp::kGe, vc);
  EXPECT_TRUE(Implies(lt, le));
  EXPECT_TRUE(Implies(lt, ne));
  EXPECT_TRUE(Implies(eq, le));
  EXPECT_TRUE(Implies(eq, ge));
  EXPECT_FALSE(Implies(le, lt));
  EXPECT_FALSE(Implies(ne, lt));
  EXPECT_FALSE(Implies(le, ge));
}

TEST_F(ImplicationTest, AttrAttrRespectsCanonicalFlip) {
  AttrRef lc = schema_.ResolveQualified("driver.licenseClass").value();
  AttrRef vc = schema_.ResolveQualified("vehicle.vclass").value();
  // Written in opposite orders; canonicalization must line them up.
  Predicate a = Predicate::AttrAttr(lc, CompareOp::kLt, vc);
  Predicate b = Predicate::AttrAttr(vc, CompareOp::kGt, lc);
  EXPECT_TRUE(Implies(a, b));
  EXPECT_TRUE(Implies(b, a));
}

TEST_F(ImplicationTest, MixedFormsNeverImply) {
  AttrRef lc = schema_.ResolveQualified("driver.licenseClass").value();
  AttrRef vc = schema_.ResolveQualified("vehicle.vclass").value();
  Predicate join = Predicate::AttrAttr(lc, CompareOp::kLe, vc);
  EXPECT_FALSE(Implies(join, W(CompareOp::kLe, 100)));
  EXPECT_FALSE(Implies(W(CompareOp::kLe, 100), join));
}

TEST_F(ImplicationTest, ConjunctionImpliesSinglePremise) {
  std::vector<Predicate> premises = {W(CompareOp::kGt, 10)};
  EXPECT_TRUE(ConjunctionImplies(premises, W(CompareOp::kGt, 5)));
  EXPECT_FALSE(ConjunctionImplies(premises, W(CompareOp::kGt, 20)));
}

TEST_F(ImplicationTest, ConjunctionImpliesViaIntervalNarrowing) {
  // No single premise implies 10 <= w, but together they pin w = 10.
  std::vector<Predicate> premises = {W(CompareOp::kGe, 10),
                                     W(CompareOp::kLe, 10)};
  EXPECT_TRUE(ConjunctionImplies(premises, W(CompareOp::kEq, 10)));
  EXPECT_TRUE(ConjunctionImplies(premises, W(CompareOp::kNe, 11)));
  EXPECT_FALSE(ConjunctionImplies(premises, W(CompareOp::kEq, 11)));
}

TEST_F(ImplicationTest, UnsatisfiablePremisesImplyAnything) {
  std::vector<Predicate> premises = {W(CompareOp::kGt, 10),
                                     W(CompareOp::kLt, 5)};
  EXPECT_TRUE(ConjunctionImplies(premises, W(CompareOp::kEq, 999)));
}

TEST_F(ImplicationTest, EmptyPremisesImplyNothing) {
  EXPECT_FALSE(ConjunctionImplies({}, W(CompareOp::kGe, 0)));
}

// Exhaustive soundness sweep: for every (opA, cA, opB, cB) combination
// over a small integer domain, Implies(a, b) == true must mean every
// domain point satisfying a satisfies b.
using SweepCase = std::tuple<CompareOp, int, CompareOp, int>;

class ImplicationSoundnessTest
    : public ::testing::TestWithParam<SweepCase> {
 protected:
  static Schema* schema_;
  static AttrRef weight_;
  static void SetUpTestSuite() {
    auto s = BuildExperimentSchema();
    ASSERT_TRUE(s.ok());
    schema_ = new Schema(std::move(s).value());
    weight_ = schema_->ResolveQualified("cargo.weight").value();
  }
  static void TearDownTestSuite() {
    delete schema_;
    schema_ = nullptr;
  }
};

Schema* ImplicationSoundnessTest::schema_ = nullptr;
AttrRef ImplicationSoundnessTest::weight_;

TEST_P(ImplicationSoundnessTest, ImpliesIsSoundAndCompleteOnIntegers) {
  const auto& [op_a, c_a, op_b, c_b] = GetParam();
  Predicate a =
      Predicate::AttrConst(weight_, op_a, Value::Int(c_a));
  Predicate b =
      Predicate::AttrConst(weight_, op_b, Value::Int(c_b));
  bool claimed = Implies(a, b);
  // Ground truth by enumeration over a domain comfortably wider than
  // the constants.
  bool truth = true;
  for (int x = -10; x <= 10; ++x) {
    bool sat_a = EvalCompare(Value::Int(x), op_a, Value::Int(c_a));
    bool sat_b = EvalCompare(Value::Int(x), op_b, Value::Int(c_b));
    if (sat_a && !sat_b) {
      truth = false;
      break;
    }
  }
  // Soundness: claimed implies truth. (Completeness over dense domains
  // differs from integers — e.g. x > 4 does not densely imply x >= 5 —
  // so only soundness is asserted.)
  if (claimed) {
    EXPECT_TRUE(truth) << a.ToString(*schema_) << " =/=> "
                       << b.ToString(*schema_);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FullGrid, ImplicationSoundnessTest,
    ::testing::Combine(
        ::testing::Values(CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                          CompareOp::kLe, CompareOp::kGt, CompareOp::kGe),
        ::testing::Values(-2, 0, 3),
        ::testing::Values(CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                          CompareOp::kLe, CompareOp::kGt, CompareOp::kGe),
        ::testing::Values(-2, 0, 3)));

}  // namespace
}  // namespace sqopt
