#include "constraints/closure.h"

#include <gtest/gtest.h>

#include "constraints/constraint_parser.h"
#include "expr/implication.h"
#include "tests/test_util.h"
#include "workload/constraint_gen.h"
#include "workload/dbgen.h"

namespace sqopt {
namespace {

class ClosureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(schema_, BuildExperimentSchema());
  }
  std::vector<HornClause> Parse(const std::string& text) {
    auto r = ParseConstraintList(schema_, text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }
  Schema schema_;
};

TEST_F(ClosureTest, PaperExampleChain) {
  // The paper's §3 example: (A = a) -> (B > 20), (B > 10) -> (C = c)
  // deduces (A = a) -> (C = c). B > 20 implies B > 10, so the clauses
  // chain even though the predicates differ.
  std::vector<HornClause> base = Parse(R"(
c1: cargo.desc = "frozen food" -> cargo.weight > 20
c2: cargo.weight > 10 -> cargo.quantity <= 499
)");
  ASSERT_OK_AND_ASSIGN(ClosureResult closure,
                       ComputeClosure(schema_, base));
  EXPECT_EQ(closure.num_base, 2u);
  EXPECT_EQ(closure.num_derived, 1u);
  const HornClause& derived = closure.clauses.back();
  EXPECT_TRUE(derived.is_derived());
  ASSERT_EQ(derived.antecedents().size(), 1u);
  EXPECT_EQ(derived.antecedents()[0].ToString(schema_),
            "cargo.desc = \"frozen food\"");
  EXPECT_EQ(derived.consequent().ToString(schema_),
            "cargo.quantity <= 499");
  EXPECT_EQ(derived.label(), "c1*c2");
}

TEST_F(ClosureTest, NoChainWhenConsequentTooWeak) {
  // B > 5 does NOT imply B > 10: no derivation.
  std::vector<HornClause> base = Parse(R"(
c1: cargo.desc = "frozen food" -> cargo.weight > 5
c2: cargo.weight > 10 -> cargo.quantity <= 499
)");
  ASSERT_OK_AND_ASSIGN(ClosureResult closure,
                       ComputeClosure(schema_, base));
  EXPECT_EQ(closure.num_derived, 0u);
}

TEST_F(ClosureTest, TransitiveChainOfThree) {
  std::vector<HornClause> base = Parse(R"(
c1: cargo.weight >= 30 -> cargo.weight >= 20
c2: cargo.weight >= 20 -> cargo.weight >= 10
c3: cargo.weight >= 10 -> cargo.weight >= 5
)");
  // Same-attribute chains derive clauses whose consequents are directly
  // implied by their antecedents (x >= 30 already implies x >= 10), so
  // prune_trivial removes all of them...
  ASSERT_OK_AND_ASSIGN(ClosureResult pruned,
                       ComputeClosure(schema_, base));
  EXPECT_EQ(pruned.num_derived, 0u);
  // ...and without pruning the full transitive set materializes:
  // 30->10, 20->5, 30->5.
  ClosureOptions keep_all;
  keep_all.prune_trivial = false;
  ASSERT_OK_AND_ASSIGN(ClosureResult full,
                       ComputeClosure(schema_, base, keep_all));
  EXPECT_EQ(full.num_derived, 3u);
}

TEST_F(ClosureTest, ClosureIsIdempotent) {
  std::vector<HornClause> base = Parse(R"(
c1: cargo.desc = "frozen food" -> cargo.weight >= 30
c2: cargo.weight >= 20 -> cargo.quantity <= 499
)");
  ASSERT_OK_AND_ASSIGN(ClosureResult once, ComputeClosure(schema_, base));
  EXPECT_EQ(once.num_derived, 1u);
  ASSERT_OK_AND_ASSIGN(ClosureResult twice,
                       ComputeClosure(schema_, once.clauses));
  EXPECT_EQ(twice.num_derived, 0u);
  EXPECT_EQ(twice.clauses.size(), once.clauses.size());
}

TEST_F(ClosureTest, MultiAntecedentChainMergesAntecedents) {
  std::vector<HornClause> base = Parse(R"(
c1: supplier.rating >= 8 -> supplier.region = "west"
c2: supplier.region = "west", cargo.desc = "frozen food" -> cargo.weight <= 40
)");
  ASSERT_OK_AND_ASSIGN(ClosureResult closure,
                       ComputeClosure(schema_, base));
  ASSERT_EQ(closure.num_derived, 1u);
  const HornClause& derived = closure.clauses.back();
  // Antecedents: rating >= 8 (from c1) + frozen food (left over from c2).
  EXPECT_EQ(derived.antecedents().size(), 2u);
}

TEST_F(ClosureTest, VacuousDerivationsPruned) {
  // Chaining would derive weight >= 20 -> weight >= 20-ish vacuities;
  // prune_trivial must keep them out.
  std::vector<HornClause> base = Parse(R"(
c1: cargo.weight >= 20 -> cargo.weight >= 10
c2: cargo.weight >= 10 -> cargo.weight >= 15
)");
  ASSERT_OK_AND_ASSIGN(ClosureResult closure,
                       ComputeClosure(schema_, base));
  for (const HornClause& c : closure.clauses) {
    // No derived clause may have its consequent implied by antecedents.
    if (c.is_derived()) {
      EXPECT_FALSE(ConjunctionImplies(c.antecedents(), c.consequent()))
          << c.ToString(schema_);
    }
  }
}

TEST_F(ClosureTest, DerivedCapEnforced) {
  // A long chain derives O(n^2) clauses; a tiny cap must trip.
  std::vector<HornClause> base;
  AttrRef weight = schema_.ResolveQualified("cargo.weight").value();
  base = SyntheticChainConstraints(schema_, weight, 24);
  ClosureOptions options;
  options.prune_trivial = false;  // keep the vacuous chain derivations
  options.max_derived = 10;
  auto result = ComputeClosure(schema_, base, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST_F(ClosureTest, MaxAntecedentsPrunesLongDerivations) {
  std::vector<HornClause> base = Parse(R"(
c1: supplier.rating >= 8, supplier.region = "west" -> cargo.weight <= 40
c2: cargo.weight <= 40, cargo.quantity <= 499, cargo.desc = "frozen food" -> vehicle.vclass >= 4
)");
  ClosureOptions options;
  options.max_antecedents = 3;
  ASSERT_OK_AND_ASSIGN(ClosureResult closure,
                       ComputeClosure(schema_, base, options));
  // Chained clause would need 4 antecedents; pruned.
  EXPECT_EQ(closure.num_derived, 0u);
}

TEST_F(ClosureTest, ExperimentConstraintsCloseWithoutBlowup) {
  ASSERT_OK_AND_ASSIGN(std::vector<HornClause> base,
                       ExperimentConstraints(schema_));
  ASSERT_OK_AND_ASSIGN(ClosureResult closure,
                       ComputeClosure(schema_, base));
  EXPECT_EQ(closure.num_base, 15u);
  EXPECT_GT(closure.num_derived, 0u);   // x1*x2 chains, etc.
  EXPECT_LT(closure.num_derived, 64u);  // and stays bounded
}

TEST_F(ClosureTest, EmptyAntecedentClausesAlwaysChainForward) {
  std::vector<HornClause> base = Parse(R"(
c1: -> vehicle.vclass >= 4
c2: vehicle.vclass >= 3 -> vehicle.capacity >= 20
)");
  ASSERT_OK_AND_ASSIGN(ClosureResult closure,
                       ComputeClosure(schema_, base));
  // c1's consequent (vclass >= 4) implies c2's antecedent (vclass >= 3):
  // derived clause with empty antecedents -> capacity >= 20.
  ASSERT_EQ(closure.num_derived, 1u);
  EXPECT_TRUE(closure.clauses.back().antecedents().empty());
}

}  // namespace
}  // namespace sqopt
