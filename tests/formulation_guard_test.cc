// Regression tests for the formulation-time entailment guard: mutually
// implying predicates (A -> B and B -> A in the constraint set) must
// never BOTH be dropped — the §2 pitfall ("prevent the introduction of
// predicates which were previously eliminated and vice versa").
#include <gtest/gtest.h>

#include "api/engine.h"
#include "constraints/constraint_parser.h"
#include "exec/executor.h"
#include "query/query_parser.h"
#include "query/query_printer.h"
#include "sqo/optimizer.h"
#include "tests/test_util.h"

namespace sqopt {
namespace {

class FormulationGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(schema_, BuildExperimentSchema());
    catalog_ = std::make_unique<ConstraintCatalog>(&schema_);
    // The cycle: rating >= 8 <-> region = "west" (both directions), as
    // arises when rule mining adds the converse of an integrity rule.
    for (const char* text :
         {"fwd: supplier.rating >= 8 -> supplier.region = \"west\"",
          "bwd: supplier.region = \"west\" -> supplier.rating >= 8"}) {
      ASSERT_OK_AND_ASSIGN(HornClause clause,
                           ParseConstraint(schema_, text));
      ASSERT_OK(catalog_->AddConstraint(std::move(clause)));
    }
    stats_ = std::make_unique<AccessStats>(schema_.num_classes());
    ASSERT_OK(catalog_->Precompile(stats_.get()));
  }
  Schema schema_;
  std::unique_ptr<ConstraintCatalog> catalog_;
  std::unique_ptr<AccessStats> stats_;
};

TEST_F(FormulationGuardTest, MutualImplicationKeepsOneSide) {
  // Query holds one side of the cycle. The other side may be
  // introduced and the original may be re-tagged, but the final query
  // must retain at least one of the two — otherwise the segment filter
  // is lost entirely.
  ASSERT_OK_AND_ASSIGN(
      Query query,
      ParseQuery(schema_,
                 "{supplier.name} {} {supplier.rating >= 8} {} "
                 "{supplier}"));
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));

  auto rating = ParsePredicate(schema_, "supplier.rating >= 8");
  auto region = ParsePredicate(schema_, "supplier.region = \"west\"");
  ASSERT_TRUE(rating.ok() && region.ok());
  const auto& sel = result.query.selective_predicates;
  bool has_rating = std::find(sel.begin(), sel.end(), *rating) != sel.end();
  bool has_region = std::find(sel.begin(), sel.end(), *region) != sel.end();
  EXPECT_TRUE(has_rating || has_region)
      << PrintQuery(schema_, result.query);
}

TEST_F(FormulationGuardTest, ClassEliminationVetoedWithoutEntailment) {
  // Two-class query where supplier carries the only segment filter.
  // Eliminating supplier would drop rating >= 8 with nothing left to
  // entail it; the guard must veto the elimination (or keep an
  // entailing predicate alive — either way results are preserved).
  ASSERT_OK_AND_ASSIGN(
      Query query,
      ParseQuery(schema_,
                 "{cargo.code} {} {supplier.rating >= 8} {supplies} "
                 "{supplier, cargo}"));
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));

  // The supplier class must survive: no remaining predicate can entail
  // the rating filter once supplier's predicates are gone.
  ClassId supplier = schema_.FindClass("supplier");
  EXPECT_TRUE(result.query.ReferencesClass(supplier))
      << PrintQuery(schema_, result.query);

  // And on data, results must match.
  ASSERT_OK_AND_ASSIGN(
      auto store, GenerateDatabase(schema_, DbSpec{"G", 40, 80}, 5));
  ASSERT_OK_AND_ASSIGN(ResultSet original,
                       ExecuteQuery(*store, query, nullptr));
  ASSERT_OK_AND_ASSIGN(ResultSet transformed,
                       ExecuteQuery(*store, result.query, nullptr));
  EXPECT_TRUE(result.report.eliminated_classes.empty()
                  ? original.SameRows(transformed)
                  : original.SameDistinctRows(transformed));
}

TEST_F(FormulationGuardTest, LegitimateEliminationStillWorks) {
  // Here cargo's predicate entails the supplier filter through "bwd"'s
  // mirror — add the cross-class rule so elimination is justified.
  ASSERT_OK_AND_ASSIGN(
      HornClause cross,
      ParseConstraint(schema_,
                      "x: cargo.desc = \"frozen food\" -> supplier.region "
                      "= \"west\""));
  ASSERT_OK(catalog_->AddConstraint(std::move(cross)));
  ASSERT_OK(catalog_->Precompile(stats_.get()));

  ASSERT_OK_AND_ASSIGN(
      Query query,
      ParseQuery(schema_,
                 "{cargo.code} {} {cargo.desc = \"frozen food\", "
                 "supplier.region = \"west\"} {supplies} "
                 "{supplier, cargo}"));
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));
  // region = west is entailed by frozen food via x: supplier goes.
  ClassId supplier = schema_.FindClass("supplier");
  EXPECT_FALSE(result.query.ReferencesClass(supplier));
}

// A predicate that an elimination dropped stays in force only while the
// query left entails it. These two texts once lost it to a later
// change: a second elimination, and a profitability drop of an
// introduced predicate. Both run on the paper's DB4 with the
// experiment constraints, where the optimized answer must keep the
// oracle's distinct rows.
class FormulationInvariantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto engine = Engine::Open(SchemaSource::Experiment(),
                               ConstraintSource::Experiment());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = new Engine(std::move(engine).value());
    ASSERT_OK(
        engine_->Load(DataSource::Generated(DbSpec{"db4", 208, 616}, 11)));
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static void ExpectOracleRows(const std::string& text) {
    ASSERT_OK_AND_ASSIGN(QueryOutcome optimized, engine_->Execute(text));
    ASSERT_OK_AND_ASSIGN(QueryOutcome oracle,
                         engine_->ExecuteUnoptimized(text));
    EXPECT_TRUE(optimized.rows.SameDistinctRows(oracle.rows))
        << text << "\n  optimized to: "
        << PrintQuery(engine_->schema(), optimized.transformed) << "\n  "
        << optimized.rows.rows.size() << " rows against the oracle's "
        << oracle.rows.rows.size();
  }

  static Engine* engine_;
};

Engine* FormulationInvariantTest::engine_ = nullptr;

TEST_F(FormulationInvariantTest, SecondEliminationKeepsFirstDropEntailed) {
  // Eliminating vehicle is sound while the introduced cargo.desc =
  // "frozen food" entails its predicate; eliminating cargo next would
  // leave nothing to entail it.
  ExpectOracleRows(
      "{driver.name} {} {vehicle.desc = \"refrigerated truck\", "
      "driver.licenseClass >= 1} {collects, inspects} "
      "{vehicle, cargo, driver}");
}

TEST_F(FormulationInvariantTest, IntroducedPredicateDropKeepsEliminationSound) {
  // The step-5 drop of an introduced optional removed what entailed a
  // predicate of an eliminated class.
  ExpectOracleRows(
      "{vehicle.vehicleNo} {} {cargo.desc = \"frozen food\", "
      "department.securityClass <= 2} {supplies, collects, drives, "
      "belongsTo} {supplier, cargo, vehicle, driver, department}");
}

}  // namespace
}  // namespace sqopt
