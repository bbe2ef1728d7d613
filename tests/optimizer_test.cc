#include "sqo/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "constraints/constraint_parser.h"
#include "query/query_parser.h"
#include "query/query_printer.h"
#include "tests/test_util.h"

namespace sqopt {
namespace {

using sqopt::testing::PaperExampleFixture;

class OptimizerTest : public PaperExampleFixture {
 protected:
  Query Q(const std::string& text) {
    auto q = ParseQuery(schema_, text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }
  bool HasSelective(const Query& q, const std::string& text) {
    auto p = ParsePredicate(schema_, text);
    EXPECT_TRUE(p.ok());
    return std::find(q.selective_predicates.begin(),
                     q.selective_predicates.end(),
                     *p) != q.selective_predicates.end();
  }
};

// Section 3.5 end-to-end: the paper's worked example. No cost model —
// the paper's formulation keeps both optional predicates and then drops
// p2 via class elimination.
TEST_F(OptimizerTest, ReproducesPaperExample) {
  ASSERT_OK_AND_ASSIGN(Query query, Figure23SampleQuery(schema_));
  SemanticOptimizer optimizer(&schema_, catalog_.get(),
                              /*cost_model=*/nullptr);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));

  // Transformation #1 (introduce cargo.desc via c1) and #2 (lower
  // supplier.name via c2) both happened.
  EXPECT_GE(result.report.num_firings, 2u);

  // Final tags: p1 imperative; p2, p3 optional.
  for (const FinalPredicate& fp : result.report.final_predicates) {
    std::string text = fp.predicate.ToString(schema_);
    if (text == "vehicle.desc = \"refrigerated truck\"") {
      EXPECT_EQ(fp.tag, PredicateTag::kImperative);
    } else if (text == "supplier.name = \"SFI\"" ||
               text == "cargo.desc = \"frozen food\"") {
      EXPECT_EQ(fp.tag, PredicateTag::kOptional) << text;
    }
  }

  // Supplier class eliminated, dropping p2.
  ClassId supplier = schema_.FindClass("supplier");
  EXPECT_FALSE(result.query.ReferencesClass(supplier));
  ASSERT_EQ(result.report.eliminated_classes.size(), 1u);
  EXPECT_EQ(result.report.eliminated_classes[0], supplier);

  // Transformed query: {vehicle.desc = RT, cargo.desc = FF} {collects}
  // {cargo, vehicle}.
  EXPECT_TRUE(HasSelective(result.query,
                           "vehicle.desc = \"refrigerated truck\""));
  EXPECT_TRUE(HasSelective(result.query, "cargo.desc = \"frozen food\""));
  EXPECT_FALSE(HasSelective(result.query, "supplier.name = \"SFI\""));
  EXPECT_EQ(result.query.classes.size(), 2u);
  EXPECT_EQ(result.query.relationships.size(), 1u);
  EXPECT_EQ(schema_.relationship(result.query.relationships[0]).name,
            "collects");
  EXPECT_FALSE(result.empty_result);
}

TEST_F(OptimizerTest, ExactModeAlsoReproducesPaperExample) {
  ASSERT_OK_AND_ASSIGN(Query query, Figure23SampleQuery(schema_));
  OptimizerOptions options;
  options.match_mode = MatchMode::kExact;
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr, options);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));
  EXPECT_TRUE(HasSelective(result.query, "cargo.desc = \"frozen food\""));
  EXPECT_EQ(result.query.classes.size(), 2u);
}

TEST_F(OptimizerTest, QueryWithoutRelevantConstraintsIsUntouched) {
  Query query = Q("{engine.capacity} {} {engine.capacity >= 100} {} "
                  "{engine}");
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));
  EXPECT_EQ(result.report.num_firings, 0u);
  EXPECT_EQ(result.query, query);
}

TEST_F(OptimizerTest, RequiresPrecompiledCatalog) {
  ConstraintCatalog fresh(&schema_);
  SemanticOptimizer optimizer(&schema_, &fresh, nullptr);
  Query query = Q("{engine.capacity} {} {} {} {engine}");
  auto result = optimizer.Optimize(query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(OptimizerTest, RejectsInvalidQuery) {
  Query bogus;  // no classes
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr);
  EXPECT_FALSE(optimizer.Optimize(bogus).ok());
}

// The antecedent-free constraints c3/c4 fire purely on class presence.
TEST_F(OptimizerTest, AntecedentFreeConstraintIntroducesJoinPredicate) {
  Query query =
      Q("{driver.name, vehicle.vehicle#} {} {} {drives} {driver, vehicle}");
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));
  // c3 introduces driver.licenseClass >= vehicle.class as optional.
  bool found = false;
  for (const FinalPredicate& fp : result.report.final_predicates) {
    if (fp.predicate.is_attr_attr()) {
      EXPECT_EQ(fp.tag, PredicateTag::kOptional);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(result.query.join_predicates.size(), 1u);
}

TEST_F(OptimizerTest, IntraClassConstraintYieldsRedundantNonIndexed) {
  // c4: -> manager.rank = "research staff member". rank is NOT indexed,
  // c4 is intra-class: Table 3.2 says the introduced predicate is
  // redundant, i.e. never added to the final query.
  Query query = Q("{manager.name} {} {} {} {manager}");
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));
  bool saw_rank = false;
  for (const FinalPredicate& fp : result.report.final_predicates) {
    if (fp.predicate.ToString(schema_) ==
        "manager.rank = \"research staff member\"") {
      saw_rank = true;
      EXPECT_EQ(fp.tag, PredicateTag::kRedundant);
      EXPECT_FALSE(fp.retained);
    }
  }
  EXPECT_TRUE(saw_rank);
  EXPECT_TRUE(result.query.selective_predicates.empty());
}

TEST_F(OptimizerTest, IgnoreIndexesPolicyMatchesPseudocode) {
  // Under kIgnoreIndexes an intra-class firing is always redundant even
  // if the consequent attribute is indexed. Add such a constraint.
  auto extra = ParseConstraint(
      schema_,
      "ci: cargo.quantity >= 100 -> cargo.desc = \"frozen food\"");
  ASSERT_TRUE(extra.ok());
  ASSERT_OK(catalog_->AddConstraint(std::move(*extra)));
  ASSERT_OK(catalog_->Precompile(stats_.get()));

  Query query =
      Q("{cargo.code} {} {cargo.quantity >= 100} {} {cargo}");

  OptimizerOptions aware;  // default kIndexAware
  SemanticOptimizer opt_aware(&schema_, catalog_.get(), nullptr, aware);
  ASSERT_OK_AND_ASSIGN(OptimizeResult aware_result,
                       opt_aware.Optimize(query));
  // cargo.desc is indexed -> introduced as optional, retained (no cost
  // model).
  EXPECT_TRUE(HasSelective(aware_result.query,
                           "cargo.desc = \"frozen food\""));

  OptimizerOptions ignore;
  ignore.tag_policy = TagPolicy::kIgnoreIndexes;
  SemanticOptimizer opt_ignore(&schema_, catalog_.get(), nullptr, ignore);
  ASSERT_OK_AND_ASSIGN(OptimizeResult ignore_result,
                       opt_ignore.Optimize(query));
  EXPECT_FALSE(HasSelective(ignore_result.query,
                            "cargo.desc = \"frozen food\""));
}

TEST_F(OptimizerTest, BudgetLimitsFirings) {
  ASSERT_OK_AND_ASSIGN(Query query, Figure23SampleQuery(schema_));
  OptimizerOptions options;
  options.transformation_budget = 1;
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr, options);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));
  EXPECT_EQ(result.report.num_firings, 1u);
  EXPECT_TRUE(result.report.budget_exhausted);
}

TEST_F(OptimizerTest, ClassEliminationCanBeDisabled) {
  ASSERT_OK_AND_ASSIGN(Query query, Figure23SampleQuery(schema_));
  OptimizerOptions options;
  options.enable_class_elimination = false;
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr, options);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));
  EXPECT_EQ(result.query.classes.size(), 3u);
  EXPECT_TRUE(result.report.eliminated_classes.empty());
  // p2 survives as an optional predicate.
  EXPECT_TRUE(HasSelective(result.query, "supplier.name = \"SFI\""));
}

TEST_F(OptimizerTest, ContradictionShortCircuits) {
  // Query asks for refrigerated trucks carrying fuel; c1 entails the
  // cargo is frozen food — unsatisfiable, so the answer is empty in any
  // consistent database state.
  Query query = Q(R"(
(SELECT {cargo.code} {}
        {vehicle.desc = "refrigerated truck", cargo.desc = "fuel"}
        {collects} {cargo, vehicle}))");
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));
  EXPECT_TRUE(result.empty_result);
  EXPECT_TRUE(result.report.empty_result);
}

TEST_F(OptimizerTest, PriorityQueueWithBudgetPrefersIndexIntroduction) {
  // Two fireable constraints: c1 introduces cargo.desc (indexed) and a
  // fresh one introduces a NON-indexed predicate. With budget 1 the
  // priority queue must spend it on the index introduction.
  auto extra = ParseConstraint(
      schema_,
      "cn: vehicle.desc = \"refrigerated truck\" -> cargo.quantity >= 1");
  ASSERT_TRUE(extra.ok());
  ASSERT_OK(catalog_->AddConstraint(std::move(*extra)));
  ASSERT_OK(catalog_->Precompile(stats_.get()));

  Query query = Q(R"(
(SELECT {cargo.code} {}
        {vehicle.desc = "refrigerated truck"}
        {collects} {cargo, vehicle}))");

  OptimizerOptions options;
  options.queue = QueueDiscipline::kPriority;
  options.transformation_budget = 1;
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr, options);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));
  ASSERT_EQ(result.report.steps.size(), 1u);
  EXPECT_TRUE(result.report.steps[0].index_introduction);
  EXPECT_TRUE(HasSelective(result.query, "cargo.desc = \"frozen food\""));
  EXPECT_FALSE(HasSelective(result.query, "cargo.quantity >= 1"));
}

TEST_F(OptimizerTest, ReportRendersWithoutCrashing) {
  ASSERT_OK_AND_ASSIGN(Query query, Figure23SampleQuery(schema_));
  SemanticOptimizer optimizer(&schema_, catalog_.get(), nullptr);
  ASSERT_OK_AND_ASSIGN(OptimizeResult result, optimizer.Optimize(query));
  std::string text = result.report.ToString(schema_);
  EXPECT_NE(text.find("relevant constraints"), std::string::npos);
  EXPECT_NE(text.find("fire"), std::string::npos);
}

}  // namespace
}  // namespace sqopt
