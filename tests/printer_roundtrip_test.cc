// Printer round-trip property: PrintQuery output must re-parse via
// ParseQuery to an equivalent Query, for generated queries covering
// every schema path shape. Engine::Explain emits the transformed query
// in this textual form, so users can re-submit what Explain shows —
// the property is what makes that workflow sound.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.h"
#include "query/query_parser.h"
#include "tests/test_util.h"
#include "workload/example_schema.h"
#include "workload/path_enum.h"
#include "workload/query_gen.h"

namespace sqopt {
namespace {

void ExpectRoundTrips(const Schema& schema, const Query& query,
                      const std::string& context) {
  std::string text = PrintQuery(schema, query);
  auto reparsed = ParseQuery(schema, text);
  ASSERT_TRUE(reparsed.ok())
      << context << ": '" << text << "' failed to re-parse: "
      << reparsed.status().ToString();
  Query expected = query;
  Query actual = std::move(reparsed).value();
  expected.Normalize();
  actual.Normalize();
  EXPECT_EQ(expected, actual) << context << ": '" << text << "'";

  // The pretty form must round-trip too (it differs in whitespace
  // only, which the parser ignores).
  auto pretty = ParseQuery(schema, PrintQueryPretty(schema, query));
  ASSERT_TRUE(pretty.ok()) << context;
  Query pretty_query = std::move(pretty).value();
  pretty_query.Normalize();
  EXPECT_EQ(expected, pretty_query) << context;
}

TEST(PrinterRoundTripTest, PaperSampleQuery) {
  auto schema = BuildFigure21Schema();
  ASSERT_TRUE(schema.ok());
  auto query = Figure23SampleQuery(*schema);
  ASSERT_TRUE(query.ok());
  ExpectRoundTrips(*schema, *query, "figure 2.3");
}

// Property test over generated path queries: every sampled query —
// across path lengths, predicate menus, and projections — must
// round-trip.
TEST(PrinterRoundTripTest, GeneratedQueriesRoundTrip) {
  auto schema = BuildExperimentSchema();
  ASSERT_TRUE(schema.ok());
  std::vector<SchemaPath> paths = EnumerateSimplePaths(*schema, 1, 5);

  for (uint64_t seed : {1u, 1991u, 424242u}) {
    QueryGenOptions options;
    options.predicate_probability = 0.9;
    QueryGenerator gen(&*schema, seed, options);
    auto queries = gen.Sample(paths, 100);
    ASSERT_TRUE(queries.ok());
    for (size_t i = 0; i < queries->size(); ++i) {
      ExpectRoundTrips(*schema, (*queries)[i],
                       "seed " + std::to_string(seed) + " q" +
                           std::to_string(i));
    }
  }
}

// The transformed queries the optimizer emits (predicate introduction,
// elimination, class elimination) must round-trip as well — these are
// exactly the queries Engine::Explain prints.
TEST(PrinterRoundTripTest, TransformedQueriesRoundTrip) {
  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment());
  ASSERT_TRUE(opened.ok());
  Engine engine = std::move(opened).value();
  ASSERT_OK(engine.Load(
      DataSource::Generated(DbSpec{"roundtrip", 104, 154}, 7)));

  std::vector<SchemaPath> paths =
      EnumerateSimplePaths(engine.schema(), 1, 5);
  QueryGenOptions options;
  options.trigger_probability = 0.9;
  QueryGenerator gen(&engine.schema(), 1991, options);
  auto queries = gen.Sample(paths, 60);
  ASSERT_TRUE(queries.ok());

  size_t transformed_count = 0;
  for (size_t i = 0; i < queries->size(); ++i) {
    auto outcome = engine.Analyze((*queries)[i]);
    ASSERT_TRUE(outcome.ok());
    if (outcome->report.num_firings > 0) ++transformed_count;
    ExpectRoundTrips(engine.schema(), outcome->transformed,
                     "transformed q" + std::to_string(i));
  }
  // The property must have exercised real transformations, not just
  // identity rewrites.
  EXPECT_GT(transformed_count, 10u);
}

// Explain's "transformed:" line is the printer output; it must be
// directly re-submittable to the engine.
TEST(PrinterRoundTripTest, ExplainOutputReParses) {
  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment());
  ASSERT_TRUE(opened.ok());
  Engine engine = std::move(opened).value();

  const char* text =
      "{cargo.code} {} {cargo.desc = \"frozen food\", "
      "supplier.region = \"west\"} {supplies} {supplier, cargo}";
  auto explained = engine.Explain(text);
  ASSERT_TRUE(explained.ok());
  const std::string& out = *explained;
  size_t pos = out.find("transformed: ");
  ASSERT_NE(pos, std::string::npos) << out;
  size_t start = pos + std::string("transformed: ").size();
  size_t end = out.find('\n', start);
  std::string transformed_text = out.substr(start, end - start);

  auto reparsed = engine.Parse(transformed_text);
  ASSERT_TRUE(reparsed.ok())
      << "'" << transformed_text
      << "': " << reparsed.status().ToString();
  // No data, no plan.
  EXPECT_EQ(out.find("plan:"), std::string::npos) << out;
}

// With data loaded Explain prints the plan it prepared; a query proven
// empty has none to print.
TEST(PrinterRoundTripTest, ExplainPrintsPlanOnlyForLoadedSatisfiableQueries) {
  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment());
  ASSERT_TRUE(opened.ok());
  Engine engine = std::move(opened).value();
  ASSERT_TRUE(engine.Load(DataSource::Generated(
                              DbSpec{"explain", 104, 154}, 7)).ok());

  auto planned = engine.Explain(
      "{cargo.code} {} {cargo.desc = \"frozen food\", "
      "supplier.region = \"west\"} {supplies} {supplier, cargo}");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_NE(planned->find("\nplan:\n"), std::string::npos) << *planned;

  auto contradiction = engine.Explain(
      "{cargo.code} {} {vehicle.desc = \"refrigerated truck\", "
      "cargo.desc = \"fuel\"} {collects} {cargo, vehicle}");
  ASSERT_TRUE(contradiction.ok()) << contradiction.status().ToString();
  EXPECT_EQ(contradiction->find("plan:"), std::string::npos)
      << *contradiction;
  EXPECT_EQ(engine.stats().contradictions, 1u);
}

}  // namespace
}  // namespace sqopt
