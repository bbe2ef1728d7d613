// Logistics fleet scenario: the transport workload the paper's intro
// motivates. Opens an Engine on the experiment schema, loads a
// mid-sized database, runs a handful of fleet management queries with
// and without semantic optimization, and prints measured execution
// costs side by side.
//
//   $ ./examples/logistics_fleet [class_cardinality] [rel_cardinality]
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "api/engine.h"

namespace {

void Die(const sqopt::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(sqopt::Result<T> result) {
  if (!result.ok()) Die(result.status());
  return std::move(result).value();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqopt;

  DbSpec spec{"fleet", 208, 616};  // DB4-sized by default
  if (argc > 1) spec.class_cardinality = std::atol(argv[1]);
  if (argc > 2) spec.rel_cardinality = std::atol(argv[2]);

  Engine engine = Unwrap(Engine::Open(SchemaSource::Experiment(),
                                      ConstraintSource::Experiment()));

  std::printf("generating fleet database: %ld objects/class, %ld "
              "pairs/relationship...\n",
              static_cast<long>(spec.class_cardinality),
              static_cast<long>(spec.rel_cardinality));
  Status s = engine.Load(DataSource::Generated(spec, /*seed=*/20260612));
  if (!s.ok()) Die(s);

  const std::vector<std::pair<const char*, const char*>> queries = {
      {"Which cargos do our refrigerated trucks collect?",
       R"(( SELECT {cargo.code, vehicle.vehicleNo} {}
            {vehicle.desc = "refrigerated truck"}
            {collects} {cargo, vehicle} ))"},
      {"Frozen-food cargo from west-region suppliers",
       R"(( SELECT {cargo.code} {}
            {cargo.desc = "frozen food", supplier.region = "west"}
            {supplies} {supplier, cargo} ))"},
      {"Can a refrigerated truck ever haul fuel? (contradiction)",
       R"(( SELECT {cargo.code} {}
            {vehicle.desc = "refrigerated truck", cargo.desc = "fuel"}
            {collects} {cargo, vehicle} ))"},
      {"Drivers cleared for high-security departments",
       R"(( SELECT {driver.name} {}
            {department.securityClass >= 4}
            {belongsTo} {driver, department} ))"},
      {"Senior drivers inspecting heavy cargo (neutral for SQO)",
       R"(( SELECT {driver.name, cargo.code} {}
            {driver.rank = "senior", cargo.weight >= 80}
            {inspects} {driver, cargo} ))"},
  };

  for (const auto& [title, text] : queries) {
    QueryOutcome original = Unwrap(engine.ExecuteUnoptimized(text));
    QueryOutcome optimized = Unwrap(engine.Execute(text));

    std::printf("\n--- %s ---\n", title);
    std::printf("original:    %s\n",
                PrintQuery(engine.schema(), original.original).c_str());
    std::printf("transformed: %s%s\n",
                PrintQuery(engine.schema(), optimized.transformed).c_str(),
                optimized.answered_without_database
                    ? "  [EMPTY — answered without DB]"
                    : "");
    std::printf("firings: %zu, eliminated classes: %zu, rows: %zu -> %zu\n",
                optimized.report.num_firings,
                optimized.report.eliminated_classes.size(),
                original.rows.rows.size(), optimized.rows.rows.size());
    double oc = original.meter.CostUnits();
    double tc = optimized.meter.CostUnits();
    std::printf("measured cost units: %.2f -> %.2f (%.0f%%)\n", oc, tc,
                oc > 0 ? 100.0 * tc / oc : 0.0);
  }
  return 0;
}
