// Experiment database generator reproducing Table 4.1.
//
// The paper evaluates on a 5-class, 6-relationship schema with the
// database sizes of Table 4.1 (the exact schema is not printed; we use
// a 5-class cut of the transport domain with 6 relationships — see
// DESIGN.md "Substitutions"). Data generation is *segmented*: every
// object belongs to one of kNumSegments worlds, relationship instances
// only link objects within a segment, and segment membership determines
// the constrained attribute values. Because joins can never cross
// segments, every inter-class constraint of ExperimentConstraints()
// holds along ANY join path, which keeps semantic optimization sound on
// this data (optimized and original queries return identical results).
#ifndef SQOPT_WORKLOAD_DBGEN_H_
#define SQOPT_WORKLOAD_DBGEN_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/object_store.h"

namespace sqopt {

inline constexpr int kNumSegments = 4;

// Classes: supplier, cargo, vehicle, driver, department.
// Relationships (6): supplies(supplier,cargo), collects(cargo,vehicle),
// drives(driver,vehicle), belongsTo(driver,department),
// shipsTo(supplier,department), inspects(driver,cargo).
Result<Schema> BuildExperimentSchema();

// One database instance configuration (a row of Table 4.1).
struct DbSpec {
  std::string name;
  int64_t class_cardinality = 52;  // average instances per class
  int64_t rel_cardinality = 77;    // average pairs per relationship
};

// DB1..DB4 exactly as in Table 4.1: cardinalities (52,77), (104,154),
// (208,308), (208,616).
std::vector<DbSpec> PaperDatabases();

// Generates a store satisfying every ExperimentConstraints() clause.
// Deterministic in `seed`.
Result<std::unique_ptr<ObjectStore>> GenerateDatabase(const Schema& schema,
                                                      const DbSpec& spec,
                                                      uint64_t seed);

// The segment an object row was assigned by GenerateDatabase (row-major
// round robin; exposed for tests).
inline int SegmentOfRow(int64_t row) {
  return static_cast<int>(row % kNumSegments);
}

// Deterministic, constraint-consistent attribute values for one new
// object of `class_id` in `segment` — the write-path counterpart of
// GenerateDatabase's value model, used by mutation workloads (fuzzers,
// benches) to grow a database without breaking any of the 15
// ExperimentConstraints. `ordinal` seeds only the name-like
// attributes, so objects of one segment are interchangeable w.r.t.
// every constraint. Requires the experiment schema.
Result<Object> MakeSegmentObject(const Schema& schema, ClassId class_id,
                                 int segment, int64_t ordinal);

}  // namespace sqopt

#endif  // SQOPT_WORKLOAD_DBGEN_H_
