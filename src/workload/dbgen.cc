#include "workload/dbgen.h"

#include <algorithm>
#include <array>

#include "catalog/schema_builder.h"
#include "common/rng.h"

namespace sqopt {

Result<Schema> BuildExperimentSchema() {
  SchemaBuilder b;
  b.AddClass("supplier")
      .Attr("name", ValueType::kString, /*indexed=*/true)
      .Attr("region", ValueType::kString, /*indexed=*/true)
      .Attr("rating", ValueType::kInt);
  b.AddClass("cargo")
      .Attr("code", ValueType::kString, /*indexed=*/true)
      .Attr("desc", ValueType::kString, /*indexed=*/true)
      .Attr("quantity", ValueType::kInt)
      .Attr("weight", ValueType::kInt);
  b.AddClass("vehicle")
      .Attr("vehicleNo", ValueType::kInt, /*indexed=*/true)
      .Attr("desc", ValueType::kString, /*indexed=*/true)
      .Attr("vclass", ValueType::kInt)
      .Attr("capacity", ValueType::kInt);
  b.AddClass("driver")
      .Attr("name", ValueType::kString, /*indexed=*/true)
      .Attr("clearance", ValueType::kString)
      .Attr("rank", ValueType::kString)
      .Attr("licenseClass", ValueType::kInt, /*indexed=*/true);
  b.AddClass("department")
      .Attr("name", ValueType::kString, /*indexed=*/true)
      .Attr("securityClass", ValueType::kInt, /*indexed=*/true)
      .Attr("budget", ValueType::kInt);

  b.AddRelationship("supplies", "supplier", "cargo");
  b.AddRelationship("collects", "cargo", "vehicle");
  b.AddRelationship("drives", "driver", "vehicle");
  b.AddRelationship("belongsTo", "driver", "department");
  b.AddRelationship("shipsTo", "supplier", "department");
  b.AddRelationship("inspects", "driver", "cargo");
  return b.Build();
}

std::vector<DbSpec> PaperDatabases() {
  return {
      DbSpec{"DB1", 52, 77},
      DbSpec{"DB2", 104, 154},
      DbSpec{"DB3", 208, 308},
      DbSpec{"DB4", 208, 616},
  };
}

namespace {

// Segment-determined attribute vocabulary. Index = segment.
constexpr std::array<const char*, kNumSegments> kVehicleDesc = {
    "refrigerated truck", "tanker", "van", "flatbed"};
constexpr std::array<const char*, kNumSegments> kCargoDesc = {
    "frozen food", "fuel", "parcels", "timber"};
constexpr std::array<const char*, kNumSegments> kRegion = {"west", "north",
                                                           "east", "south"};
constexpr std::array<const char*, kNumSegments> kClearance = {
    "top secret", "secret", "confidential", "public"};

}  // namespace

Result<Object> MakeSegmentObject(const Schema& schema, ClassId class_id,
                                 int segment, int64_t ordinal) {
  if (segment < 0 || segment >= kNumSegments) {
    return Status::InvalidArgument("segment out of range");
  }
  const int seg = segment;
  const std::string tag = "-w" + std::to_string(ordinal);
  const std::string& name = schema.object_class(class_id).name;
  Object obj;
  // Values sit at fixed points of the ranges GenerateDatabase samples,
  // so every ExperimentConstraints clause holds by the same argument.
  if (name == "supplier") {
    obj.values = {Value::String("supplier" + tag),
                  Value::String(kRegion[seg]),
                  Value::Int(seg == 0 ? 9 : 5)};
  } else if (name == "cargo") {
    obj.values = {Value::String("cargo" + tag),
                  Value::String(kCargoDesc[seg]),
                  Value::Int(seg == 0 ? 100 : 700),
                  Value::Int(seg == 0 ? 20 : 60)};
  } else if (name == "vehicle") {
    obj.values = {Value::Int(100000 + ordinal),
                  Value::String(kVehicleDesc[seg]), Value::Int(4 - seg),
                  Value::Int(seg <= 1 ? 30 : 10)};
  } else if (name == "driver") {
    obj.values = {Value::String("driver" + tag),
                  Value::String(kClearance[seg]),
                  Value::String(seg <= 1 ? "senior" : "junior"),
                  Value::Int(4 - seg)};
  } else if (name == "department") {
    obj.values = {Value::String("dept" + tag), Value::Int(4 - seg),
                  Value::Int(seg == 0 ? 150000 : 50000)};
  } else {
    return Status::InvalidArgument(
        "MakeSegmentObject requires the experiment schema (got class '" +
        name + "')");
  }
  return obj;
}

Result<std::unique_ptr<ObjectStore>> GenerateDatabase(const Schema& schema,
                                                      const DbSpec& spec,
                                                      uint64_t seed) {
  auto store = std::make_unique<ObjectStore>(&schema);
  Rng rng(seed);

  ClassId supplier = schema.FindClass("supplier");
  ClassId cargo = schema.FindClass("cargo");
  ClassId vehicle = schema.FindClass("vehicle");
  ClassId driver = schema.FindClass("driver");
  ClassId department = schema.FindClass("department");
  if (supplier == kInvalidClass || cargo == kInvalidClass ||
      vehicle == kInvalidClass || driver == kInvalidClass ||
      department == kInvalidClass) {
    return Status::InvalidArgument(
        "GenerateDatabase requires the experiment schema");
  }

  int64_t n = spec.class_cardinality;

  // Attribute values are functions of the segment so that every clause
  // of ExperimentConstraints() holds by construction (segments are
  // join-closed). Per-class generation, round-robin segments.
  for (int64_t i = 0; i < n; ++i) {
    int seg = SegmentOfRow(i);
    // supplier(name, region, rating): rating >= 8 iff seg 0.
    Object s;
    s.values = {Value::String("supplier-" + std::to_string(i)),
                Value::String(kRegion[seg]),
                Value::Int(seg == 0 ? rng.UniformInt(8, 10)
                                    : rng.UniformInt(1, 7))};
    SQOPT_RETURN_IF_ERROR(store->Insert(supplier, std::move(s)).status());

    // cargo(code, desc, quantity, weight): weight <= 40 iff seg 0;
    // quantity >= 500 iff seg != 0.
    Object c;
    c.values = {Value::String("cargo-" + std::to_string(i)),
                Value::String(kCargoDesc[seg]),
                Value::Int(seg == 0 ? rng.UniformInt(1, 499)
                                    : rng.UniformInt(500, 1000)),
                Value::Int(seg == 0 ? rng.UniformInt(10, 40)
                                    : rng.UniformInt(41, 100))};
    SQOPT_RETURN_IF_ERROR(store->Insert(cargo, std::move(c)).status());

    // vehicle(vehicleNo, desc, vclass, capacity): vclass = 4 - seg;
    // capacity >= 20 iff seg in {0, 1}.
    Object v;
    v.values = {Value::Int(i),
                Value::String(kVehicleDesc[seg]),
                Value::Int(4 - seg),
                Value::Int(seg <= 1 ? rng.UniformInt(20, 50)
                                    : rng.UniformInt(5, 19))};
    SQOPT_RETURN_IF_ERROR(store->Insert(vehicle, std::move(v)).status());

    // driver(name, clearance, rank, licenseClass): licenseClass = 4-seg,
    // rank senior iff seg in {0, 1}.
    Object d;
    d.values = {Value::String("driver-" + std::to_string(i)),
                Value::String(kClearance[seg]),
                Value::String(seg <= 1 ? "senior" : "junior"),
                Value::Int(4 - seg)};
    SQOPT_RETURN_IF_ERROR(store->Insert(driver, std::move(d)).status());

    // department(name, securityClass, budget): securityClass = 4 - seg,
    // budget >= 100000 iff seg 0.
    Object dept;
    dept.values = {Value::String("dept-" + std::to_string(i)),
                   Value::Int(4 - seg),
                   Value::Int(seg == 0 ? rng.UniformInt(100000, 200000)
                                       : rng.UniformInt(10000, 99999))};
    SQOPT_RETURN_IF_ERROR(store->Insert(department, std::move(dept)).status());
  }

  // Relationship instances: uniform within-segment pairs. Row r belongs
  // to segment r % kNumSegments, so we sample a segment, then rows
  // congruent to it.
  auto sample_row = [&](int seg) -> int64_t {
    int64_t per_seg = (n - seg + kNumSegments - 1) / kNumSegments;
    if (per_seg <= 0) return seg;  // degenerate tiny n
    int64_t k = rng.UniformInt(0, per_seg - 1);
    return seg + k * kNumSegments;
  };
  for (const Relationship& rel : schema.relationships()) {
    // Totality first: the diagonal pairing (row i with row i) keeps
    // segments aligned and guarantees every object participates in
    // every relationship it can. King's class elimination rule — and
    // hence the paper's Figure 2.3 transformation — is only
    // result-preserving when dangling classes are total.
    int64_t diagonal = std::min(n, spec.rel_cardinality);
    for (int64_t i = 0; i < diagonal; ++i) {
      SQOPT_RETURN_IF_ERROR(store->Link(rel.id, i, i));
    }
    for (int64_t i = diagonal; i < spec.rel_cardinality; ++i) {
      // Pairs are unique (Link rejects duplicates); retry on collision.
      bool linked = false;
      for (int attempt = 0; attempt < 1000 && !linked; ++attempt) {
        int seg = static_cast<int>(rng.Index(kNumSegments));
        int64_t row_a = sample_row(seg);
        int64_t row_b = sample_row(seg);
        Status link_status = store->Link(rel.id, row_a, row_b);
        if (link_status.ok()) {
          linked = true;
        } else if (link_status.code() != StatusCode::kAlreadyExists) {
          return link_status;
        }
      }
      if (!linked) {
        return Status::Internal(
            "could not place a unique relationship pair for '" + rel.name +
            "'; segment too saturated");
      }
    }
  }
  return store;
}

}  // namespace sqopt
