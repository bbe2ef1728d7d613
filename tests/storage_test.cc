#include "storage/object_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>

#include "tests/test_util.h"
#include "workload/dbgen.h"

namespace sqopt {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(schema_, BuildExperimentSchema());
    store_ = std::make_unique<ObjectStore>(&schema_);
    cargo_ = schema_.FindClass("cargo");
    vehicle_ = schema_.FindClass("vehicle");
    collects_ = schema_.FindRelationship("collects");
  }

  Object Cargo(const std::string& code, const std::string& desc,
               int64_t quantity, int64_t weight) {
    Object o;
    o.values = {Value::String(code), Value::String(desc),
                Value::Int(quantity), Value::Int(weight)};
    return o;
  }
  Object Vehicle(int64_t no, const std::string& desc, int64_t vclass,
                 int64_t capacity) {
    Object o;
    o.values = {Value::Int(no), Value::String(desc), Value::Int(vclass),
                Value::Int(capacity)};
    return o;
  }

  Schema schema_;
  std::unique_ptr<ObjectStore> store_;
  ClassId cargo_, vehicle_;
  RelId collects_;
};

TEST_F(StorageTest, InsertAndReadBack) {
  ASSERT_OK_AND_ASSIGN(int64_t row,
                       store_->Insert(cargo_, Cargo("c1", "fuel", 10, 50)));
  EXPECT_EQ(row, 0);
  EXPECT_EQ(store_->NumObjects(cargo_), 1);
  AttrRef desc = schema_.ResolveQualified("cargo.desc").value();
  EXPECT_EQ(store_->extent(cargo_).ValueAt(0, desc.attr_id),
            Value::String("fuel"));
}

TEST_F(StorageTest, InsertRejectsWrongArity) {
  Object bad;
  bad.values = {Value::Int(1)};
  auto result = store_->Insert(cargo_, std::move(bad));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, IndexesMaintainedOnInsert) {
  ASSERT_OK(store_->Insert(cargo_, Cargo("a", "fuel", 1, 1)).status());
  ASSERT_OK(store_->Insert(cargo_, Cargo("b", "frozen food", 2, 2)).status());
  ASSERT_OK(store_->Insert(cargo_, Cargo("c", "fuel", 3, 3)).status());

  AttrRef desc = schema_.ResolveQualified("cargo.desc").value();
  const AttributeIndex* index = store_->GetIndex(desc);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->size(), 3u);
  std::vector<int64_t> fuel = index->Equal(Value::String("fuel"));
  EXPECT_EQ(fuel.size(), 2u);
  std::vector<int64_t> nothing = index->Equal(Value::String("timber"));
  EXPECT_TRUE(nothing.empty());
}

TEST_F(StorageTest, NoIndexOnUnindexedAttribute) {
  AttrRef weight = schema_.ResolveQualified("cargo.weight").value();
  EXPECT_EQ(store_->GetIndex(weight), nullptr);
}

TEST_F(StorageTest, IndexRangeLookups) {
  AttrRef vno = schema_.ResolveQualified("vehicle.vehicleNo").value();
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_OK(store_->Insert(vehicle_, Vehicle(i, "van", 1, 10)).status());
  }
  const AttributeIndex* index = store_->GetIndex(vno);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Lookup(CompareOp::kLt, Value::Int(3)).size(), 3u);
  EXPECT_EQ(index->Lookup(CompareOp::kLe, Value::Int(3)).size(), 4u);
  EXPECT_EQ(index->Lookup(CompareOp::kGt, Value::Int(7)).size(), 2u);
  EXPECT_EQ(index->Lookup(CompareOp::kGe, Value::Int(7)).size(), 3u);
  EXPECT_EQ(index->Lookup(CompareOp::kNe, Value::Int(5)).size(), 9u);
  EXPECT_EQ(index->Lookup(CompareOp::kEq, Value::Int(5)).size(), 1u);
}

// Lookup returns rows ascending whatever the key order: an equality
// run comes back row-ordered from the tree, and a range's per-key runs
// are merged.
TEST_F(StorageTest, IndexLookupsReturnRowsAscending) {
  AttrRef vno = schema_.ResolveQualified("vehicle.vehicleNo").value();
  auto key_of = [](int64_t row) { return Value::Int((row * 7) % 10); };
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_OK(store_->Insert(vehicle_, Vehicle((i * 7) % 10, "van", 1, 10))
                  .status());
  }
  const AttributeIndex* index = store_->GetIndex(vno);
  ASSERT_NE(index, nullptr);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kLe,
                       CompareOp::kGt, CompareOp::kGe, CompareOp::kNe}) {
    std::vector<int64_t> want;
    for (int64_t row = 0; row < 100; ++row) {
      if (EvalCompare(key_of(row), op, Value::Int(4))) want.push_back(row);
    }
    EXPECT_EQ(index->Lookup(op, Value::Int(4)), want)
        << "op " << static_cast<int>(op);
  }
}

TEST_F(StorageTest, LinkAndPartners) {
  ASSERT_OK(store_->Insert(cargo_, Cargo("a", "fuel", 1, 1)).status());
  ASSERT_OK(store_->Insert(cargo_, Cargo("b", "fuel", 2, 2)).status());
  ASSERT_OK(store_->Insert(vehicle_, Vehicle(1, "van", 1, 10)).status());
  ASSERT_OK(store_->Link(collects_, /*cargo=*/0, /*vehicle=*/0));
  ASSERT_OK(store_->Link(collects_, /*cargo=*/1, /*vehicle=*/0));

  EXPECT_EQ(store_->NumPairs(collects_), 2);
  // From the cargo side.
  EXPECT_EQ(store_->Partners(collects_, cargo_, 0).size(), 1u);
  // From the vehicle side: both cargos.
  EXPECT_EQ(store_->Partners(collects_, vehicle_, 0).size(), 2u);
  // Unlinked row: empty, not a crash.
  EXPECT_TRUE(store_->Partners(collects_, cargo_, 1).size() == 1u);
}

TEST_F(StorageTest, LinkRejectsBadRows) {
  ASSERT_OK(store_->Insert(cargo_, Cargo("a", "fuel", 1, 1)).status());
  Status s = store_->Link(collects_, 0, 99);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST_F(StorageTest, DistinctValuesAndMinMax) {
  ASSERT_OK(store_->Insert(cargo_, Cargo("a", "fuel", 5, 10)).status());
  ASSERT_OK(store_->Insert(cargo_, Cargo("b", "fuel", 7, 30)).status());
  ASSERT_OK(store_->Insert(cargo_, Cargo("c", "timber", 5, 20)).status());
  AttrRef desc = schema_.ResolveQualified("cargo.desc").value();
  AttrRef weight = schema_.ResolveQualified("cargo.weight").value();
  EXPECT_EQ(store_->DistinctValues(desc), 2);
  EXPECT_EQ(store_->DistinctValues(weight), 3);
  auto [min, max] = store_->MinMax(weight);
  EXPECT_EQ(min, Value::Int(10));
  EXPECT_EQ(max, Value::Int(30));
}

TEST_F(StorageTest, MinMaxOnEmptyExtent) {
  AttrRef weight = schema_.ResolveQualified("cargo.weight").value();
  auto [min, max] = store_->MinMax(weight);
  EXPECT_TRUE(min.is_null());
  EXPECT_TRUE(max.is_null());
}

TEST_F(StorageTest, PartitionExtentCoversEveryRowOnceInOrder) {
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_OK(
        store_->Insert(cargo_, Cargo("c" + std::to_string(i), "parcels",
                                     i, i))
            .status());
  }
  std::vector<Morsel> morsels = store_->PartitionExtent(cargo_, 4);
  ASSERT_EQ(morsels.size(), 3u);  // 4 + 4 + 2
  int64_t expected_begin = 0;
  for (const Morsel& m : morsels) {
    EXPECT_EQ(m.begin, expected_begin);
    EXPECT_GT(m.end, m.begin);
    EXPECT_LE(m.size(), 4);
    expected_begin = m.end;
  }
  EXPECT_EQ(expected_begin, store_->NumObjects(cargo_));
}

TEST_F(StorageTest, PartitionExtentEdgeCases) {
  // Empty extent: no morsels.
  EXPECT_TRUE(store_->PartitionExtent(cargo_, 4).empty());
  ASSERT_OK(store_->Insert(cargo_, Cargo("c0", "fuel", 1, 1)).status());
  // Morsel larger than the extent: one morsel, exact bounds.
  std::vector<Morsel> one = store_->PartitionExtent(cargo_, 100);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].begin, 0);
  EXPECT_EQ(one[0].end, 1);
  // Non-positive morsel size falls back to the default, never throws.
  std::vector<Morsel> fallback = store_->PartitionExtent(cargo_, 0);
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_EQ(fallback[0].size(), 1);
}

TEST_F(StorageTest, ExtentSplitsIntoFixedSizeSegments) {
  // 2050 rows = two full 1024-row segments + one 2-row tail.
  for (int64_t i = 0; i < 2050; ++i) {
    ASSERT_OK_AND_ASSIGN(
        int64_t row,
        store_->Insert(cargo_, Cargo("c" + std::to_string(i), "fuel",
                                     i, i % 100)));
    ASSERT_EQ(row, i);
  }
  const Extent& extent = store_->extent(cargo_);
  EXPECT_EQ(extent.size(), 2050);
  EXPECT_EQ(extent.num_segments(), 3);
  AttrRef qty = schema_.ResolveQualified("cargo.quantity").value();
  // Rows on both sides of every segment boundary read back correctly.
  for (int64_t row : {int64_t{0}, int64_t{1023}, int64_t{1024},
                      int64_t{2047}, int64_t{2048}, int64_t{2049}}) {
    EXPECT_EQ(extent.ValueAt(row, qty.attr_id), Value::Int(row));
  }
}

TEST_F(StorageTest, CloneForWriteSplitsOnlyTheDirtySegment) {
  for (int64_t i = 0; i < 2050; ++i) {
    ASSERT_OK(store_->Insert(cargo_, Cargo("c" + std::to_string(i),
                                           "fuel", i, i % 100))
                  .status());
  }
  AttrRef weight = schema_.ResolveQualified("cargo.weight").value();
  std::unique_ptr<ObjectStore> clone = store_->CloneForWrite();
  const Extent& base = store_->extent(cargo_);
  const Extent& copy = clone->extent(cargo_);
  // The clone is a shell: all three segments shared with the base.
  for (int64_t row : {int64_t{0}, int64_t{1500}, int64_t{2049}}) {
    EXPECT_EQ(base.SegmentIdentity(row), copy.SegmentIdentity(row));
  }

  // One single-row update on the clone splits off EXACTLY the segment
  // holding that row.
  ASSERT_OK(clone->UpdateAttribute(cargo_, 1500, weight.attr_id,
                                   Value::Int(999)));
  EXPECT_NE(base.SegmentIdentity(1500), copy.SegmentIdentity(1500));
  EXPECT_EQ(base.SegmentIdentity(0), copy.SegmentIdentity(0));
  EXPECT_EQ(base.SegmentIdentity(2049), copy.SegmentIdentity(2049));

  // The pinned base snapshot still reads the pre-image.
  EXPECT_EQ(base.ValueAt(1500, weight.attr_id), Value::Int(1500 % 100));
  EXPECT_EQ(copy.ValueAt(1500, weight.attr_id), Value::Int(999));
}

TEST_F(StorageTest, ColumnsUseDeclaredTypedEncodings) {
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_OK(store_
                  ->Insert(cargo_, Cargo("c" + std::to_string(i), "fuel",
                                         i, i % 100))
                  .status());
  }
  const Extent& extent = store_->extent(cargo_);
  const SegmentBatch batch = extent.Batch(0);
  AttrRef code = schema_.ResolveQualified("cargo.code").value();
  AttrRef qty = schema_.ResolveQualified("cargo.quantity").value();
  const int code_slot = extent.SlotOf(code.attr_id);
  const int qty_slot = extent.SlotOf(qty.attr_id);
  ASSERT_GE(code_slot, 0);
  ASSERT_GE(qty_slot, 0);
  // Declared string attribute: generic array. Declared int attribute:
  // raw int64 array the vectorized kernels scan directly.
  EXPECT_EQ(batch.column(static_cast<size_t>(code_slot)).encoding,
            ColumnEncoding::kGeneric);
  const ColumnView qty_col = batch.column(static_cast<size_t>(qty_slot));
  ASSERT_EQ(qty_col.encoding, ColumnEncoding::kInt64);
  ASSERT_EQ(qty_col.size, 10);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(qty_col.i64[i], i);
}

TEST_F(StorageTest, MismatchedValueDemotesOnlyItsChunk) {
  // Two segments of int-typed weights...
  for (int64_t i = 0; i < 1030; ++i) {
    ASSERT_OK(store_
                  ->Insert(cargo_, Cargo("c" + std::to_string(i), "fuel",
                                         i, i % 100))
                  .status());
  }
  AttrRef weight = schema_.ResolveQualified("cargo.weight").value();
  // ...then a null overwrite lands in segment 1.
  ASSERT_OK(store_->UpdateAttribute(cargo_, 1025, weight.attr_id,
                                    Value::Null()));
  const Extent& extent = store_->extent(cargo_);
  const size_t slot = static_cast<size_t>(extent.SlotOf(weight.attr_id));
  // Segment 0 keeps its typed array; only the touched chunk demoted.
  EXPECT_EQ(extent.Batch(0).column(slot).encoding, ColumnEncoding::kInt64);
  EXPECT_EQ(extent.Batch(1).column(slot).encoding,
            ColumnEncoding::kGeneric);
  // Reads are unchanged either way.
  EXPECT_EQ(extent.ValueAt(1025, weight.attr_id), Value::Null());
  EXPECT_EQ(extent.ValueAt(1024, weight.attr_id), Value::Int(1024 % 100));
  EXPECT_EQ(extent.ValueAt(0, weight.attr_id), Value::Int(0));
}

TEST_F(StorageTest, RowAccessorsAbortOnOutOfRangeRow) {
  ASSERT_OK(store_->Insert(cargo_, Cargo("c1", "fuel", 1, 2)).status());
  AttrRef qty = schema_.ResolveQualified("cargo.quantity").value();
  const Extent& extent = store_->extent(cargo_);
  // The documented precondition: row accessors die loudly instead of
  // reading a neighbor's memory.
  EXPECT_DEATH(extent.ValueAt(1, qty.attr_id), "row 1 out of range");
  EXPECT_DEATH(extent.ValueAt(-1, qty.attr_id), "row -1 out of range");
  EXPECT_DEATH(extent.MaterializeRow(7), "row 7 out of range");
}

TEST(ExtentInheritanceTest, SubclassLayoutIncludesInheritedSlots) {
  auto schema = BuildFigure21Schema();
  ASSERT_TRUE(schema.ok());
  ObjectStore store(&*schema);
  ClassId driver = schema->FindClass("driver");
  // driver: name, clearance, rank (inherited) + license#, licenseClass,
  // licenseDate.
  Object d;
  d.values = {Value::String("bob"),  Value::String("secret"),
              Value::String("staff"), Value::Int(77),
              Value::Int(3),          Value::String("2026-01-01")};
  ASSERT_TRUE(store.Insert(driver, std::move(d)).ok());
  AttrRef name = schema->ResolveQualified("driver.name").value();
  AttrRef lic = schema->ResolveQualified("driver.licenseClass").value();
  EXPECT_EQ(store.extent(driver).ValueAt(0, name.attr_id),
            Value::String("bob"));
  EXPECT_EQ(store.extent(driver).ValueAt(0, lic.attr_id), Value::Int(3));
  // The inherited indexed attribute (employee.name) got a per-class
  // index on driver.
  EXPECT_NE(store.GetIndex(name), nullptr);
}

// --- Copy-on-write sharing: a clone shares every segment, chunk and
// index node, and a write copies only what it touches. ---

// Everything a reader sees through Partners() and the indexes, in
// order.
struct ReadableState {
  std::vector<std::vector<int64_t>> partners;
  std::vector<std::vector<std::pair<Value, int64_t>>> index_entries;
  bool operator==(const ReadableState&) const = default;
};

ReadableState Capture(const Schema& schema, const ObjectStore& store) {
  ReadableState state;
  for (const Relationship& rel : schema.relationships()) {
    for (ClassId side : {rel.a, rel.b}) {
      for (int64_t row = 0; row < store.NumObjects(side); ++row) {
        std::span<const int64_t> p = store.Partners(rel.id, side, row);
        state.partners.emplace_back(p.begin(), p.end());
      }
    }
  }
  for (const ObjectClass& oc : schema.classes()) {
    for (AttrId attr_id : schema.LayoutOf(oc.id)) {
      if (const AttributeIndex* index = store.GetIndex({oc.id, attr_id})) {
        state.index_entries.push_back(index->tree().Scan());
      }
    }
  }
  return state;
}

// How many extent segments, adjacency chunks and index nodes `clone`
// holds that `base` does not share (rows both stores have).
struct Splits {
  int segments = 0;
  int chunks = 0;
  int nodes = 0;
  bool operator==(const Splits&) const = default;
};

Splits CountSplits(const Schema& schema, const ObjectStore& base,
                   const ObjectStore& clone) {
  Splits splits;
  for (const ObjectClass& oc : schema.classes()) {
    for (int64_t row = 0; row < base.NumObjects(oc.id);
         row += Extent::kSegmentRows) {
      if (base.extent(oc.id).SegmentIdentity(row) !=
          clone.extent(oc.id).SegmentIdentity(row)) {
        ++splits.segments;
      }
    }
  }
  for (const Relationship& rel : schema.relationships()) {
    for (ClassId side : {rel.a, rel.b}) {
      for (int64_t row = 0; row < base.NumObjects(side);
           row += Adjacency::kChunkRows) {
        if (base.AdjacencyChunkIdentity(rel.id, side, row) !=
            clone.AdjacencyChunkIdentity(rel.id, side, row)) {
          ++splits.chunks;
        }
      }
    }
  }
  for (const ObjectClass& oc : schema.classes()) {
    for (AttrId attr_id : schema.LayoutOf(oc.id)) {
      const AttributeIndex* index = base.GetIndex({oc.id, attr_id});
      if (index == nullptr) continue;
      std::vector<const void*> shared = index->tree().NodeIdentities();
      std::sort(shared.begin(), shared.end());
      for (const void* node :
           clone.GetIndex({oc.id, attr_id})->tree().NodeIdentities()) {
        if (!std::binary_search(shared.begin(), shared.end(), node)) {
          ++splits.nodes;
        }
      }
    }
  }
  return splits;
}

class CowStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(schema_, BuildExperimentSchema());
    supplier_ = schema_.FindClass("supplier");
    cargo_ = schema_.FindClass("cargo");
    supplies_ = schema_.FindRelationship("supplies");
    code_ = schema_.ResolveQualified("cargo.code").value();
  }

  std::unique_ptr<ObjectStore> Generate(int64_t rows) {
    auto store = GenerateDatabase(
        schema_, DbSpec{"cow", rows, rows + rows / 2}, /*seed=*/7);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  // A live supplier/cargo pair `store` does not link yet.
  std::pair<int64_t, int64_t> UnlinkedPair(const ObjectStore& store) {
    for (int64_t a = 0;; ++a) {
      if (!store.IsLive(supplier_, a) || !store.IsLive(cargo_, a + 1)) {
        continue;
      }
      std::span<const int64_t> p = store.Partners(supplies_, supplier_, a);
      if (std::find(p.begin(), p.end(), a + 1) == p.end()) return {a, a + 1};
    }
  }

  Schema schema_;
  ClassId supplier_, cargo_;
  RelId supplies_;
  AttrRef code_;
};

TEST_F(CowStoreTest, WritesToACloneLeaveTheBaseUnchanged) {
  std::unique_ptr<ObjectStore> base = Generate(1500);
  const ReadableState before = Capture(schema_, *base);
  std::unique_ptr<ObjectStore> clone = base->CloneForWrite();
  EXPECT_EQ(Capture(schema_, *clone), before);

  const auto [a, b] = UnlinkedPair(*base);
  ASSERT_OK(clone->Link(supplies_, a, b));
  EXPECT_EQ(Capture(schema_, *base), before);
  const int64_t partner = base->Partners(supplies_, supplier_, 3).front();
  ASSERT_OK(clone->Unlink(supplies_, 3, partner));
  EXPECT_EQ(Capture(schema_, *base), before);
  ASSERT_OK(clone->Delete(cargo_, 10));  // cascades on both cargo sides
  EXPECT_EQ(Capture(schema_, *base), before);
  ASSERT_OK_AND_ASSIGN(Object obj,
                       MakeSegmentObject(schema_, cargo_, 0, 99999));
  ASSERT_OK(clone->Insert(cargo_, std::move(obj)).status());
  EXPECT_EQ(Capture(schema_, *base), before);
  ASSERT_OK(clone->UpdateAttribute(cargo_, 20, code_.attr_id,
                                   Value::String("renamed")));
  EXPECT_EQ(Capture(schema_, *base), before);

  // The clone sees its own writes, in link order.
  std::span<const int64_t> linked = clone->Partners(supplies_, supplier_, a);
  EXPECT_EQ(linked.back(), b);
  EXPECT_EQ(clone->NumPairs(supplies_),
            base->NumPairs(supplies_) + 1 - 1 -
                static_cast<int64_t>(
                    base->Partners(supplies_, cargo_, 10).size()));
  EXPECT_TRUE(clone->Partners(supplies_, cargo_, 10).empty());
  EXPECT_EQ(clone->GetIndex(code_)->Equal(Value::String("renamed")),
            std::vector<int64_t>{20});
  EXPECT_TRUE(
      base->GetIndex(code_)->Equal(Value::String("renamed")).empty());

  // The base may be written too, without reaching the clone.
  const ReadableState cloned = Capture(schema_, *clone);
  ASSERT_OK(base->Delete(supplier_, 0));
  EXPECT_EQ(Capture(schema_, *clone), cloned);
}

TEST_F(CowStoreTest, OneWriteSplitsOnlyItsChunkOrPathAtAnySize) {
  std::vector<Splits> link_splits, update_splits;
  for (int64_t rows : {3000, 6000}) {
    std::unique_ptr<ObjectStore> base = Generate(rows);
    std::unique_ptr<ObjectStore> clone = base->CloneForWrite();
    EXPECT_EQ(CountSplits(schema_, *base, *clone), Splits{});

    const auto [a, b] = UnlinkedPair(*base);
    ASSERT_OK(clone->Link(supplies_, a, b));
    link_splits.push_back(CountSplits(schema_, *base, *clone));

    clone = base->CloneForWrite();
    ASSERT_OK(clone->UpdateAttribute(cargo_, 5, code_.attr_id,
                                     Value::String("~last")));
    update_splits.push_back(CountSplits(schema_, *base, *clone));
    // Remove and insert each copy one root-to-leaf path; the paths
    // share at least the root.
    const int height = base->GetIndex(code_)->height();
    EXPECT_GE(update_splits.back().nodes, height) << rows;
    EXPECT_LE(update_splits.back().nodes, 2 * height - 1) << rows;
  }
  // A link copies one chunk per side; an update one segment plus the
  // index paths. Doubling the store changes none of it.
  EXPECT_EQ(link_splits[0], (Splits{0, 2, 0}));
  EXPECT_EQ(link_splits[1], link_splits[0]);
  EXPECT_EQ(update_splits[0].segments, 1);
  EXPECT_EQ(update_splits[0].chunks, 0);
  EXPECT_EQ(update_splits[1], update_splits[0]);
}

// Readers scan a published snapshot while a writer keeps cloning it and
// splitting its chunks, segments and index paths. Run under TSan in
// CI: the ownership stamps must keep every write off shared pieces.
TEST_F(CowStoreTest, ReadersOfAnOldSnapshotRaceCommitsThatSplitIt) {
  std::shared_ptr<const ObjectStore> base = Generate(1200);
  const ReadableState expected = Capture(schema_, *base);
  std::atomic<bool> stop{false};
  std::atomic<int> passes{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      do {
        if (!(Capture(schema_, *base) == expected)) ++mismatches;
        ++passes;
      } while (!stop.load());
    });
  }
  // Commit until the readers have made several passes, so the two
  // overlap whatever the scheduling.
  std::shared_ptr<const ObjectStore> head = base;
  for (int commit = 0; commit < 20 || passes.load() < 6; ++commit) {
    // Alternate between cloning the pinned snapshot and the latest
    // head, as commits do once the pinned one is superseded.
    std::unique_ptr<ObjectStore> next =
        (commit % 2 == 0 ? base : head)->CloneForWrite();
    const auto [a, b] = UnlinkedPair(*next);
    ASSERT_OK(next->Link(supplies_, a, b));
    const int64_t row = commit % 1000;
    if (next->IsLive(cargo_, row)) ASSERT_OK(next->Delete(cargo_, row));
    ASSERT_OK(next->UpdateAttribute(cargo_, 1100, code_.attr_id,
                                    Value::String("c" + std::to_string(
                                                            commit))));
    head = std::move(next);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(Capture(schema_, *base), expected);
}

// How many column chunks and live bitmaps `clone` holds for `cid` that
// `base` does not share (rows both stores have).
struct PieceSplits {
  int columns = 0;
  int bitmaps = 0;
  bool operator==(const PieceSplits&) const = default;
};

PieceSplits CountPieceSplits(const ObjectStore& base,
                             const ObjectStore& clone, ClassId cid) {
  PieceSplits splits;
  const Extent& a = base.extent(cid);
  const Extent& b = clone.extent(cid);
  for (int64_t row = 0; row < a.size(); row += Extent::kSegmentRows) {
    for (size_t slot = 0; slot < a.num_slots(); ++slot) {
      if (a.ColumnIdentity(row, slot) != b.ColumnIdentity(row, slot)) {
        ++splits.columns;
      }
    }
    if (a.LiveIdentity(row) != b.LiveIdentity(row)) ++splits.bitmaps;
  }
  return splits;
}

// A delete copies the segment's bitmap and no column, an update the
// one column it writes, and an append at the frontier nothing at all —
// whatever the store's size.
TEST_F(CowStoreTest, WritesCopyOnlyTheColumnOrBitmapTheyTouchAtAnySize) {
  const AttrRef weight = schema_.ResolveQualified("cargo.weight").value();
  for (int64_t rows : {3000, 6000}) {
    std::unique_ptr<ObjectStore> base = Generate(rows);
    const int64_t n = base->NumObjects(cargo_);
    ASSERT_NE(n % Extent::kSegmentRows, 0) << "tail must have room";

    std::unique_ptr<ObjectStore> clone = base->CloneForWrite();
    ASSERT_OK(clone->Delete(cargo_, 5));
    EXPECT_EQ(CountPieceSplits(*base, *clone, cargo_), (PieceSplits{0, 1}))
        << rows;
    EXPECT_TRUE(base->IsLive(cargo_, 5));

    clone = base->CloneForWrite();
    ASSERT_OK(clone->UpdateAttribute(cargo_, n - 1, weight.attr_id,
                                     Value::Int(7)));
    EXPECT_EQ(CountPieceSplits(*base, *clone, cargo_), (PieceSplits{1, 0}))
        << rows;

    clone = base->CloneForWrite();
    ASSERT_OK_AND_ASSIGN(Object obj,
                         MakeSegmentObject(schema_, cargo_, 1, 424242));
    const Object inserted = obj;
    ASSERT_OK_AND_ASSIGN(int64_t row,
                         clone->Insert(cargo_, std::move(obj)));
    EXPECT_EQ(row, n);
    EXPECT_EQ(CountPieceSplits(*base, *clone, cargo_), PieceSplits{})
        << rows;
    EXPECT_EQ(base->extent(cargo_).SegmentIdentity(n - 1),
              clone->extent(cargo_).SegmentIdentity(n - 1));
    EXPECT_EQ(clone->extent(cargo_).MaterializeRow(row).values,
              inserted.values);
    EXPECT_EQ(base->NumObjects(cargo_), n);
  }
}

// Base and clone both append to the tail they share: the first claims
// the frontier and writes in place, the second copies, and each ends
// with its own rows. A value that would demote a shared typed chunk
// copies that column alone.
TEST_F(CowStoreTest, BaseAndCloneAppendingToASharedTailKeepTheirOwnRows) {
  const AttrRef quantity =
      schema_.ResolveQualified("cargo.quantity").value();
  for (int64_t rows : {3000, 6000}) {
    std::unique_ptr<ObjectStore> base = Generate(rows);
    const int64_t n = base->NumObjects(cargo_);
    const Object before = base->extent(cargo_).MaterializeRow(n - 1);
    std::unique_ptr<ObjectStore> clone = base->CloneForWrite();
    auto cargo = [&](int64_t ordinal) {
      Result<Object> obj = MakeSegmentObject(schema_, cargo_, 2, ordinal);
      EXPECT_TRUE(obj.ok());
      return std::move(obj).value();
    };

    ASSERT_OK_AND_ASSIGN(int64_t c0, clone->Insert(cargo_, cargo(1)));
    ASSERT_OK_AND_ASSIGN(int64_t b0, base->Insert(cargo_, cargo(2)));
    ASSERT_OK_AND_ASSIGN(int64_t c1, clone->Insert(cargo_, cargo(3)));
    ASSERT_OK_AND_ASSIGN(int64_t b1, base->Insert(cargo_, cargo(4)));
    EXPECT_EQ(c0, n);
    EXPECT_EQ(b0, n);
    EXPECT_EQ(c1, n + 1);
    EXPECT_EQ(b1, n + 1);
    // The base wrote behind the clone's claim, so it copied every
    // piece of the tail; the clone kept appending in place.
    const PieceSplits tail = CountPieceSplits(*base, *clone, cargo_);
    EXPECT_EQ(tail.columns, static_cast<int>(schema_.LayoutOf(cargo_).size()));
    EXPECT_EQ(tail.bitmaps, 1);
    EXPECT_EQ(clone->extent(cargo_).MaterializeRow(c0).values,
              cargo(1).values);
    EXPECT_EQ(clone->extent(cargo_).MaterializeRow(c1).values,
              cargo(3).values);
    EXPECT_EQ(base->extent(cargo_).MaterializeRow(b0).values,
              cargo(2).values);
    EXPECT_EQ(base->extent(cargo_).MaterializeRow(b1).values,
              cargo(4).values);
    EXPECT_EQ(base->extent(cargo_).MaterializeRow(n - 1).values,
              before.values);
    EXPECT_EQ(clone->extent(cargo_).MaterializeRow(n - 1).values,
              before.values);
    EXPECT_EQ(base->NumObjects(cargo_), n + 2);
    EXPECT_EQ(clone->NumObjects(cargo_), n + 2);

    // A null in a typed column of the shared tail demotes a private
    // copy of that one column; the other side keeps its typed array.
    std::unique_ptr<ObjectStore> next = clone->CloneForWrite();
    Object odd = cargo(5);
    const size_t qty_slot =
        static_cast<size_t>(clone->extent(cargo_).SlotOf(quantity.attr_id));
    odd.values[qty_slot] = Value::Null();
    ASSERT_OK_AND_ASSIGN(int64_t c2, next->Insert(cargo_, std::move(odd)));
    EXPECT_EQ(CountPieceSplits(*clone, *next, cargo_), (PieceSplits{1, 0}));
    EXPECT_EQ(next->extent(cargo_).ValueAt(c2, quantity.attr_id),
              Value::Null());
    const int64_t tail_seg = c2 / Extent::kSegmentRows;
    EXPECT_EQ(clone->extent(cargo_).Batch(tail_seg).column(qty_slot).encoding,
              ColumnEncoding::kInt64);
    EXPECT_EQ(next->extent(cargo_).Batch(tail_seg).column(qty_slot).encoding,
              ColumnEncoding::kGeneric);
  }
}

// Readers scan a published snapshot's columns while a writer keeps
// appending into the tail it shares with them, in place when its clone
// is at the frontier and by copy when it is behind. Run under TSan in
// CI: no reader may touch an element an append writes.
TEST_F(CowStoreTest, ReadersOfAnOldSnapshotRaceAppendsIntoItsTail) {
  std::shared_ptr<const ObjectStore> base = Generate(1200);
  const AttrRef quantity =
      schema_.ResolveQualified("cargo.quantity").value();
  auto scan = [&](const ObjectStore& store) {
    const Extent& extent = store.extent(cargo_);
    const size_t slot = static_cast<size_t>(extent.SlotOf(quantity.attr_id));
    std::pair<int64_t, int64_t> rows_and_sum{0, 0};
    for (int64_t s = 0; s < extent.num_segments(); ++s) {
      const SegmentBatch batch = extent.Batch(s);
      const ColumnView col = batch.column(slot);
      for (int64_t i = 0; i < batch.rows; ++i) {
        if (!batch.live[i]) continue;
        ++rows_and_sum.first;
        rows_and_sum.second += col.Get(i).int_value();
      }
    }
    return rows_and_sum;
  };
  const auto expected = scan(*base);
  std::atomic<bool> stop{false};
  std::atomic<int> passes{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      do {
        if (scan(*base) != expected) ++mismatches;
        ++passes;
      } while (!stop.load());
    });
  }
  std::shared_ptr<const ObjectStore> head = base;
  int64_t ordinal = 0;
  for (int commit = 0; commit < 20 || passes.load() < 6; ++commit) {
    std::unique_ptr<ObjectStore> next =
        (commit % 4 == 0 ? base : head)->CloneForWrite();
    for (int i = 0; i < 3; ++i) {
      ASSERT_OK_AND_ASSIGN(Object obj,
                           MakeSegmentObject(schema_, cargo_, 1, ++ordinal));
      ASSERT_OK(next->Insert(cargo_, std::move(obj)).status());
    }
    head = std::move(next);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(scan(*base), expected);
  EXPECT_GT(scan(*head).first, expected.first);
}

}  // namespace
}  // namespace sqopt
