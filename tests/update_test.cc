// Update-in-place: extent mutation, index maintenance, and the Siegel
// caveat — state-derived rules must be re-validated after updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "constraints/rule_derivation.h"
#include "exec/executor.h"
#include "query/query_parser.h"
#include "tests/test_util.h"

namespace sqopt {
namespace {

using sqopt::testing::ExperimentFixture;

class UpdateTest : public ExperimentFixture {
 protected:
  void SetUp() override {
    ExperimentFixture::SetUp();
    ASSERT_OK_AND_ASSIGN(
        store_, GenerateDatabase(schema_, DbSpec{"UP", 40, 80}, 17));
    cargo_ = schema_.FindClass("cargo");
    desc_ = schema_.ResolveQualified("cargo.desc").value();
    weight_ = schema_.ResolveQualified("cargo.weight").value();
  }
  std::unique_ptr<ObjectStore> store_;
  ClassId cargo_;
  AttrRef desc_, weight_;
};

TEST_F(UpdateTest, UpdateChangesStoredValue) {
  ASSERT_OK(store_->UpdateAttribute(cargo_, 0, weight_.attr_id,
                                    Value::Int(999)));
  EXPECT_EQ(store_->extent(cargo_).ValueAt(0, weight_.attr_id),
            Value::Int(999));
}

TEST_F(UpdateTest, UpdateMaintainsIndex) {
  const AttributeIndex* index = store_->GetIndex(desc_);
  ASSERT_NE(index, nullptr);
  size_t frozen_before = index->Equal(Value::String("frozen food")).size();
  ASSERT_GT(frozen_before, 0u);

  // Row 0 is segment 0 => frozen food. Repaint it.
  ASSERT_OK(store_->UpdateAttribute(cargo_, 0, desc_.attr_id,
                                    Value::String("mystery box")));
  EXPECT_EQ(index->Equal(Value::String("frozen food")).size(),
            frozen_before - 1);
  std::vector<int64_t> mystery =
      index->Equal(Value::String("mystery box"));
  ASSERT_EQ(mystery.size(), 1u);
  EXPECT_EQ(mystery[0], 0);
  EXPECT_TRUE(index->tree().CheckInvariants());
}

TEST_F(UpdateTest, UpdatedIndexServesQueries) {
  ASSERT_OK(store_->UpdateAttribute(cargo_, 4, desc_.attr_id,
                                    Value::String("mystery box")));
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(schema_,
                          "{cargo.code} {} {cargo.desc = \"mystery box\"} "
                          "{} {cargo}"));
  ASSERT_OK_AND_ASSIGN(ResultSet rs, ExecuteQuery(*store_, q, nullptr));
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::String("cargo-4"));
}

TEST_F(UpdateTest, UpdateRejectsBadTargets) {
  EXPECT_EQ(store_->UpdateAttribute(cargo_, -1, weight_.attr_id,
                                    Value::Int(1))
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(store_->UpdateAttribute(cargo_, 9999, weight_.attr_id,
                                    Value::Int(1))
                .code(),
            StatusCode::kOutOfRange);
  AttrRef foreign = schema_.ResolveQualified("vehicle.vclass").value();
  EXPECT_EQ(store_->UpdateAttribute(cargo_, 0, foreign.attr_id,
                                    Value::Int(1))
                .code(),
            StatusCode::kNotFound);
}

TEST_F(UpdateTest, StateRulesInvalidateAfterUpdate) {
  // Mine, verify all hold, then break one by pushing a frozen-food
  // cargo's weight beyond the mined bound.
  ASSERT_OK_AND_ASSIGN(std::vector<HornClause> rules,
                       DeriveStateRules(*store_));
  for (const HornClause& rule : rules) {
    ASSERT_TRUE(RuleHoldsOnStore(*store_, rule));
  }
  ASSERT_OK(store_->UpdateAttribute(cargo_, 0, weight_.attr_id,
                                    Value::Int(100000)));
  int broken = 0;
  for (const HornClause& rule : rules) {
    if (!RuleHoldsOnStore(*store_, rule)) ++broken;
  }
  // At least the global weight upper bound and the frozen-food weight
  // bound break.
  EXPECT_GE(broken, 2);

  // Re-derivation produces rules that hold again.
  ASSERT_OK_AND_ASSIGN(std::vector<HornClause> fresh,
                       DeriveStateRules(*store_));
  for (const HornClause& rule : fresh) {
    EXPECT_TRUE(RuleHoldsOnStore(*store_, rule)) << rule.ToString(schema_);
  }
}

TEST_F(UpdateTest, DeleteTombstonesCascadesAndHidesFromScans) {
  RelId supplies = schema_.FindRelationship("supplies");
  ClassId supplier = schema_.FindClass("supplier");
  const int64_t pairs_before = store_->NumPairs(supplies);
  const size_t partners_of_0 =
      store_->Partners(supplies, cargo_, 0).size();
  ASSERT_GT(partners_of_0, 0u);

  ASSERT_OK(store_->Delete(cargo_, 0));
  EXPECT_FALSE(store_->IsLive(cargo_, 0));
  EXPECT_EQ(store_->NumLiveObjects(cargo_), 39);
  EXPECT_EQ(store_->NumObjects(cargo_), 40);  // the slot remains
  // Cascade: no relationship instance survives the row...
  EXPECT_TRUE(store_->Partners(supplies, cargo_, 0).empty());
  EXPECT_EQ(store_->NumPairs(supplies),
            pairs_before - static_cast<int64_t>(partners_of_0));
  // ...adjacency is scrubbed from the partner side too...
  for (int64_t s = 0; s < store_->NumObjects(supplier); ++s) {
    std::span<const int64_t> back =
        store_->Partners(supplies, supplier, s);
    EXPECT_EQ(std::count(back.begin(), back.end(), 0), 0);
  }
  // ...the index no longer serves the row, and scans skip it.
  std::vector<int64_t> frozen =
      store_->GetIndex(desc_)->Equal(Value::String("frozen food"));
  EXPECT_EQ(std::count(frozen.begin(), frozen.end(), 0), 0);
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(schema_, "{cargo.code} {} {} {} {cargo}"));
  ASSERT_OK_AND_ASSIGN(ResultSet rs, ExecuteQuery(*store_, q, nullptr));
  EXPECT_EQ(rs.rows.size(), 39u);
  for (const auto& row : rs.rows) {
    EXPECT_NE(row[0], Value::String("cargo-0"));
  }

  // Deleting twice is an error; mutating a dead row is an error.
  EXPECT_EQ(store_->Delete(cargo_, 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(store_->UpdateAttribute(cargo_, 0, weight_.attr_id,
                                    Value::Int(1))
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store_->Link(supplies, 1, 0).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(UpdateTest, UnlinkRemovesExactlyOnePair) {
  RelId supplies = schema_.FindRelationship("supplies");
  const int64_t pairs_before = store_->NumPairs(supplies);
  // The diagonal guarantees pair (3, 3) exists.
  ASSERT_OK(store_->Unlink(supplies, 3, 3));
  EXPECT_EQ(store_->NumPairs(supplies), pairs_before - 1);
  std::span<const int64_t> partners =
      store_->Partners(supplies, schema_.FindClass("supplier"), 3);
  EXPECT_EQ(std::count(partners.begin(), partners.end(), 3), 0);
  EXPECT_EQ(store_->Unlink(supplies, 3, 3).code(), StatusCode::kNotFound);
  // Re-linking after an unlink is legal.
  ASSERT_OK(store_->Link(supplies, 3, 3));
}

TEST_F(UpdateTest, CloneForWriteIsolatesTouchedStateAndSharesTheRest) {
  ClassId vehicle = schema_.FindClass("vehicle");
  RelId supplies = schema_.FindRelationship("supplies");
  std::unique_ptr<ObjectStore> clone = store_->CloneForWrite();
  AttrRef vno = schema_.ResolveQualified("vehicle.vehicleNo").value();
  auto shares_index = [&](const AttrRef& ref) {
    return clone->GetIndex(ref)->tree().NodeIdentities() ==
           store_->GetIndex(ref)->tree().NodeIdentities();
  };
  // The clone starts out sharing every segment, chunk and index node.
  EXPECT_EQ(clone->extent(cargo_).SegmentIdentity(0),
            store_->extent(cargo_).SegmentIdentity(0));
  EXPECT_TRUE(shares_index(desc_));

  // Mutations on the clone never reach the original.
  ASSERT_OK(clone->UpdateAttribute(cargo_, 0, desc_.attr_id,
                                   Value::String("mystery box")));
  ASSERT_OK(clone->Delete(cargo_, 1));
  ASSERT_OK(clone->Unlink(supplies, 2, 2));
  // Untouched state stays SHARED (same objects, not copies)...
  EXPECT_EQ(clone->extent(vehicle).SegmentIdentity(0),
            store_->extent(vehicle).SegmentIdentity(0));
  EXPECT_TRUE(shares_index(vno));
  // ...while touched state split off into private copies.
  EXPECT_NE(clone->extent(cargo_).SegmentIdentity(0),
            store_->extent(cargo_).SegmentIdentity(0));
  EXPECT_FALSE(shares_index(desc_));
  EXPECT_NE(clone->AdjacencyChunkIdentity(supplies, cargo_, 2),
            store_->AdjacencyChunkIdentity(supplies, cargo_, 2));
  EXPECT_EQ(store_->extent(cargo_).ValueAt(0, desc_.attr_id),
            Value::String("frozen food"));
  EXPECT_TRUE(store_->IsLive(cargo_, 1));
  EXPECT_TRUE(store_->GetIndex(desc_)
                  ->Equal(Value::String("mystery box"))
                  .empty());
  std::span<const int64_t> partners =
      store_->Partners(supplies, schema_.FindClass("supplier"), 2);
  EXPECT_EQ(std::count(partners.begin(), partners.end(), 2), 1);

  // And the clone's index serves its own divergent state.
  std::vector<int64_t> mystery =
      clone->GetIndex(desc_)->Equal(Value::String("mystery box"));
  ASSERT_EQ(mystery.size(), 1u);
  EXPECT_EQ(mystery[0], 0);
}

TEST_F(UpdateTest, IntegrityConstraintsAreUpdateRobustByDesign) {
  // The hand-written constraints only mention segment-determined
  // attributes; an update that respects segments keeps them true. This
  // documents the contract the workload generator maintains.
  ASSERT_OK(store_->UpdateAttribute(cargo_, 0, weight_.attr_id,
                                    Value::Int(15)));  // still <= 40
  for (ConstraintId id = 0;
       id < static_cast<ConstraintId>(catalog_->clauses().size()); ++id) {
    const HornClause& clause = catalog_->clause(id);
    if (clause.ReferencedClasses().size() == 1) {
      EXPECT_TRUE(RuleHoldsOnStore(*store_, clause))
          << clause.ToString(schema_);
    }
  }
}

}  // namespace
}  // namespace sqopt
