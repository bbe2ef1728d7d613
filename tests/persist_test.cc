// Durability tests: snapshot round-trips, WAL replay, and the recovery
// edge cases the crash-recovery CI gauntlet leans on — empty WAL,
// WAL-only directories, checkpoint interrupted after its rename,
// duplicate replay idempotence, torn tails, and corrupted-checksum
// sections rejected with a typed kCorruption status.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "tests/test_util.h"
#include "workload/mutation_script.h"

namespace sqopt {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kSeed = 20260729;
const DbSpec kSpec{"persist_test", 40, 60};

class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("sqopt_persist_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string snapshot_path() const {
    return (fs::path(dir_) / persist::kSnapshotFileName).string();
  }
  std::string wal_path() const {
    return (fs::path(dir_) / persist::kWalFileName).string();
  }

  Engine OpenLoaded(EngineOptions options = {}) {
    auto opened = Engine::Open(SchemaSource::Experiment(),
                               ConstraintSource::Experiment(), options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    Engine engine = std::move(opened).value();
    EXPECT_OK(engine.Load(DataSource::Generated(kSpec, kSeed)));
    return engine;
  }

  static std::vector<int64_t> BaseRows(const Engine& engine) {
    std::vector<int64_t> rows;
    for (const ObjectClass& oc : engine.schema().classes()) {
      rows.push_back(engine.store()->NumObjects(oc.id));
    }
    return rows;
  }

  // Applies the first `n` script batches to `engine` (scripts are
  // deterministic: equal seeds + equal fixtures => equal batches).
  static void ApplyScript(Engine* engine, int n) {
    MutationScript script(&engine->schema(), BaseRows(*engine), kSeed);
    for (int i = 0; i < n; ++i) {
      auto batch = script.Next();
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      auto out = engine->Apply(*batch);
      ASSERT_TRUE(out.ok()) << "batch " << i << ": "
                            << out.status().ToString();
    }
  }

  // A fresh in-memory engine carrying exactly the fixture + the first
  // `n` script batches — the oracle recovered engines diff against.
  Engine Oracle(int n) {
    Engine oracle = OpenLoaded();
    ApplyScript(&oracle, n);
    return oracle;
  }

  static void ExpectSameAnswers(const Engine& lhs, const Engine& rhs) {
    ASSERT_EQ(lhs.data_version(), rhs.data_version());
    for (const ObjectClass& oc : lhs.schema().classes()) {
      EXPECT_EQ(lhs.store()->NumLiveObjects(oc.id),
                rhs.store()->NumLiveObjects(oc.id))
          << "class " << oc.name;
    }
    for (const Relationship& rel : lhs.schema().relationships()) {
      EXPECT_EQ(lhs.store()->NumPairs(rel.id),
                rhs.store()->NumPairs(rel.id))
          << "relationship " << rel.name;
    }
    for (const std::string& text : MutationScript::QueryPool()) {
      auto a = lhs.Execute(text);
      auto b = rhs.Execute(text);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_TRUE(a->rows.SameDistinctRows(b->rows))
          << "engines disagree on: " << text;
    }
  }

  // Flips one byte of `path` at `offset`.
  static void FlipByte(const std::string& path, int64_t offset) {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(offset);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5A);
    f.seekp(offset);
    f.write(&c, 1);
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  static void Spit(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

TEST_F(PersistTest, SaveThenOpenRoundtripsEverything) {
  Engine original = OpenLoaded();
  ASSERT_OK(original.Save(dir_));
  EXPECT_EQ(original.persist_dir(), dir_);

  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));
  EXPECT_EQ(reopened.persist_dir(), dir_);
  EXPECT_EQ(reopened.data_version(), 1u);
  EXPECT_EQ(reopened.stats().wal_records_replayed, 0u);

  // The precompiled catalog came back whole: same base set, same
  // derived rules, no closure recomputation on open.
  EXPECT_TRUE(reopened.catalog().precompiled());
  EXPECT_EQ(reopened.catalog().num_base(), original.catalog().num_base());
  EXPECT_EQ(reopened.catalog().num_derived(),
            original.catalog().num_derived());
  EXPECT_GT(reopened.catalog().num_derived(), 0u);

  // Statistics were deserialized, not re-collected: spot-check one
  // numeric attribute's stats object end to end.
  const Schema& schema = reopened.schema();
  AttrRef weight =
      schema.FindAttribute(schema.FindClass("cargo"), "weight");
  const AttrStatsData* a = original.database_stats()->AttrStatsFor(weight);
  const AttrStatsData* b = reopened.database_stats()->AttrStatsFor(weight);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->distinct_values, b->distinct_values);
  EXPECT_EQ(a->min, b->min);
  EXPECT_EQ(a->max, b->max);
  EXPECT_EQ(a->histogram.total(), b->histogram.total());
  EXPECT_EQ(a->histogram.num_buckets(), b->histogram.num_buckets());

  ExpectSameAnswers(original, reopened);
}

TEST_F(PersistTest, WalReplayRestoresCommittedBatches) {
  Engine original = OpenLoaded();
  ASSERT_OK(original.Save(dir_));
  ApplyScript(&original, 7);
  EXPECT_EQ(original.data_version(), 8u);

  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));
  EXPECT_EQ(reopened.stats().wal_records_replayed, 7u);
  ExpectSameAnswers(original, reopened);

  // The reopened engine is durable in turn.
  ASSERT_OK(reopened.Checkpoint());
  ASSERT_OK_AND_ASSIGN(Engine again, Engine::Open(dir_));
  EXPECT_EQ(again.data_version(), 8u);
  EXPECT_EQ(again.stats().wal_records_replayed, 0u);
}

TEST_F(PersistTest, CheckpointFoldsLogIntoSnapshot) {
  Engine engine = OpenLoaded();
  ASSERT_OK(engine.Save(dir_));
  ApplyScript(&engine, 5);
  EXPECT_GT(fs::file_size(wal_path()), persist::kWalHeaderBytes);

  ASSERT_OK(engine.Checkpoint());
  EXPECT_EQ(engine.stats().checkpoints, 1u);
  // The log shrank back to its header; the snapshot carries version 6.
  EXPECT_EQ(fs::file_size(wal_path()), persist::kWalHeaderBytes);

  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));
  EXPECT_EQ(reopened.data_version(), 6u);
  EXPECT_EQ(reopened.stats().wal_records_replayed, 0u);
  ExpectSameAnswers(engine, reopened);
}

TEST_F(PersistTest, EmptyAndMissingWalAreEquivalent) {
  Engine engine = OpenLoaded();
  ASSERT_OK(engine.Save(dir_));

  // Header-only WAL (what Save leaves behind).
  ASSERT_OK_AND_ASSIGN(Engine a, Engine::Open(dir_));
  EXPECT_EQ(a.data_version(), 1u);

  // Missing WAL: same outcome, and the open recreates the file so the
  // engine can append.
  fs::remove(wal_path());
  ASSERT_OK_AND_ASSIGN(Engine b, Engine::Open(dir_));
  EXPECT_EQ(b.data_version(), 1u);
  EXPECT_TRUE(fs::exists(wal_path()));
  ApplyScript(&b, 1);
  ASSERT_OK_AND_ASSIGN(Engine c, Engine::Open(dir_));
  EXPECT_EQ(c.data_version(), 2u);
}

TEST_F(PersistTest, WalOnlyDirectoryIsATypedError) {
  Engine engine = OpenLoaded();
  ASSERT_OK(engine.Save(dir_));
  ApplyScript(&engine, 2);
  fs::remove(snapshot_path());

  auto reopened = Engine::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  // The WAL alone cannot rebuild a schema; the caller gets a clean
  // typed status, not a crash or a half-open engine.
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound)
      << reopened.status().ToString();
}

TEST_F(PersistTest, TornWalTailRecoversThePrefix) {
  Engine original = OpenLoaded();
  ASSERT_OK(original.Save(dir_));
  ApplyScript(&original, 3);

  // Cut the last record short: recovery must land on exactly the first
  // two commits and the writer must truncate the torn bytes away.
  const auto full = fs::file_size(wal_path());
  fs::resize_file(wal_path(), full - 3);
  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));
  EXPECT_EQ(reopened.data_version(), 3u);
  EXPECT_EQ(reopened.stats().wal_records_replayed, 2u);
  ExpectSameAnswers(Oracle(2), reopened);

  // Appends after a torn-tail recovery start on a clean frame.
  MutationScript script(&reopened.schema(), BaseRows(reopened), kSeed ^ 7);
  ASSERT_OK_AND_ASSIGN(MutationBatch batch, script.Next());
  ASSERT_OK_AND_ASSIGN(ApplyOutcome out, reopened.Apply(batch));
  EXPECT_EQ(out.snapshot_version, 4u);
  ASSERT_OK_AND_ASSIGN(Engine again, Engine::Open(dir_));
  EXPECT_EQ(again.data_version(), 4u);
}

TEST_F(PersistTest, CheckpointInterruptedAfterRenameIsIdempotent) {
  Engine engine = OpenLoaded();
  ASSERT_OK(engine.Save(dir_));
  ApplyScript(&engine, 2);

  // Simulate a kill between the checkpoint's rename and its truncate:
  // take the pre-checkpoint WAL bytes, checkpoint, then put the stale
  // records back. The directory now holds a version-3 snapshot AND a
  // log whose records are all <= 3.
  const std::string stale_wal = Slurp(wal_path());
  ASSERT_OK(engine.Checkpoint());
  Spit(wal_path(), stale_wal);

  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));
  // Duplicate replay idempotence: both records were skipped by
  // version, not re-applied (re-applying would double the inserts).
  EXPECT_EQ(reopened.data_version(), 3u);
  EXPECT_EQ(reopened.stats().wal_records_replayed, 0u);
  ExpectSameAnswers(Oracle(2), reopened);
}

TEST_F(PersistTest, CorruptedSnapshotSectionIsRejectedAsCorruption) {
  Engine engine = OpenLoaded();
  ASSERT_OK(engine.Save(dir_));
  // Offset 100 sits inside the first section's payload (the header is
  // 24 bytes, the section frame 16): the flip must trip that section's
  // CRC, never be silently absorbed.
  FlipByte(snapshot_path(), 100);

  auto reopened = Engine::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
      << reopened.status().ToString();
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
}

TEST_F(PersistTest, ColumnarExtentsRoundTripBitIdentical) {
  // Inserts, attribute overwrites, and deletes from the mutation
  // script, then save/recover: every slot of every row slot (live and
  // tombstoned alike) must read back exactly, across typed columns,
  // demoted generic chunks, and partial tail segments.
  Engine original = OpenLoaded();
  ApplyScript(&original, 6);
  ASSERT_OK(original.Save(dir_));
  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));

  const Schema& schema = original.schema();
  for (const ObjectClass& oc : schema.classes()) {
    const Extent& a = original.store()->extent(oc.id);
    const Extent& b = reopened.store()->extent(oc.id);
    ASSERT_EQ(a.size(), b.size()) << "class " << oc.name;
    ASSERT_EQ(a.live_count(), b.live_count()) << "class " << oc.name;
    for (int64_t row = 0; row < a.size(); ++row) {
      ASSERT_EQ(a.IsLive(row), b.IsLive(row))
          << "class " << oc.name << " row " << row;
      for (AttrId attr_id : schema.LayoutOf(oc.id)) {
        ASSERT_EQ(a.ValueAt(row, attr_id), b.ValueAt(row, attr_id))
            << "class " << oc.name << " row " << row << " attr "
            << attr_id;
      }
    }
  }
}

TEST_F(PersistTest, OldSnapshotFormatIsRejectedAsUnsupportedVersion) {
  Engine engine = OpenLoaded();
  ASSERT_OK(engine.Save(dir_));
  // Rewrite the u32 format-version field (bytes 8..12, right after the
  // 8-byte magic) to the pre-columnar version 1. The header carries no
  // checksum, so this is exactly what a cold open of an old snapshot
  // looks like — and it must fail typed, not as corruption and never
  // as a misread.
  std::string bytes = Slurp(snapshot_path());
  ASSERT_GT(bytes.size(), 12u);
  bytes[8] = 1;
  bytes[9] = bytes[10] = bytes[11] = 0;
  Spit(snapshot_path(), bytes);

  auto reopened = Engine::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kUnsupportedVersion)
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().message().find("version 1"),
            std::string::npos)
      << reopened.status().ToString();
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnsupportedVersion),
               "UnsupportedVersion");
}

TEST_F(PersistTest, CorruptedWalRecordEndsTheValidPrefix) {
  Engine engine = OpenLoaded();
  ASSERT_OK(engine.Save(dir_));
  ApplyScript(&engine, 3);

  // Damage the FIRST record's payload: WAL semantics cannot tell torn
  // from corrupt, so the valid prefix ends there and recovery comes
  // back at the snapshot state.
  FlipByte(wal_path(),
           static_cast<int64_t>(persist::kWalHeaderBytes) + 16);
  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));
  EXPECT_EQ(reopened.data_version(), 1u);
  ExpectSameAnswers(Oracle(0), reopened);
}

TEST_F(PersistTest, TruncatedWalHeaderRecoversAsEmptyLog) {
  // A kill during the log's very creation leaves a half-written
  // header: no record can exist yet, so recovery treats the log as
  // empty and the writer rebuilds the header in place.
  Engine engine = OpenLoaded();
  ASSERT_OK(engine.Save(dir_));
  fs::resize_file(wal_path(), 5);

  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));
  EXPECT_EQ(reopened.data_version(), 1u);
  ApplyScript(&reopened, 1);
  ASSERT_OK_AND_ASSIGN(Engine again, Engine::Open(dir_));
  EXPECT_EQ(again.data_version(), 2u);
}

TEST_F(PersistTest, FsyncOffStillCommitsDurably) {
  EngineOptions options;
  options.serve.durability.fsync = false;
  Engine engine = OpenLoaded(options);
  ASSERT_OK(engine.Save(dir_));
  ApplyScript(&engine, 4);

  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));
  EXPECT_EQ(reopened.data_version(), 5u);
  ExpectSameAnswers(engine, reopened);
}

TEST_F(PersistTest, ReloadDetachesThePersistenceDirectory) {
  Engine engine = OpenLoaded();
  ASSERT_OK(engine.Save(dir_));
  const auto wal_size_before = fs::file_size(wal_path());

  ASSERT_OK(engine.Load(DataSource::Generated(kSpec, kSeed + 1)));
  EXPECT_EQ(engine.persist_dir(), "");
  ApplyScript(&engine, 1);
  // The detached engine no longer logs: the on-disk state still
  // describes the ORIGINAL data.
  EXPECT_EQ(fs::file_size(wal_path()), wal_size_before);
  EXPECT_EQ(engine.Checkpoint().code(), StatusCode::kFailedPrecondition);

  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));
  EXPECT_EQ(reopened.data_version(), 1u);
}

TEST_F(PersistTest, SaveOverAForeignDirectoryReplacesItsLineage) {
  // Directory holds engine X's snapshot plus WAL records v2..v3. A
  // different engine Y saving into the same directory must clear that
  // log BEFORE its snapshot lands (a crash between the two steps may
  // leave X's clean snapshot, never Y's snapshot with X's log — whose
  // gap-free versions would replay X's batches onto Y's data).
  Engine x = OpenLoaded();
  ASSERT_OK(x.Save(dir_));
  ApplyScript(&x, 2);
  EXPECT_GT(fs::file_size(wal_path()), persist::kWalHeaderBytes);

  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment());
  ASSERT_TRUE(opened.ok());
  Engine y = std::move(opened).value();
  ASSERT_OK(y.Load(DataSource::Generated(kSpec, kSeed + 17)));
  ASSERT_OK(y.Save(dir_));
  EXPECT_EQ(fs::file_size(wal_path()), persist::kWalHeaderBytes);

  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));
  EXPECT_EQ(reopened.data_version(), 1u);
  EXPECT_EQ(reopened.stats().wal_records_replayed, 0u);
  ExpectSameAnswers(y, reopened);
}

TEST_F(PersistTest, SaveRequiresLoadedData) {
  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment());
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->Save(dir_).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(opened->Checkpoint().code(),
            StatusCode::kFailedPrecondition);
}

// Partner lists keep link order through Save (the snapshot's pair list)
// and through WAL replay, on both sides of a relationship, after links,
// unlinks and deletes have interleaved on both. Query answers depend on
// that order row for row.
TEST_F(PersistTest, PartnerOrderSurvivesSaveCommitAndReopen) {
  Engine engine = OpenLoaded();
  const Schema& schema = engine.schema();
  const RelId supplies = schema.FindRelationship("supplies");
  const RelId collects = schema.FindRelationship("collects");
  const ClassId supplier = schema.FindClass("supplier");
  const ClassId cargo = schema.FindClass("cargo");
  const int64_t rows = kSpec.class_cardinality;

  auto apply = [&engine](const MutationBatch& batch) {
    auto out = engine.Apply(batch);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  };
  auto linked = [&engine](RelId rel, ClassId from, int64_t a, int64_t b) {
    std::span<const int64_t> p = engine.store()->Partners(rel, from, a);
    return std::find(p.begin(), p.end(), b) != p.end();
  };
  // Links within a segment keep every constraint true. Rows are walked
  // high to low and partners out of row order, so link order differs
  // from row order on both sides.
  auto link_round = [&](RelId rel, ClassId a_class, int salt) {
    const Relationship& r = schema.relationship(rel);
    MutationBatch batch;
    for (int64_t a = rows - 1 - salt; a >= 0; a -= 3) {
      const int64_t b = (a * 7 + salt * 4) % rows;
      if (SegmentOfRow(a) != SegmentOfRow(b)) continue;
      if (!engine.store()->IsLive(r.a, a) || !engine.store()->IsLive(r.b, b) ||
          linked(rel, a_class, a, b)) {
        continue;
      }
      batch.Link(rel, a, b);
    }
    apply(batch);
  };
  // Unlinks the middle partner of every fifth row that has three or more.
  auto unlink_round = [&](RelId rel, ClassId a_class) {
    MutationBatch batch;
    for (int64_t a = 0; a < rows; a += 5) {
      std::span<const int64_t> p = engine.store()->Partners(rel, a_class, a);
      if (p.size() >= 3) batch.Unlink(rel, a, p[p.size() / 2]);
    }
    apply(batch);
  };
  auto delete_row = [&](ClassId cid, int64_t row) {
    MutationBatch batch;
    batch.Delete(cid, row);
    apply(batch);
  };

  link_round(supplies, supplier, 1);
  link_round(collects, cargo, 2);
  unlink_round(supplies, supplier);
  delete_row(cargo, 6);     // b side of supplies, a side of collects
  delete_row(supplier, 9);  // a side of supplies
  link_round(supplies, supplier, 3);
  ASSERT_OK(engine.Save(dir_));
  link_round(collects, cargo, 4);
  unlink_round(collects, cargo);
  delete_row(cargo, 13);
  link_round(supplies, supplier, 5);

  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));
  ASSERT_EQ(reopened.data_version(), engine.data_version());
  EXPECT_GT(reopened.stats().wal_records_replayed, 0u);
  for (const Relationship& rel : schema.relationships()) {
    for (ClassId side : {rel.a, rel.b}) {
      for (int64_t row = 0; row < engine.store()->NumObjects(side); ++row) {
        std::span<const int64_t> want =
            engine.store()->Partners(rel.id, side, row);
        std::span<const int64_t> got =
            reopened.store()->Partners(rel.id, side, row);
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(),
                               got.end()))
            << rel.name << " from class " << side << " row " << row;
      }
    }
  }
  for (const std::string& text : MutationScript::QueryPool()) {
    auto want = engine.Execute(text);
    auto got = reopened.Execute(text);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(want->rows.rows, got->rows.rows) << text;
  }
}

// Snapshots list an index as its in-order scan. Older ones kept equal
// keys in insertion order, which the tree (ordered by (key, row)) no
// longer does: restoring sorts such a run by row. Keys out of order are
// still corruption.
TEST_F(PersistTest, IndexRestoreSortsEqualKeyRunsByRow) {
  ASSERT_OK_AND_ASSIGN(Schema schema, BuildExperimentSchema());
  ASSERT_OK_AND_ASSIGN(auto store, GenerateDatabase(schema, kSpec, kSeed));
  const AttrRef desc = schema.ResolveQualified("cargo.desc").value();
  ASSERT_NE(store->GetIndex(desc), nullptr);

  auto entries = [](std::vector<std::pair<const char*, int64_t>> list) {
    std::vector<std::pair<Value, int64_t>> out;
    for (const auto& [key, row] : list) {
      out.emplace_back(Value::String(key), row);
    }
    return out;
  };
  ASSERT_OK(store->RestoreIndexEntries(
      desc.class_id, desc.attr_id,
      entries({{"fuel", 9}, {"fuel", 2}, {"fuel", 5}, {"parcels", 7},
               {"parcels", 1}})));
  const AttributeIndex* index = store->GetIndex(desc);
  EXPECT_TRUE(index->tree().CheckInvariants());
  EXPECT_EQ(index->Equal(Value::String("fuel")),
            (std::vector<int64_t>{2, 5, 9}));
  EXPECT_EQ(index->Equal(Value::String("parcels")),
            (std::vector<int64_t>{1, 7}));

  Status out_of_order = store->RestoreIndexEntries(
      desc.class_id, desc.attr_id,
      entries({{"parcels", 1}, {"fuel", 2}}));
  EXPECT_EQ(out_of_order.code(), StatusCode::kCorruption)
      << out_of_order.ToString();
}

// The one version rule recovery (Engine::Open) and replication
// (FollowerApplier) share: where a record falls against the store.
TEST(PlaceRecordTest, BehindNextOrGap) {
  struct Case {
    uint64_t current;
    uint64_t first;
    size_t batches;
    persist::RecordPlace want;
  };
  const Case cases[] = {
      {5, 3, 3, persist::RecordPlace::kBehind},  // [3, 5]: already in
      {5, 1, 1, persist::RecordPlace::kBehind},  // [1, 1]
      {5, 6, 1, persist::RecordPlace::kNext},    // [6, 6]
      {5, 6, 4, persist::RecordPlace::kNext},    // [6, 9]
      {0, 1, 2, persist::RecordPlace::kNext},    // [1, 2] on a fresh store
      {5, 7, 1, persist::RecordPlace::kGap},     // [7, 7]: version 6 lost
      {5, 4, 3, persist::RecordPlace::kGap},     // [4, 6] straddles 5
      {5, 5, 2, persist::RecordPlace::kGap},     // [5, 6] straddles 5
  };
  for (const Case& c : cases) {
    persist::WalRecord record;
    record.first_version = c.first;
    record.batches.resize(c.batches);
    EXPECT_EQ(persist::PlaceRecord(c.current, record), c.want)
        << "current " << c.current << ", record [" << c.first << ", "
        << c.first + c.batches - 1 << "]";
  }
}

TEST_F(PersistTest, PreparedHandlesObserveReplayedCommits) {
  // A prepared statement on a reopened engine follows later commits,
  // exactly as on an in-memory engine (same lineage contract).
  Engine engine = OpenLoaded();
  ASSERT_OK(engine.Save(dir_));
  ApplyScript(&engine, 4);
  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir_));
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery prepared,
      reopened.Prepare(
          "{supplier.name} {} {supplier.rating >= 8} {} {supplier}"));
  ASSERT_OK_AND_ASSIGN(QueryOutcome before, prepared.Execute());

  MutationScript script(&reopened.schema(), BaseRows(reopened), kSeed ^ 99);
  ASSERT_OK_AND_ASSIGN(MutationBatch batch, script.Next());
  ASSERT_OK_AND_ASSIGN(ApplyOutcome out, reopened.Apply(batch));
  EXPECT_EQ(out.inserts, 5u);  // a world insert adds one supplier
  ASSERT_OK_AND_ASSIGN(QueryOutcome after, prepared.Execute());
  // The new world's supplier matches the predicate only when its
  // segment is 0; either way the handle must see the CURRENT snapshot,
  // so row counts can only grow or stay.
  EXPECT_GE(after.rows.rows.size(), before.rows.rows.size());
}

}  // namespace
}  // namespace sqopt
