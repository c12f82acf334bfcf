#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>

#include "engine/engine.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "test_util.h"

namespace sopr {
namespace {

TableSchema EmpSchema() {
  return TableSchema("emp", {{"name", ValueType::kString},
                             {"salary", ValueType::kDouble}});
}

TEST(Table, InsertGetEraseReplace) {
  Table table(EmpSchema());
  ASSERT_OK(table.Insert(1, Row{Value::String("a"), Value::Double(1.0)}));
  ASSERT_OK(table.Insert(2, Row{Value::String("b"), Value::Double(2.0)}));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.Contains(1));

  ASSERT_OK_AND_ASSIGN(const Row* row, table.Get(1));
  EXPECT_EQ(row->at(0), Value::String("a"));

  ASSERT_OK(table.Replace(1, Row{Value::String("a2"), Value::Double(9.0)}));
  ASSERT_OK_AND_ASSIGN(row, table.Get(1));
  EXPECT_EQ(row->at(0), Value::String("a2"));

  ASSERT_OK(table.Erase(1));
  EXPECT_FALSE(table.Contains(1));
  EXPECT_FALSE(table.Get(1).ok());
  EXPECT_FALSE(table.Erase(1).ok());
  EXPECT_FALSE(table.Replace(1, Row{}).ok());
}

TEST(Table, DuplicateHandleRejected) {
  Table table(EmpSchema());
  ASSERT_OK(table.Insert(1, Row{Value::String("a"), Value::Double(1.0)}));
  EXPECT_FALSE(table.Insert(1, Row{Value::String("b"), Value::Double(2.0)}).ok());
}

TEST(Table, IterationIsHandleOrdered) {
  Table table(EmpSchema());
  ASSERT_OK(table.Insert(5, Row{Value::String("e"), Value::Double(5)}));
  ASSERT_OK(table.Insert(2, Row{Value::String("b"), Value::Double(2)}));
  ASSERT_OK(table.Insert(9, Row{Value::String("i"), Value::Double(9)}));
  std::vector<TupleHandle> handles;
  for (const auto& [h, entry] : table.rows()) {
    (void)entry;
    handles.push_back(h);
  }
  EXPECT_EQ(handles, (std::vector<TupleHandle>{2, 5, 9}));
}

TEST(Database, HandlesAreGlobalAndMonotonic) {
  Database db;
  ASSERT_OK(db.CreateTable(EmpSchema()));
  ASSERT_OK(db.CreateTable(
      TableSchema("dept", {{"dept_no", ValueType::kInt}})));

  ASSERT_OK_AND_ASSIGN(
      TupleHandle h1,
      db.InsertRow("emp", Row{Value::String("a"), Value::Double(1)}));
  ASSERT_OK_AND_ASSIGN(TupleHandle h2,
                       db.InsertRow("dept", Row{Value::Int(1)}));
  ASSERT_OK_AND_ASSIGN(
      TupleHandle h3,
      db.InsertRow("emp", Row{Value::String("b"), Value::Double(2)}));
  EXPECT_LT(h1, h2);
  EXPECT_LT(h2, h3);
}

TEST(Database, HandlesNotReusedAfterDelete) {
  Database db;
  ASSERT_OK(db.CreateTable(EmpSchema()));
  ASSERT_OK_AND_ASSIGN(
      TupleHandle h1,
      db.InsertRow("emp", Row{Value::String("a"), Value::Double(1)}));
  ASSERT_OK(db.DeleteRow("emp", h1));
  ASSERT_OK_AND_ASSIGN(
      TupleHandle h2,
      db.InsertRow("emp", Row{Value::String("a"), Value::Double(1)}));
  EXPECT_GT(h2, h1);
}

TEST(Database, SchemaChecksOnInsertAndUpdate) {
  Database db;
  ASSERT_OK(db.CreateTable(EmpSchema()));
  // Wrong arity.
  EXPECT_FALSE(db.InsertRow("emp", Row{Value::String("a")}).ok());
  // Wrong type.
  EXPECT_FALSE(
      db.InsertRow("emp", Row{Value::Int(1), Value::Double(2)}).ok());
  // NULL allowed anywhere.
  ASSERT_OK_AND_ASSIGN(
      TupleHandle h, db.InsertRow("emp", Row{Value::Null(), Value::Null()}));
  // Int into double column allowed by CheckRow.
  EXPECT_OK(db.UpdateRow("emp", h,
                         Row{Value::String("b"), Value::Int(3)}));
}

TEST(Database, RollbackRestoresExactState) {
  Database db;
  ASSERT_OK(db.CreateTable(EmpSchema()));
  ASSERT_OK_AND_ASSIGN(
      TupleHandle h1,
      db.InsertRow("emp", Row{Value::String("keep"), Value::Double(1)}));
  db.CommitAll();

  UndoLog::Mark mark = db.UndoMark();
  ASSERT_OK_AND_ASSIGN(
      TupleHandle h2,
      db.InsertRow("emp", Row{Value::String("new"), Value::Double(2)}));
  ASSERT_OK(db.UpdateRow("emp", h1,
                         Row{Value::String("changed"), Value::Double(9)}));
  ASSERT_OK(db.DeleteRow("emp", h1));

  ASSERT_OK(db.RollbackTo(mark));

  ASSERT_OK_AND_ASSIGN(const Table* table, db.GetTable("emp"));
  EXPECT_EQ(table->size(), 1u);
  EXPECT_FALSE(table->Contains(h2));
  ASSERT_OK_AND_ASSIGN(const Row* row, table->Get(h1));
  EXPECT_EQ(row->at(0), Value::String("keep"));
  EXPECT_EQ(row->at(1), Value::Double(1));
  EXPECT_EQ(db.undo_log_size(), mark);
}

TEST(Database, RollbackInterleavedAcrossTables) {
  Database db;
  ASSERT_OK(db.CreateTable(EmpSchema()));
  ASSERT_OK(db.CreateTable(TableSchema("dept", {{"dept_no", ValueType::kInt}})));
  UndoLog::Mark mark = db.UndoMark();

  ASSERT_OK_AND_ASSIGN(
      TupleHandle e,
      db.InsertRow("emp", Row{Value::String("x"), Value::Double(1)}));
  ASSERT_OK_AND_ASSIGN(TupleHandle d, db.InsertRow("dept", Row{Value::Int(7)}));
  ASSERT_OK(db.UpdateRow("dept", d, Row{Value::Int(8)}));
  ASSERT_OK(db.DeleteRow("emp", e));

  ASSERT_OK(db.RollbackTo(mark));
  ASSERT_OK_AND_ASSIGN(const Table* emp, db.GetTable("emp"));
  ASSERT_OK_AND_ASSIGN(const Table* dept, db.GetTable("dept"));
  EXPECT_EQ(emp->size(), 0u);
  EXPECT_EQ(dept->size(), 0u);
}

TEST(Database, PartialRollbackToMidMark) {
  Database db;
  ASSERT_OK(db.CreateTable(EmpSchema()));
  ASSERT_OK_AND_ASSIGN(
      TupleHandle h1,
      db.InsertRow("emp", Row{Value::String("a"), Value::Double(1)}));
  UndoLog::Mark mid = db.UndoMark();
  ASSERT_OK(db.InsertRow("emp", Row{Value::String("b"), Value::Double(2)}).status());
  ASSERT_OK(db.RollbackTo(mid));

  ASSERT_OK_AND_ASSIGN(const Table* table, db.GetTable("emp"));
  EXPECT_EQ(table->size(), 1u);
  EXPECT_TRUE(table->Contains(h1));
}

// An inner operation block fails and rolls back to its own mark; the
// outer block's records must survive untouched and remain replayable.
TEST(UndoLog, NestedMarksPartialRollbackPreservesOuterRecords) {
  Database db;
  ASSERT_OK(db.CreateTable(EmpSchema()));
  UndoLog::Mark outer = db.UndoMark();
  ASSERT_OK_AND_ASSIGN(
      TupleHandle h1,
      db.InsertRow("emp", Row{Value::String("outer"), Value::Double(1)}));
  ASSERT_OK(db.UpdateRow("emp", h1,
                         Row{Value::String("outer2"), Value::Double(2)}));
  size_t outer_records = db.undo_log_size();

  // Inner scope: insert + update + delete, then partial rollback.
  UndoLog::Mark inner = db.UndoMark();
  ASSERT_OK_AND_ASSIGN(
      TupleHandle h2,
      db.InsertRow("emp", Row{Value::String("inner"), Value::Double(3)}));
  ASSERT_OK(db.UpdateRow("emp", h1,
                         Row{Value::String("clobbered"), Value::Double(9)}));
  ASSERT_OK(db.DeleteRow("emp", h2));
  ASSERT_OK(db.RollbackTo(inner));

  // TruncateTo semantics: exactly the outer records remain.
  EXPECT_EQ(db.undo_log_size(), outer_records);
  ASSERT_OK_AND_ASSIGN(const Table* table, db.GetTable("emp"));
  EXPECT_EQ(table->size(), 1u);
  ASSERT_OK_AND_ASSIGN(const Row* row, table->Get(h1));
  EXPECT_EQ(row->at(0), Value::String("outer2"));

  // The outer block can still roll back to the transaction start.
  ASSERT_OK(db.RollbackTo(outer));
  EXPECT_EQ(table->size(), 0u);
  EXPECT_EQ(db.undo_log_size(), outer);
}

TEST(UndoLog, TruncateToDropsOnlyNewerRecords) {
  UndoLog log;
  ASSERT_OK(log.Record(UndoRecord::Kind::kInsert, "t", 1));
  UndoLog::Mark m = log.mark();
  ASSERT_OK(log.Record(UndoRecord::Kind::kInsert, "t", 2));
  ASSERT_OK(log.Record(UndoRecord::Kind::kDelete, "t", 3));
  EXPECT_EQ(log.size(), 3u);
  log.TruncateTo(m);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.records()[0].handle, TupleHandle{1});
  // Truncating to a mark at or past the end is a no-op.
  log.TruncateTo(5);
  EXPECT_EQ(log.size(), 1u);
}

TEST(UndoLog, RecordBudgetExhaustion) {
  UndoLog log;
  log.set_record_budget(2);
  constexpr auto kInsert = UndoRecord::Kind::kInsert;
  ASSERT_OK(log.Record(kInsert, "t", 1));
  ASSERT_OK(log.Record(kInsert, "t", 2));
  EXPECT_EQ(log.Record(kInsert, "t", 3).code(),
            StatusCode::kResourceExhausted);
  // Freeing space (rollback truncation) makes room again.
  log.TruncateTo(1);
  ASSERT_OK(log.Record(kInsert, "t", 4));
}

// When the undo log cannot accept a record, the mutation must not stay
// applied — otherwise a later rollback would miss it.
TEST(Database, UnloggableMutationIsRevertedAndStateStaysConsistent) {
  Database db;
  ASSERT_OK(db.CreateTable(EmpSchema()));
  ASSERT_OK_AND_ASSIGN(
      TupleHandle h1,
      db.InsertRow("emp", Row{Value::String("a"), Value::Double(1)}));
  ASSERT_OK_AND_ASSIGN(Table * table, db.GetTable("emp"));
  ASSERT_OK(table->CreateIndex(0));
  db.set_undo_budget(db.undo_log_size());  // no room for anything more
  uint64_t before = db.Checksum();

  EXPECT_EQ(db.InsertRow("emp", Row{Value::String("b"), Value::Double(2)})
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(db.UpdateRow("emp", h1,
                         Row{Value::String("c"), Value::Double(3)})
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(db.DeleteRow("emp", h1).code(), StatusCode::kResourceExhausted);

  EXPECT_EQ(db.Checksum(), before);
  ASSERT_OK(db.CheckInvariants());
  EXPECT_EQ(table->size(), 1u);
}

TEST(Database, ChecksumDetectsMutationsAndRoundTripsRollback) {
  Database db;
  ASSERT_OK(db.CreateTable(EmpSchema()));
  ASSERT_OK_AND_ASSIGN(Table * table, db.GetTable("emp"));
  ASSERT_OK(table->CreateIndex(1));
  ASSERT_OK(db.InsertRow("emp", Row{Value::String("a"), Value::Double(1)})
                .status());
  db.CommitAll();
  UndoLog::Mark mark = db.UndoMark();
  uint64_t s0 = db.Checksum();

  ASSERT_OK_AND_ASSIGN(
      TupleHandle h,
      db.InsertRow("emp", Row{Value::String("b"), Value::Double(2)}));
  EXPECT_NE(db.Checksum(), s0);
  ASSERT_OK(db.UpdateRow("emp", h, Row{Value::String("b"), Value::Double(3)}));
  EXPECT_NE(db.Checksum(), s0);

  ASSERT_OK(db.RollbackTo(mark));
  EXPECT_EQ(db.Checksum(), s0);
  ASSERT_OK(db.CheckInvariants());
}

TEST(Database, ChecksumEqualForIdenticallyBuiltDatabases) {
  auto build = [] {
    auto db = std::make_unique<Database>();
    EXPECT_OK(db->CreateTable(EmpSchema()));
    EXPECT_OK(
        db->InsertRow("emp", Row{Value::String("a"), Value::Double(1)})
            .status());
    EXPECT_OK(
        db->InsertRow("emp", Row{Value::String("b"), Value::Double(2)})
            .status());
    return db;
  };
  auto db1 = build();
  auto db2 = build();
  EXPECT_EQ(db1->Checksum(), db2->Checksum());
}

TEST(Database, CheckInvariantsCatchesIndexDivergence) {
  Database db;
  ASSERT_OK(db.CreateTable(EmpSchema()));
  ASSERT_OK_AND_ASSIGN(Table * table, db.GetTable("emp"));
  ASSERT_OK(table->CreateIndex(1));
  ASSERT_OK(db.InsertRow("emp", Row{Value::String("a"), Value::Double(1)})
                .status());
  ASSERT_OK(db.CheckInvariants());
  // Bypass the Database layer to damage the heap behind the index's back.
  ASSERT_OK(table->Insert(9999, Row{Value::String("x"), Value::Double(7)}));
  // (Insert maintains the index, so damage the other direction: a row
  // whose key the index never saw.)
  ASSERT_OK(db.CheckInvariants());
  const_cast<ColumnIndex*>(table->GetIndex(1))->Erase(Value::Double(7), 9999);
  Status s = db.CheckInvariants();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

// --- Table::Scan / Table::ProbeEq at the head and at snapshots ----------

/// What one Scan or ProbeEq appended, kept apart so a test can check both
/// parallel vectors.
struct ReadOut {
  std::vector<Row> rows;
  std::vector<TupleHandle> handles;
};

ReadOut ScanAt(const Table& table, uint64_t at) {
  ReadOut out;
  table.Scan(at, &out.rows, &out.handles);
  EXPECT_EQ(out.rows.size(), out.handles.size());
  return out;
}

ReadOut ProbeAt(const Table& table, uint64_t at, size_t column,
                const Value& value) {
  ReadOut out;
  EXPECT_OK(table.ProbeEq(at, column, value, nullptr, &out.rows,
                          &out.handles));
  EXPECT_EQ(out.rows.size(), out.handles.size());
  return out;
}

using Handles = std::vector<TupleHandle>;

/// A database holding t(k double, tag string) with an equality index on
/// k. Commits take explicit LSNs so tests can read between them; a read
/// of an LSN that a later commit supersedes pins it before that commit,
/// which otherwise prunes what no pin can see.
class ReadPrimitives : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.CreateTable(TableSchema(
        "t", {{"k", ValueType::kDouble}, {"tag", ValueType::kString}})));
    ASSERT_OK_AND_ASSIGN(table_, db_.GetTable("t"));
    ASSERT_OK(table_->CreateIndex(0));
  }

  TupleHandle Insert(Value k, const char* tag) {
    auto h = db_.InsertRow("t", Row{std::move(k), Value::String(tag)});
    EXPECT_TRUE(h.ok()) << h.status();
    return h.ok() ? h.value() : kInvalidHandle;
  }

  void Update(TupleHandle h, Value k, const char* tag) {
    EXPECT_OK(db_.UpdateRow("t", h, Row{std::move(k), Value::String(tag)}));
  }

  void Pin(std::initializer_list<uint64_t> lsns) {
    for (uint64_t lsn : lsns) pins_.push_back(db_.PinSnapshot(lsn));
  }

  Database db_;
  Table* table_ = nullptr;
  std::vector<SnapshotRegistry::Pin> pins_;  // released before db_
};

TEST_F(ReadPrimitives, PendingInsertIsVisibleOnlyAtTheHead) {
  const TupleHandle h1 = Insert(Value::Double(1), "a");
  db_.CommitAll(10);
  const TupleHandle h2 = Insert(Value::Double(1), "pending");

  EXPECT_EQ(ScanAt(*table_, kHeadLsn).handles, (Handles{h1, h2}));
  EXPECT_EQ(ProbeAt(*table_, kHeadLsn, 0, Value::Double(1)).handles,
            (Handles{h1, h2}));
  for (uint64_t lsn : {uint64_t{0}, uint64_t{9}, uint64_t{10}, uint64_t{1000},
                       kHeadLsn - 1}) {
    const Handles committed = lsn >= 10 ? Handles{h1} : Handles{};
    EXPECT_EQ(ScanAt(*table_, lsn).handles, committed) << "lsn " << lsn;
    EXPECT_EQ(ProbeAt(*table_, lsn, 0, Value::Double(1)).handles, committed)
        << "lsn " << lsn;
  }
}

TEST_F(ReadPrimitives, PendingDeleteIsGoneAtTheHeadOnly) {
  const TupleHandle h1 = Insert(Value::Double(1), "a");
  db_.CommitAll(10);
  const TupleHandle h2 = Insert(Value::Double(1), "b");
  db_.CommitAll(20);
  ASSERT_OK(db_.DeleteRow("t", h1));

  EXPECT_EQ(ScanAt(*table_, kHeadLsn).handles, (Handles{h2}));
  EXPECT_EQ(ProbeAt(*table_, kHeadLsn, 0, Value::Double(1)).handles,
            (Handles{h2}));
  EXPECT_EQ(ScanAt(*table_, 5).handles, Handles{});
  EXPECT_EQ(ScanAt(*table_, 10).handles, (Handles{h1}));
  EXPECT_EQ(ScanAt(*table_, 20).handles, (Handles{h1, h2}));
  EXPECT_EQ(ProbeAt(*table_, 20, 0, Value::Double(1)).handles,
            (Handles{h1, h2}));
  const ReadOut at_10 = ScanAt(*table_, 10);
  ASSERT_EQ(at_10.rows.size(), 1u);
  EXPECT_EQ(at_10.rows[0].at(1), Value::String("a"));

  Pin({29});
  db_.CommitAll(30);
  EXPECT_EQ(ScanAt(*table_, 29).handles, (Handles{h1, h2}));
  EXPECT_EQ(ScanAt(*table_, 30).handles, (Handles{h2}));
}

TEST_F(ReadPrimitives, EachVersionIsVisibleInItsOwnInterval) {
  const TupleHandle h = Insert(Value::Double(1), "v1");
  db_.CommitAll(10);
  Update(h, Value::Double(2), "v2");
  Pin({9, 10, 15, 19});
  db_.CommitAll(20);
  Update(h, Value::Double(3), "v3");
  Pin({20, 25, 29});
  db_.CommitAll(30);
  Update(h, Value::Double(4), "pending");

  auto tag_at = [&](uint64_t at) -> std::string {
    const ReadOut out = ScanAt(*table_, at);
    if (out.rows.empty()) return "none";
    EXPECT_EQ(out.handles, (Handles{h}));
    return out.rows[0].at(1).AsString();
  };
  EXPECT_EQ(tag_at(9), "none");
  EXPECT_EQ(tag_at(10), "v1");
  EXPECT_EQ(tag_at(19), "v1");
  EXPECT_EQ(tag_at(20), "v2");
  EXPECT_EQ(tag_at(29), "v2");
  EXPECT_EQ(tag_at(30), "v3");
  EXPECT_EQ(tag_at(1000), "v3");
  EXPECT_EQ(tag_at(kHeadLsn), "pending");

  // The probe sees the same version: the key of each interval matches
  // only inside it.
  for (int k = 1; k <= 4; ++k) {
    for (uint64_t at : {uint64_t{15}, uint64_t{25}, uint64_t{35}, kHeadLsn}) {
      const int visible_k = at == 15 ? 1 : at == 25 ? 2 : at == 35 ? 3 : 4;
      EXPECT_EQ(ProbeAt(*table_, at, 0, Value::Double(k)).handles,
                k == visible_k ? Handles{h} : Handles{})
          << "k " << k << " at " << at;
    }
  }
}

TEST_F(ReadPrimitives, ProbeOfSupersededVersionsUsesIndexKeyEquality) {
  // Int 1 and Double 1.0 are one key, and so are -0.0 and 0.0; NULL is
  // never a key. All of them are superseded at 20, so a read at 10 sees
  // them only through the version chains.
  const TupleHandle h_int = Insert(Value::Int(1), "int");
  const TupleHandle h_double = Insert(Value::Double(1.0), "double");
  const TupleHandle h_negzero = Insert(Value::Double(-0.0), "negzero");
  const TupleHandle h_null = Insert(Value::Null(), "null");
  const TupleHandle h_two = Insert(Value::Double(2), "two");
  db_.CommitAll(10);
  for (TupleHandle h : {h_int, h_double, h_negzero, h_null, h_two}) {
    Update(h, Value::Double(7), "moved");
  }
  Pin({10});
  db_.CommitAll(20);

  EXPECT_EQ(ProbeAt(*table_, 10, 0, Value::Int(1)).handles,
            (Handles{h_int, h_double}));
  EXPECT_EQ(ProbeAt(*table_, 10, 0, Value::Double(1.0)).handles,
            (Handles{h_int, h_double}));
  EXPECT_EQ(ProbeAt(*table_, 10, 0, Value::Double(0.0)).handles,
            (Handles{h_negzero}));
  EXPECT_EQ(ProbeAt(*table_, 10, 0, Value::Double(-0.0)).handles,
            (Handles{h_negzero}));
  EXPECT_EQ(ProbeAt(*table_, 10, 0, Value::Null()).handles, Handles{});
  EXPECT_EQ(ProbeAt(*table_, 10, 0, Value::Double(7)).handles, Handles{});
  // At 20 the live rows answer from the index.
  EXPECT_EQ(ProbeAt(*table_, 20, 0, Value::Int(7)).handles,
            (Handles{h_int, h_double, h_negzero, h_null, h_two}));
  EXPECT_EQ(ProbeAt(*table_, 20, 0, Value::Double(1)).handles, Handles{});
}

TEST_F(ReadPrimitives, ProbeOnAnUnindexedColumnIsAScan) {
  const TupleHandle h1 = Insert(Value::Double(1), "a");
  const TupleHandle h2 = Insert(Value::Double(2), "b");
  db_.CommitAll(10);
  Update(h1, Value::Double(1), "a2");
  Pin({5, 10});
  db_.CommitAll(20);
  ASSERT_OK(db_.DeleteRow("t", h2));
  Insert(Value::Double(3), "pending");

  for (uint64_t at : {uint64_t{5}, uint64_t{10}, uint64_t{20}, kHeadLsn}) {
    const ReadOut scan = ScanAt(*table_, at);
    const ReadOut probe = ProbeAt(*table_, at, 1, Value::String("a"));
    EXPECT_EQ(probe.handles, scan.handles) << "at " << at;
    EXPECT_EQ(probe.rows, scan.rows) << "at " << at;
  }
}

TEST_F(ReadPrimitives, MergedOutputIsInAscendingHandleOrder) {
  // At snapshot 10, h1 and h3 are live rows while h2 (updated) and h4
  // (deleted) are only in their version chains: both arms interleave.
  const TupleHandle h1 = Insert(Value::Double(1), "h1");
  const TupleHandle h2 = Insert(Value::Double(1), "h2");
  const TupleHandle h3 = Insert(Value::Double(1), "h3");
  const TupleHandle h4 = Insert(Value::Double(1), "h4");
  db_.CommitAll(10);
  Update(h2, Value::Double(5), "h2 moved");
  ASSERT_OK(db_.DeleteRow("t", h4));
  Pin({10});
  db_.CommitAll(20);

  const Handles all{h1, h2, h3, h4};
  const ReadOut scan = ScanAt(*table_, 10);
  EXPECT_EQ(scan.handles, all);
  const ReadOut probe = ProbeAt(*table_, 10, 0, Value::Double(1));
  EXPECT_EQ(probe.handles, all);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(scan.rows[i].at(1).AsString(), "h" + std::to_string(i + 1));
    EXPECT_EQ(probe.rows[i], scan.rows[i]);
  }
  EXPECT_EQ(ScanAt(*table_, kHeadLsn).handles, (Handles{h1, h2, h3}));
}

TEST_F(ReadPrimitives, HeadProbeLocksEachCandidateBeforeReadingIt) {
  const TupleHandle h1 = Insert(Value::Double(1), "a");
  const TupleHandle h2 = Insert(Value::Double(1), "b");
  const TupleHandle h3 = Insert(Value::Double(1), "c");
  db_.CommitAll(10);

  // The lock callback runs outside the latch, so it may stand for a
  // writer that deletes h2 while this reader waits for its lock.
  Handles locked;
  ReadOut out;
  ASSERT_OK(table_->ProbeEq(
      kHeadLsn, 0, Value::Double(1),
      [&](TupleHandle h) {
        locked.push_back(h);
        if (h == h2) return table_->Erase(h2);
        return Status::OK();
      },
      &out.rows, &out.handles));
  EXPECT_EQ(locked, (Handles{h1, h2, h3}));
  EXPECT_EQ(out.handles, (Handles{h1, h3}));

  // A failed lock is the probe's outcome.
  out = ReadOut{};
  Status s = table_->ProbeEq(
      kHeadLsn, 0, Value::Double(1),
      [&](TupleHandle h) {
        return h == h3 ? Status::Deadlock("lock wait") : Status::OK();
      },
      &out.rows, &out.handles);
  EXPECT_EQ(s.code(), StatusCode::kDeadlock);
}

// --- Version state in the embedded engine -------------------------------
// An Engine without a scheduler has no floor provider, so each commit
// prunes at its own LSN: a superseded version outlives its commit only
// while a pin can still see it.

Value ScalarAt(const Engine& engine, const std::string& sql, uint64_t lsn) {
  auto stmt = Parser::ParseStatement(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  if (!stmt.ok()) return Value::Null();
  auto result = engine.QueryAtSnapshot(
      static_cast<const SelectStmt&>(*stmt.value()), lsn);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok() || result.value().rows.size() != 1) return Value::Null();
  return result.value().rows[0].at(0);
}

void LoadCounters(Engine* engine, int rows) {
  ASSERT_OK(engine->Execute("create table t (id int, v int)"));
  std::string insert = "insert into t values (0, 0)";
  for (int i = 1; i < rows; ++i) {
    insert += "; insert into t values (" + std::to_string(i) + ", 0)";
  }
  ASSERT_OK(engine->Execute(insert));
}

TEST(EmbeddedVersions, UnpinnedCommitsRetainNoVersions) {
  Engine engine;
  LoadCounters(&engine, 16);
  EXPECT_EQ(engine.db().VersionCount(), 0u);
  for (int i = 0; i < 40; ++i) {
    const std::string id = std::to_string(i % 16);
    ASSERT_OK(engine.Execute("update t set v = v + 1 where id = " + id));
    EXPECT_EQ(engine.db().VersionCount(), 0u) << "update " << i;
    ASSERT_OK(engine.Execute("delete from t where id = " + id +
                             "; insert into t values (" + id + ", 0)"));
    EXPECT_EQ(engine.db().VersionCount(), 0u) << "delete " << i;
  }
  EXPECT_EQ(engine.db().PruneQueueLength(), 0u)
      << "a commit whose floor is its own LSN leaves nothing for later";
  ASSERT_OK(engine.Execute("update t set v = v + 1"));
  EXPECT_EQ(engine.db().VersionCount(), 0u);
  EXPECT_EQ(QueryScalar(&engine, "select count(*) from t"), Value::Int(16));
}

TEST(EmbeddedVersions, PinnedReadKeepsItsVersionsUntilReleased) {
  char tmpl[] = "/tmp/sopr_storage_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  RuleEngineOptions options;
  options.wal_dir = tmpl;
  options.wal_fsync = WalFsyncPolicy::kOff;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine, Engine::Open(options));
  LoadCounters(engine.get(), 8);
  ASSERT_OK(engine->Execute("update t set v = id"));  // sum 28
  const std::string sum = "select sum(v) from t";
  const std::string count = "select count(*) from t";

  // Updates under a pin: the pinned read keeps the pre-update rows, and
  // the first commit after the release that touches them drops them.
  const uint64_t before_update = engine->last_commit_lsn();
  SnapshotRegistry::Pin pin = engine->db().PinSnapshot(before_update);
  ASSERT_OK(engine->Execute("update t set v = v + 100"));
  ASSERT_OK(engine->Execute("update t set v = v + 100"));
  EXPECT_EQ(ScalarAt(*engine, sum, before_update), Value::Int(28));
  EXPECT_EQ(QueryScalar(engine.get(), sum), Value::Int(28 + 8 * 200));
  EXPECT_EQ(engine->db().VersionCount(), 8u)
      << "one version per row: the one the pin sees";
  pin.Reset();
  ASSERT_OK(engine->Execute("update t set v = v - 200"));
  EXPECT_EQ(engine->db().VersionCount(), 0u);

  // A delete under a pin: nothing later writes the row, so the first
  // checkpoint after the release drops its version.
  const uint64_t before_delete = engine->last_commit_lsn();
  pin = engine->db().PinSnapshot(before_delete);
  ASSERT_OK(engine->Execute("delete from t where id < 3"));
  EXPECT_EQ(ScalarAt(*engine, count, before_delete), Value::Int(8));
  EXPECT_EQ(ScalarAt(*engine, sum, before_delete), Value::Int(28));
  EXPECT_EQ(QueryScalar(engine.get(), count), Value::Int(5));
  EXPECT_EQ(engine->db().VersionCount(), 3u);
  ASSERT_OK(engine->Checkpoint());
  EXPECT_EQ(ScalarAt(*engine, count, before_delete), Value::Int(8))
      << "a checkpoint keeps what a live pin sees";
  pin.Reset();
  ASSERT_OK(engine->Checkpoint());
  EXPECT_EQ(engine->db().VersionCount(), 0u);
  engine.reset();
  std::filesystem::remove_all(tmpl);
}

TEST(Database, DropTable) {
  Database db;
  ASSERT_OK(db.CreateTable(EmpSchema()));
  EXPECT_TRUE(db.catalog().HasTable("emp"));
  ASSERT_OK(db.DropTable("emp"));
  EXPECT_FALSE(db.catalog().HasTable("emp"));
  EXPECT_FALSE(db.GetTable("emp").ok());
}

TEST(Catalog, DuplicateAndMissingTables) {
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(EmpSchema()));
  EXPECT_EQ(catalog.AddTable(EmpSchema()).code(), StatusCode::kCatalogError);
  EXPECT_FALSE(catalog.GetTable("nope").ok());
  EXPECT_EQ(catalog.DropTable("nope").code(), StatusCode::kCatalogError);
}

TEST(Catalog, RejectsBadSchemas) {
  Catalog catalog;
  EXPECT_FALSE(catalog.AddTable(TableSchema("", {{"c", ValueType::kInt}})).ok());
  EXPECT_FALSE(catalog.AddTable(TableSchema("t", {})).ok());
  EXPECT_FALSE(catalog
                   .AddTable(TableSchema(
                       "t", {{"c", ValueType::kInt}, {"C", ValueType::kInt}}))
                   .ok());
}

TEST(Catalog, CaseInsensitiveLookup) {
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(EmpSchema()));
  EXPECT_TRUE(catalog.HasTable("EMP"));
  ASSERT_OK_AND_ASSIGN(const TableSchema* schema, catalog.GetTable("Emp"));
  EXPECT_TRUE(schema->FindColumn("NAME").has_value());
  EXPECT_EQ(*schema->FindColumn("Salary"), 1u);
}

}  // namespace
}  // namespace sopr
