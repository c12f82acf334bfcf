// Property test for the Figure 1 algorithm (experiment FIG1 in
// EXPERIMENTS.md): random DML runs against a real database while
// trans-info is maintained incrementally; the materialized transition
// tables must match an oracle computed from full before/after snapshots.

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "query/executor.h"
#include "rules/transition_tables.h"
#include "storage/database.h"
#include "test_util.h"

namespace sopr {
namespace {

class TransInfoProperty : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.CreateTable(TableSchema(
        "t", {{"a", ValueType::kInt}, {"b", ValueType::kInt}})));
  }

  std::map<TupleHandle, Row> Snapshot() {
    auto table = db_.GetTable("t");
    EXPECT_TRUE(table.ok());
    std::map<TupleHandle, Row> snap;
    for (const auto& [h, entry] : table.value()->rows()) {
      snap.emplace(h, entry.row);
    }
    return snap;
  }

  Database db_;
};

TEST_P(TransInfoProperty, TransitionTablesMatchSnapshotOracle) {
  std::mt19937 rng(GetParam());
  DatabaseResolver base(&db_);
  Executor executor(&db_, &base);

  // Seed rows.
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(
        db_.InsertRow("t", Row{Value::Int(i), Value::Int(100 + i)}).status());
  }
  db_.CommitAll();

  std::map<TupleHandle, Row> before = Snapshot();

  // Random DML ops, folding each affected set into the trans-info.
  TransInfo info;
  std::map<TupleHandle, std::set<size_t>> updated_cols;  // ground truth
  for (int step = 0; step < 40; ++step) {
    int what = std::uniform_int_distribution<int>(0, 2)(rng);
    int key = std::uniform_int_distribution<int>(0, 14)(rng);
    DmlEffect effect;
    if (what == 0) {
      InsertStmt ins;
      ins.table = "t";
      ins.rows.emplace_back();
      ins.rows[0].push_back(
          std::make_unique<LiteralExpr>(Value::Int(100 + step)));
      ins.rows[0].push_back(std::make_unique<LiteralExpr>(Value::Int(step)));
      ASSERT_OK_AND_ASSIGN(effect, executor.ExecuteInsert(ins));
    } else if (what == 1) {
      DeleteStmt del;
      del.table = "t";
      del.where = std::make_unique<BinaryExpr>(
          BinaryOp::kEq, std::make_unique<ColumnRefExpr>("", "a"),
          std::make_unique<LiteralExpr>(Value::Int(key)));
      ASSERT_OK_AND_ASSIGN(effect, executor.ExecuteDelete(del));
    } else {
      UpdateStmt upd;
      upd.table = "t";
      UpdateStmt::Assignment assign;
      assign.column = "b";
      assign.value = std::make_unique<BinaryExpr>(
          BinaryOp::kAdd, std::make_unique<ColumnRefExpr>("", "b"),
          std::make_unique<LiteralExpr>(Value::Int(1)));
      upd.assignments.push_back(std::move(assign));
      upd.where = std::make_unique<BinaryExpr>(
          BinaryOp::kLt, std::make_unique<ColumnRefExpr>("", "a"),
          std::make_unique<LiteralExpr>(Value::Int(key)));
      ASSERT_OK_AND_ASSIGN(effect, executor.ExecuteUpdate(upd));
      for (const auto& u : effect.updated) {
        updated_cols[u.handle].insert(u.columns.begin(), u.columns.end());
      }
    }
    info.ApplyOp(effect);
  }

  std::map<TupleHandle, Row> after = Snapshot();

  // Oracle sets.
  std::set<TupleHandle> oracle_inserted, oracle_deleted;
  for (const auto& [h, row] : after) {
    (void)row;
    if (before.count(h) == 0) oracle_inserted.insert(h);
  }
  for (const auto& [h, row] : before) {
    (void)row;
    if (after.count(h) == 0) oracle_deleted.insert(h);
  }
  std::set<TupleHandle> oracle_updated;
  for (const auto& [h, cols] : updated_cols) {
    (void)cols;
    if (before.count(h) > 0 && after.count(h) > 0) oracle_updated.insert(h);
  }

  // 1. The projected effect matches the oracle.
  TransitionEffect effect = info.ToEffect();
  EXPECT_EQ(effect.ForTable("t").inserted, oracle_inserted);
  EXPECT_EQ(effect.ForTable("t").deleted, oracle_deleted);
  std::set<TupleHandle> info_updated;
  for (const auto& [h, cols] : effect.ForTable("t").updated) {
    (void)cols;
    info_updated.insert(h);
  }
  EXPECT_EQ(info_updated, oracle_updated);
  EXPECT_TRUE(effect.WellFormed());

  // 2. Materialized transition tables carry the right values.
  TransitionTableResolver resolver(&db_, &info);

  TableRef inserted_ref{TableRefKind::kInserted, "t", "", ""};
  ASSERT_OK_AND_ASSIGN(Relation ins_rel, resolver.Resolve(inserted_ref));
  ASSERT_EQ(ins_rel.rows.size(), oracle_inserted.size());
  for (size_t i = 0; i < ins_rel.rows.size(); ++i) {
    EXPECT_EQ(ins_rel.rows[i], after.at(ins_rel.handles[i]));
  }

  TableRef deleted_ref{TableRefKind::kDeleted, "t", "", ""};
  ASSERT_OK_AND_ASSIGN(Relation del_rel, resolver.Resolve(deleted_ref));
  ASSERT_EQ(del_rel.rows.size(), oracle_deleted.size());
  for (size_t i = 0; i < del_rel.rows.size(); ++i) {
    // Deleted transition table shows the *pre-transition* value.
    EXPECT_EQ(del_rel.rows[i], before.at(del_rel.handles[i]));
  }

  TableRef old_upd_ref{TableRefKind::kOldUpdated, "t", "", ""};
  ASSERT_OK_AND_ASSIGN(Relation old_rel, resolver.Resolve(old_upd_ref));
  ASSERT_EQ(old_rel.rows.size(), oracle_updated.size());
  for (size_t i = 0; i < old_rel.rows.size(); ++i) {
    EXPECT_EQ(old_rel.rows[i], before.at(old_rel.handles[i]));
  }

  TableRef new_upd_ref{TableRefKind::kNewUpdated, "t", "", ""};
  ASSERT_OK_AND_ASSIGN(Relation new_rel, resolver.Resolve(new_upd_ref));
  ASSERT_EQ(new_rel.rows.size(), oracle_updated.size());
  for (size_t i = 0; i < new_rel.rows.size(); ++i) {
    EXPECT_EQ(new_rel.rows[i], after.at(new_rel.handles[i]));
  }
}

TEST_P(TransInfoProperty, BlockSplitComposeEqualsDirectFold) {
  // Split the same op stream into random blocks; folding blocks with
  // Compose must equal folding ops directly (Definition 2.1 lifted to
  // values, i.e. modify-trans-info correctness).
  std::mt19937 rng(GetParam() * 2654435761u + 1);
  DatabaseResolver base(&db_);
  Executor executor(&db_, &base);
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(
        db_.InsertRow("t", Row{Value::Int(i), Value::Int(100 + i)}).status());
  }
  db_.CommitAll();

  TransInfo direct;
  TransInfo blocked;
  TransInfo current_block;
  for (int step = 0; step < 30; ++step) {
    int what = std::uniform_int_distribution<int>(0, 2)(rng);
    int key = std::uniform_int_distribution<int>(0, 12)(rng);
    DmlEffect effect;
    if (what == 0) {
      InsertStmt ins;
      ins.table = "t";
      ins.rows.emplace_back();
      ins.rows[0].push_back(
          std::make_unique<LiteralExpr>(Value::Int(200 + step)));
      ins.rows[0].push_back(std::make_unique<LiteralExpr>(Value::Int(step)));
      ASSERT_OK_AND_ASSIGN(effect, executor.ExecuteInsert(ins));
    } else if (what == 1) {
      DeleteStmt del;
      del.table = "t";
      del.where = std::make_unique<BinaryExpr>(
          BinaryOp::kEq, std::make_unique<ColumnRefExpr>("", "a"),
          std::make_unique<LiteralExpr>(Value::Int(key)));
      ASSERT_OK_AND_ASSIGN(effect, executor.ExecuteDelete(del));
    } else {
      UpdateStmt upd;
      upd.table = "t";
      UpdateStmt::Assignment assign;
      assign.column = "a";
      assign.value = std::make_unique<BinaryExpr>(
          BinaryOp::kAdd, std::make_unique<ColumnRefExpr>("", "a"),
          std::make_unique<LiteralExpr>(Value::Int(0)));
      upd.assignments.push_back(std::move(assign));
      upd.where = std::make_unique<BinaryExpr>(
          BinaryOp::kGt, std::make_unique<ColumnRefExpr>("", "a"),
          std::make_unique<LiteralExpr>(Value::Int(key)));
      ASSERT_OK_AND_ASSIGN(effect, executor.ExecuteUpdate(upd));
    }
    direct.ApplyOp(effect);
    current_block.ApplyOp(effect);
    // Randomly close the block.
    if (std::uniform_int_distribution<int>(0, 3)(rng) == 0) {
      blocked.Compose(current_block);
      current_block.Clear();
    }
  }
  blocked.Compose(current_block);
  EXPECT_EQ(blocked, direct);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransInfoProperty, ::testing::Range(0u, 20u));

}  // namespace
}  // namespace sopr
