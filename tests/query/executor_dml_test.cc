// DML execution: affected sets, snapshot (Halloween-safe) semantics,
// coercion, insert-select.

#include <gtest/gtest.h>

#include "query/executor.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "test_util.h"

namespace sopr {
namespace {

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.CreateTable(TableSchema(
        "emp", {{"name", ValueType::kString},
                {"emp_no", ValueType::kInt},
                {"salary", ValueType::kDouble},
                {"dept_no", ValueType::kInt}})));
    ASSERT_OK(db_.CreateTable(TableSchema(
        "audit", {{"emp_no", ValueType::kInt}, {"tag", ValueType::kInt}})));
  }

  DmlEffect Run(const std::string& sql) {
    auto stmt = Parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    DatabaseResolver resolver(&db_);
    Executor executor(&db_, &resolver);
    auto effect = executor.ExecuteDml(*stmt.value());
    EXPECT_TRUE(effect.ok()) << sql << " -> " << effect.status();
    return effect.ok() ? std::move(effect).value() : DmlEffect{};
  }

  Status RunExpectError(const std::string& sql) {
    auto stmt = Parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    DatabaseResolver resolver(&db_);
    Executor executor(&db_, &resolver);
    auto effect = executor.ExecuteDml(*stmt.value());
    EXPECT_FALSE(effect.ok()) << sql;
    return effect.status();
  }

  size_t EmpSize() {
    auto t = db_.GetTable("emp");
    return t.ok() ? t.value()->size() : 0;
  }

  Database db_;
};

TEST_F(DmlTest, InsertValuesAffectedSet) {
  DmlEffect e = Run("insert into emp values ('a', 1, 100, 1)");
  EXPECT_EQ(e.table, "emp");
  ASSERT_EQ(e.inserted.size(), 1u);
  EXPECT_TRUE(e.deleted.empty());
  EXPECT_TRUE(e.updated.empty());
  EXPECT_EQ(EmpSize(), 1u);
}

TEST_F(DmlTest, InsertCoercesIntToDoubleColumn) {
  DmlEffect e = Run("insert into emp values ('a', 1, 100, 1)");
  auto table = db_.GetTable("emp");
  auto row = table.value()->Get(e.inserted[0]);
  EXPECT_EQ(row.value()->at(2), Value::Double(100.0));
}

TEST_F(DmlTest, MultiRowInsert) {
  DmlEffect e = Run("insert into emp values ('a', 1, 100, 1), ('b', 2, 200, 1)");
  EXPECT_EQ(e.inserted.size(), 2u);
  EXPECT_EQ(EmpSize(), 2u);
}

TEST_F(DmlTest, InsertSelect) {
  Run("insert into emp values ('a', 1, 100, 1), ('b', 2, 200, 2)");
  DmlEffect e = Run("insert into audit (select emp_no, 7 from emp)");
  EXPECT_EQ(e.table, "audit");
  EXPECT_EQ(e.inserted.size(), 2u);
}

TEST_F(DmlTest, InsertSelectFromSelfSeesSnapshot) {
  Run("insert into emp values ('a', 1, 100, 1)");
  // Self-referencing insert-select must not loop on its own output.
  DmlEffect e = Run("insert into emp (select name, emp_no + 10, salary, "
                    "dept_no from emp)");
  EXPECT_EQ(e.inserted.size(), 1u);
  EXPECT_EQ(EmpSize(), 2u);
}

TEST_F(DmlTest, InsertArityMismatchFails) {
  Status s = RunExpectError("insert into emp values (1, 2)");
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  EXPECT_EQ(EmpSize(), 0u);
}

TEST_F(DmlTest, DeleteAffectedSetCarriesOldRows) {
  Run("insert into emp values ('a', 1, 100, 1), ('b', 2, 200, 2)");
  DmlEffect e = Run("delete from emp where salary > 150");
  ASSERT_EQ(e.deleted.size(), 1u);
  EXPECT_EQ(e.deleted[0].second.at(0), Value::String("b"));
  EXPECT_EQ(EmpSize(), 1u);
}

TEST_F(DmlTest, DeleteWithoutWhereDeletesAll) {
  Run("insert into emp values ('a', 1, 100, 1), ('b', 2, 200, 2)");
  DmlEffect e = Run("delete from emp");
  EXPECT_EQ(e.deleted.size(), 2u);
  EXPECT_EQ(EmpSize(), 0u);
}

TEST_F(DmlTest, UpdateAffectedSetIncludesUnchangedValues) {
  // The paper: the affected set includes tuples *selected* for update
  // even if the value does not actually change.
  Run("insert into emp values ('a', 1, 100, 1)");
  DmlEffect e = Run("update emp set salary = salary where emp_no = 1");
  ASSERT_EQ(e.updated.size(), 1u);
  EXPECT_EQ(e.updated[0].old_row.at(2), Value::Double(100));
  // Column index 2 == salary.
  EXPECT_EQ(e.updated[0].columns, (std::vector<size_t>{2}));
}

TEST_F(DmlTest, UpdateSeesPreStatementStateUniformly) {
  // Halloween protection: an update moving everyone above the average
  // must compute the average once, against the pre-statement state.
  Run("insert into emp values ('a', 1, 100, 1), ('b', 2, 200, 1)");
  Run("update emp set salary = salary + "
      "(select avg(salary) from emp e2)");
  DatabaseResolver resolver(&db_);
  Executor executor(&db_, &resolver);
  auto stmt = Parser::ParseStatement("select salary from emp order by emp_no");
  auto result =
      executor.ExecuteSelect(static_cast<const SelectStmt&>(*stmt.value()));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows[0].at(0), Value::Double(250));
  EXPECT_EQ(result.value().rows[1].at(0), Value::Double(350));
}

TEST_F(DmlTest, UpdateMultipleColumns) {
  Run("insert into emp values ('a', 1, 100, 1)");
  DmlEffect e = Run("update emp set salary = 500, dept_no = 9");
  ASSERT_EQ(e.updated.size(), 1u);
  EXPECT_EQ(e.updated[0].columns, (std::vector<size_t>{2, 3}));
}

TEST_F(DmlTest, UpdateUnknownColumnFails) {
  Run("insert into emp values ('a', 1, 100, 1)");
  Status s = RunExpectError("update emp set nosuch = 1");
  EXPECT_EQ(s.code(), StatusCode::kCatalogError);
}

TEST_F(DmlTest, DmlAgainstMissingTableFails) {
  EXPECT_EQ(RunExpectError("insert into nosuch values (1)").code(),
            StatusCode::kCatalogError);
  EXPECT_EQ(RunExpectError("delete from nosuch").code(),
            StatusCode::kCatalogError);
  EXPECT_EQ(RunExpectError("update nosuch set a = 1").code(),
            StatusCode::kCatalogError);
}

TEST_F(DmlTest, TransitionTableOutsideRuleFails) {
  Run("insert into emp values ('a', 1, 100, 1)");
  Status s = RunExpectError(
      "delete from emp where emp_no in (select emp_no from inserted emp)");
  EXPECT_EQ(s.code(), StatusCode::kCatalogError);
}

TEST_F(DmlTest, DeleteUsesThreeValuedLogic) {
  Run("insert into emp values ('a', 1, null, 1), ('b', 2, 200, 1)");
  // NULL salary: predicate unknown -> not deleted.
  DmlEffect e = Run("delete from emp where salary > 100");
  EXPECT_EQ(e.deleted.size(), 1u);
  EXPECT_EQ(EmpSize(), 1u);
}

// --- DML whose subquery reads its own target table ------------------------
// The subquery is evaluated against the pre-statement state for every
// target row: a row the statement has already deleted or updated is still
// seen by the subquery. (Re-evaluating against the changing table would
// give different answers on each case below.)

class SelfReadingDmlTest : public DmlTest {
 protected:
  void SetUp() override {
    DmlTest::SetUp();
    ASSERT_OK(db_.CreateTable(
        TableSchema("t", {{"a", ValueType::kInt}, {"b", ValueType::kInt}})));
    Run("insert into t values (1, 10), (2, null), (3, 1), (5, 3)");
  }

  std::vector<std::string> Rows() {
    DatabaseResolver resolver(&db_);
    Executor executor(&db_, &resolver);
    auto stmt = Parser::ParseStatement("select a, b from t order by a");
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    auto result =
        executor.ExecuteSelect(static_cast<const SelectStmt&>(*stmt.value()));
    EXPECT_TRUE(result.ok()) << result.status();
    std::vector<std::string> rows;
    if (!result.ok()) return rows;
    for (const Row& row : result.value().rows) {
      rows.push_back(row.at(0).ToString() + "," + row.at(1).ToString());
    }
    return rows;
  }
};

TEST_F(SelfReadingDmlTest, DeleteInSubqueryOverTargetSeesPreStatementSet) {
  // {a + 1} = {2, 3, 4, 6}: rows 2 and 3 go. Had row 2's delete been
  // visible, row 3 would have stayed.
  DmlEffect e = Run("delete from t where a in (select a + 1 from t)");
  EXPECT_EQ(e.deleted.size(), 2u);
  EXPECT_EQ(Rows(), (std::vector<std::string>{"1,10", "5,3"}));
}

TEST_F(SelfReadingDmlTest, UpdateWhereInMaxOfTarget) {
  DmlEffect e =
      Run("update t set b = b + 1 where a in (select max(a) from t)");
  EXPECT_EQ(e.updated.size(), 1u);
  EXPECT_EQ(Rows(),
            (std::vector<std::string>{"1,10", "2,NULL", "3,1", "5,4"}));
}

TEST_F(SelfReadingDmlTest, UpdateOfTheSubqueryColumnSeesPreStatementSet) {
  // a + 1 in {1, 2, 3, 5}: rows 1 and 2 move up by one. Had row 1's new
  // value been visible, the set would have changed under row 2.
  DmlEffect e = Run("update t set a = a + 1 where a + 1 in (select a from t)");
  EXPECT_EQ(e.updated.size(), 2u);
  EXPECT_EQ(Rows(),
            (std::vector<std::string>{"2,10", "3,NULL", "3,1", "5,3"}));
}

TEST_F(SelfReadingDmlTest, NotInOverASetWithNullMatchesNothing) {
  // {b} = {10, NULL, 1, 3}: `a not in` is FALSE or UNKNOWN for every row.
  EXPECT_EQ(Run("update t set b = 0 where a not in (select b from t)")
                .updated.size(),
            0u);
  EXPECT_EQ(Run("delete from t where a not in (select b from t)")
                .deleted.size(),
            0u);
  EXPECT_EQ(Rows(),
            (std::vector<std::string>{"1,10", "2,NULL", "3,1", "5,3"}));
}

TEST_F(SelfReadingDmlTest, DeletingTheNullRowDoesNotUnblockNotIn) {
  // Only the NULL row goes: for a = 5 the predicate is FALSE OR UNKNOWN.
  // Had the NULL row's delete been visible, `5 not in {10, 1, 3}` would
  // have been TRUE and row 5 would have gone too.
  DmlEffect e =
      Run("delete from t where b is null or a not in (select b from t)");
  EXPECT_EQ(e.deleted.size(), 1u);
  EXPECT_EQ(Rows(), (std::vector<std::string>{"1,10", "3,1", "5,3"}));
}

}  // namespace
}  // namespace sopr
