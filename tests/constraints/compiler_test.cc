// Constraint compiler ([CW90]/§6): high-level constraints compile into
// production rules that enforce them.

#include "constraints/compiler.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace sopr {
namespace {

class CompilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CreatePaperSchema(&engine_);
    LoadOrgChart(&engine_);
  }
  Engine engine_;
  ConstraintCompiler compiler_{&engine_};
};

TEST_F(CompilerTest, ReferentialCascade) {
  ReferentialConstraint fk;
  fk.name = "emp_dept_fk";
  fk.child_table = "emp";
  fk.child_column = "dept_no";
  fk.parent_table = "dept";
  fk.parent_column = "dept_no";
  fk.on_parent_delete = ViolationAction::kCascade;
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> rules,
                       compiler_.AddReferential(fk));
  EXPECT_EQ(rules.size(), 3u);

  // Parent delete cascades to children.
  ASSERT_OK(engine_.Execute("delete from dept where dept_no = 3"));
  EXPECT_EQ(EmpNames(&engine_),
            (std::vector<std::string>{"Bill", "Jane", "Jim", "Mary"}));

  // Dangling child insert is rolled back.
  EXPECT_EQ(engine_.Execute("insert into emp values ('Bad', 99, 1, 77)").code(),
            StatusCode::kRolledBack);
  EXPECT_EQ(EmpNames(&engine_).size(), 4u);

  // NULL FK is allowed.
  ASSERT_OK(engine_.Execute("insert into emp values ('Free', 99, 1, null)"));

  // FK update to a dangling value is rolled back; to a valid value is OK.
  EXPECT_EQ(
      engine_.Execute("update emp set dept_no = 77 where name = 'Bill'").code(),
      StatusCode::kRolledBack);
  ASSERT_OK(
      engine_.Execute("update emp set dept_no = 1 where name = 'Bill'"));

  // Parent key update that orphans children is rolled back.
  EXPECT_EQ(
      engine_.Execute("update dept set dept_no = 9 where dept_no = 1").code(),
      StatusCode::kRolledBack);
}

TEST_F(CompilerTest, ReferentialRestrict) {
  ReferentialConstraint fk;
  fk.name = "fk";
  fk.child_table = "emp";
  fk.child_column = "dept_no";
  fk.parent_table = "dept";
  fk.parent_column = "dept_no";
  fk.on_parent_delete = ViolationAction::kRollback;
  ASSERT_OK(compiler_.AddReferential(fk).status());

  // Deleting a referenced parent aborts.
  EXPECT_EQ(engine_.Execute("delete from dept where dept_no = 3").code(),
            StatusCode::kRolledBack);
  EXPECT_EQ(QueryScalar(&engine_, "select count(*) from dept"), Value::Int(4));

  // Deleting an unreferenced parent is fine once its children are gone.
  ASSERT_OK(engine_.Execute("delete from emp where dept_no = 3"));
  ASSERT_OK(engine_.Execute("delete from dept where dept_no = 3"));
}

TEST_F(CompilerTest, ReferentialSetNull) {
  ReferentialConstraint fk;
  fk.name = "fk";
  fk.child_table = "emp";
  fk.child_column = "dept_no";
  fk.parent_table = "dept";
  fk.parent_column = "dept_no";
  fk.on_parent_delete = ViolationAction::kSetNull;
  ASSERT_OK(compiler_.AddReferential(fk).status());

  ASSERT_OK(engine_.Execute("delete from dept where dept_no = 3"));
  EXPECT_EQ(QueryScalar(&engine_,
                        "select count(*) from emp where dept_no is null"),
            Value::Int(2));
  EXPECT_EQ(EmpNames(&engine_).size(), 6u);  // nobody deleted
}

TEST_F(CompilerTest, DomainConstraint) {
  DomainConstraint dc;
  dc.name = "salary_range";
  dc.table = "emp";
  dc.column = "salary";
  dc.predicate_sql = "salary >= 0 and salary < 1000000";
  ASSERT_OK(compiler_.AddDomain(dc).status());

  EXPECT_EQ(
      engine_.Execute("insert into emp values ('Bad', 99, -5, 1)").code(),
      StatusCode::kRolledBack);
  EXPECT_EQ(
      engine_.Execute("update emp set salary = -1 where name = 'Bill'").code(),
      StatusCode::kRolledBack);
  ASSERT_OK(engine_.Execute("insert into emp values ('Ok', 99, 5, 1)"));
  EXPECT_EQ(QueryScalar(&engine_,
                        "select salary from emp where name = 'Bill'"),
            Value::Double(25000));
}

TEST_F(CompilerTest, UniqueConstraint) {
  UniqueConstraint uc;
  uc.name = "emp_no_key";
  uc.table = "emp";
  uc.column = "emp_no";
  ASSERT_OK(compiler_.AddUnique(uc).status());

  // Duplicate emp_no rejected (10 == Jane).
  EXPECT_EQ(
      engine_.Execute("insert into emp values ('Dup', 10, 1, 1)").code(),
      StatusCode::kRolledBack);
  // Update creating a duplicate rejected.
  EXPECT_EQ(
      engine_.Execute("update emp set emp_no = 10 where name = 'Bill'").code(),
      StatusCode::kRolledBack);
  // Fresh value fine; multiple NULLs fine.
  ASSERT_OK(engine_.Execute("insert into emp values ('New', 70, 1, 1)"));
  ASSERT_OK(engine_.Execute("insert into emp values ('N1', null, 1, 1)"));
  ASSERT_OK(engine_.Execute("insert into emp values ('N2', null, 1, 1)"));
}

TEST_F(CompilerTest, AggregateConstraint) {
  AggregateConstraint ac;
  ac.name = "payroll_cap";
  ac.table = "emp";
  ac.predicate_sql = "(select sum(salary) from emp) < 400000";
  ASSERT_OK(compiler_.AddAggregate(ac).status());

  // Current payroll is 332000; +50000 is fine, +100000 violates.
  ASSERT_OK(engine_.Execute("insert into emp values ('Ok', 70, 50000, 1)"));
  EXPECT_EQ(
      engine_.Execute("insert into emp values ('Pricey', 71, 100000, 1)")
          .code(),
      StatusCode::kRolledBack);
  // Raising salaries past the cap also rolls back.
  EXPECT_EQ(engine_.Execute("update emp set salary = salary * 2").code(),
            StatusCode::kRolledBack);
  // Deleting below the cap is always fine.
  ASSERT_OK(engine_.Execute("delete from emp where name = 'Ok'"));
}

TEST_F(CompilerTest, GeneratedSqlIsRecorded) {
  DomainConstraint dc;
  dc.name = "pos";
  dc.table = "emp";
  dc.column = "salary";
  dc.predicate_sql = "salary >= 0";
  ASSERT_OK(compiler_.AddDomain(dc).status());
  ASSERT_EQ(compiler_.generated_sql().size(), 1u);
  EXPECT_NE(compiler_.generated_sql()[0].find("create rule pos_domain"),
            std::string::npos);
}

TEST_F(CompilerTest, ValidationRejectsBadIdentifiers) {
  DomainConstraint dc;
  dc.name = "bad name";  // space
  dc.table = "emp";
  dc.column = "salary";
  dc.predicate_sql = "salary >= 0";
  EXPECT_EQ(compiler_.AddDomain(dc).status().code(),
            StatusCode::kInvalidArgument);

  UniqueConstraint uc;
  uc.name = "u";
  uc.table = "emp; drop";  // injection attempt
  uc.column = "emp_no";
  EXPECT_EQ(compiler_.AddUnique(uc).status().code(),
            StatusCode::kInvalidArgument);

  AggregateConstraint ac;
  ac.name = "a";
  ac.table = "emp";
  ac.predicate_sql = "";
  EXPECT_EQ(compiler_.AddAggregate(ac).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CompilerTest, ConstraintsComposeAcrossTables) {
  // Referential cascade + aggregate cap installed together.
  ReferentialConstraint fk;
  fk.name = "fk";
  fk.child_table = "emp";
  fk.child_column = "dept_no";
  fk.parent_table = "dept";
  fk.parent_column = "dept_no";
  fk.on_parent_delete = ViolationAction::kCascade;
  ASSERT_OK(compiler_.AddReferential(fk).status());

  AggregateConstraint ac;
  ac.name = "min_headcount";
  ac.table = "emp";
  ac.predicate_sql = "(select count(*) from emp) >= 5";
  ASSERT_OK(compiler_.AddAggregate(ac).status());

  // Deleting dept 3 cascades 2 employees: 6 -> 4 < 5 violates the
  // headcount constraint -> whole transaction rolled back.
  EXPECT_EQ(engine_.Execute("delete from dept where dept_no = 3").code(),
            StatusCode::kRolledBack);
  EXPECT_EQ(EmpNames(&engine_).size(), 6u);
  EXPECT_EQ(QueryScalar(&engine_, "select count(*) from dept"), Value::Int(4));

  // Deleting dept 2 cascades only Bill: 6 -> 5 satisfies everything.
  ASSERT_OK(engine_.Execute("delete from dept where dept_no = 2"));
  EXPECT_EQ(EmpNames(&engine_).size(), 5u);
}

// A NULL parent key must not disable the checks: `x not in (1, NULL)` is
// UNKNOWN for every x, so a parent-key list that keeps the NULL would let
// every orphan through.
class CompilerNullParentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(engine_.Execute("create table p (k int)"));
    ASSERT_OK(engine_.Execute("create table c (k int)"));
    ReferentialConstraint fk;
    fk.name = "fk";
    fk.child_table = "c";
    fk.child_column = "k";
    fk.parent_table = "p";
    fk.parent_column = "k";
    fk.on_parent_delete = ViolationAction::kRollback;
    ASSERT_OK(compiler_.AddReferential(fk).status());
    ASSERT_OK(engine_.Execute("insert into p values (1)"));
    ASSERT_OK(engine_.Execute("insert into p values (null)"));
  }
  Engine engine_;
  ConstraintCompiler compiler_{&engine_};
};

TEST_F(CompilerNullParentTest, OrphanChildInsertRollsBack) {
  EXPECT_EQ(engine_.Execute("insert into c values (2)").code(),
            StatusCode::kRolledBack);
  EXPECT_EQ(QueryScalar(&engine_, "select count(*) from c"), Value::Int(0));
  ASSERT_OK(engine_.Execute("insert into c values (1)"));
}

TEST_F(CompilerNullParentTest, OrphaningParentUpdateRollsBack) {
  ASSERT_OK(engine_.Execute("insert into c values (1)"));
  EXPECT_EQ(engine_.Execute("update p set k = 5 where k = 1").code(),
            StatusCode::kRolledBack);
  EXPECT_EQ(QueryScalar(&engine_, "select count(*) from p where k = 1"),
            Value::Int(1));
}

}  // namespace
}  // namespace sopr
