// Behavioral reproduction of every worked example in the paper (§3.1 and
// §4.5). Each test encodes the exact schema, rules, operation blocks, and
// expected outcome the paper describes in prose; see EXPERIMENTS.md.
//
// Every example runs under both execution engines (row and batch —
// docs/EXECUTION.md), so the paper semantics are pinned independently of
// execution strategy.

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "test_util.h"

namespace sopr {
namespace {

/// The two execution engines of the differential oracle.
enum class EngineMode { kRow, kBatch };

const char* ModeName(EngineMode mode) {
  switch (mode) {
    case EngineMode::kRow:
      return "Row";
    case EngineMode::kBatch:
      return "Batch";
  }
  return "Unknown";
}

class PaperExampleTest : public ::testing::TestWithParam<EngineMode> {
 protected:
  RuleEngineOptions Options() const {
    RuleEngineOptions o;
    o.batch_execution = GetParam() == EngineMode::kBatch;
    return o;
  }
};

std::string EngineName(const ::testing::TestParamInfo<EngineMode>& info) {
  return ModeName(info.param);
}

#define INSTANTIATE_PAPER_EXAMPLE(fixture)                               \
  INSTANTIATE_TEST_SUITE_P(                                              \
      Engines, fixture,                                                  \
      ::testing::Values(EngineMode::kRow, EngineMode::kBatch), EngineName)

// --- Example 3.1: cascaded delete for referential integrity -------------
// "Whenever departments are deleted, delete all employees in the deleted
// departments."
constexpr const char* kRule31 =
    "create rule cascade31 "
    "when deleted from dept "
    "then delete from emp "
    "     where dept_no in (select dept_no from deleted dept)";

class Example31 : public PaperExampleTest {};
INSTANTIATE_PAPER_EXAMPLE(Example31);

TEST_P(Example31, DeletingDeptDeletesItsEmployees) {
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  ASSERT_OK(engine.Execute(kRule31));

  // Delete department 3 (Sam and Sue work there).
  ASSERT_OK(engine.Execute("delete from dept where dept_no = 3"));

  EXPECT_EQ(EmpNames(&engine),
            (std::vector<std::string>{"Bill", "Jane", "Jim", "Mary"}));
  EXPECT_EQ(QueryScalar(&engine, "select count(*) from dept"), Value::Int(3));
}

TEST_P(Example31, SetOrientedOverMultipleDeletedDepts) {
  // The rule is triggered once by the *set* of deleted departments.
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  ASSERT_OK(engine.Execute(kRule31));

  ASSERT_OK_AND_ASSIGN(
      ExecutionTrace trace,
      engine.ExecuteBlock("delete from dept where dept_no = 2 or dept_no = 3"));

  // One firing handles both departments' employees.
  ASSERT_EQ(trace.firings.size(), 1u);
  EXPECT_EQ(trace.firings[0].rule, "cascade31");
  EXPECT_EQ(EmpNames(&engine),
            (std::vector<std::string>{"Jane", "Jim", "Mary"}));
}

TEST_P(Example31, NoTriggerWithoutDeptDelete) {
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  ASSERT_OK(engine.Execute(kRule31));

  ASSERT_OK_AND_ASSIGN(
      ExecutionTrace trace,
      engine.ExecuteBlock("delete from emp where name = 'Bill'"));
  EXPECT_TRUE(trace.firings.empty());
  EXPECT_TRUE(trace.considered.empty());
}

// --- Example 3.2: salary-sum controlled cut -----------------------------
// "Whenever employee salaries are updated, if the total of the updated
// salaries exceeds their total before the updates, then give all
// employees of department #2 a 5% salary cut and department #3 a 15% cut."
constexpr const char* kRule32 =
    "create rule salarycut32 "
    "when updated emp.salary "
    "if (select sum(salary) from new updated emp.salary) > "
    "   (select sum(salary) from old updated emp.salary) "
    "then update emp set salary = 0.95 * salary where dept_no = 2; "
    "     update emp set salary = 0.85 * salary where dept_no = 3";

class Example32 : public PaperExampleTest {};
INSTANTIATE_PAPER_EXAMPLE(Example32);

TEST_P(Example32, RaiseTriggersCuts) {
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  ASSERT_OK(engine.Execute(kRule32));

  // Raise Jane's salary: sum(new) > sum(old), so the cuts happen.
  // Note the rule then re-triggers on its own updates: after the first
  // firing, sum(new updated) for the *cut* tuples is LESS than sum(old),
  // so the condition is false and the cascade stops — exactly the §4.1
  // self-triggering analysis.
  ASSERT_OK_AND_ASSIGN(
      ExecutionTrace trace,
      engine.ExecuteBlock("update emp set salary = 95000 where name = 'Jane'"));
  EXPECT_EQ(trace.firings.size(), 1u);

  EXPECT_EQ(QueryScalar(&engine,
                        "select salary from emp where name = 'Bill'"),
            Value::Double(25000 * 0.95));
  EXPECT_EQ(QueryScalar(&engine, "select salary from emp where name = 'Sam'"),
            Value::Double(40000 * 0.85));
  EXPECT_EQ(QueryScalar(&engine, "select salary from emp where name = 'Sue'"),
            Value::Double(42000 * 0.85));
  // Unrelated employees unchanged.
  EXPECT_EQ(QueryScalar(&engine, "select salary from emp where name = 'Mary'"),
            Value::Double(70000));
}

TEST_P(Example32, PayCutDoesNotTrigger) {
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  ASSERT_OK(engine.Execute(kRule32));

  ASSERT_OK_AND_ASSIGN(
      ExecutionTrace trace,
      engine.ExecuteBlock(
          "update emp set salary = 80000 where name = 'Jane'"));

  // Triggered (salary updated) but the condition fails: no firing.
  ASSERT_EQ(trace.considered.size(), 1u);
  EXPECT_EQ(trace.considered[0].rule, "salarycut32");
  EXPECT_FALSE(trace.considered[0].condition_held);
  EXPECT_TRUE(trace.firings.empty());
  EXPECT_EQ(QueryScalar(&engine, "select salary from emp where name = 'Bill'"),
            Value::Double(25000));
}

TEST_P(Example32, OffsettingUpdatesInOneBlockDoNotTrigger) {
  // Set-oriented semantics: the condition sees the NET set of updated
  // salaries, so a raise and an equal cut in one block cancel.
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  ASSERT_OK(engine.Execute(kRule32));

  ASSERT_OK_AND_ASSIGN(
      ExecutionTrace trace,
      engine.ExecuteBlock(
          "update emp set salary = salary + 1000 where name = 'Jane'; "
          "update emp set salary = salary - 1000 where name = 'Jane'"));

  ASSERT_EQ(trace.considered.size(), 1u);
  EXPECT_FALSE(trace.considered[0].condition_held);
  EXPECT_TRUE(trace.firings.empty());
}

// --- Example 3.3: composite transition predicate ------------------------
// "Whenever employees are inserted or deleted, or employee salaries or
// department numbers are updated, check if any employee's salary exceeds
// twice the average salary for his department. If so, delete the manager
// of department #5."
constexpr const char* kRule33 =
    "create rule bigearner33 "
    "when inserted into emp "
    "  or deleted from emp "
    "  or updated emp.salary "
    "  or updated emp.dept_no "
    "if exists (select * from emp e1 "
    "           where salary > 2 * (select avg(salary) from emp e2 "
    "                               where e2.dept_no = e1.dept_no)) "
    "then delete from emp "
    "     where emp_no = (select mgr_no from dept where dept_no = 5)";

class Example33 : public PaperExampleTest {};
INSTANTIATE_PAPER_EXAMPLE(Example33);

TEST_P(Example33, OutlierSalaryDeletesDept5Manager) {
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  // Department 5 managed by Sue (emp_no 60).
  ASSERT_OK(engine.Execute("insert into dept values (5, 60)"));
  ASSERT_OK(engine.Execute(kRule33));

  // Insert an employee into dept 3 whose salary dwarfs the dept average:
  // dept 3 currently has Sam(40000), Sue(42000); a 500000 hire makes the
  // condition true.
  ASSERT_OK(
      engine.Execute("insert into emp values ('Rich', 70, 500000, 3)"));

  // Sue (manager of dept 5) was deleted.
  auto names = EmpNames(&engine);
  EXPECT_EQ(names, (std::vector<std::string>{"Bill", "Jane", "Jim", "Mary",
                                             "Rich", "Sam"}));
}

TEST_P(Example33, BalancedInsertDoesNotFire) {
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  ASSERT_OK(engine.Execute("insert into dept values (5, 60)"));
  ASSERT_OK(engine.Execute(kRule33));

  ASSERT_OK_AND_ASSIGN(
      ExecutionTrace trace,
      engine.ExecuteBlock("insert into emp values ('Norm', 70, 41000, 3)"));
  ASSERT_EQ(trace.considered.size(), 1u);
  EXPECT_FALSE(trace.considered[0].condition_held);
  EXPECT_EQ(EmpNames(&engine).size(), 7u);
}

// --- Example 4.1: recursive manager cascade -----------------------------
// "Whenever managers are deleted, all employees in the departments
// managed by the deleted employees are also deleted, along with the
// departments themselves."
constexpr const char* kRule41 =
    "create rule mgrcascade41 "
    "when deleted from emp "
    "then delete from emp "
    "     where dept_no in (select dept_no from dept "
    "                       where mgr_no in (select emp_no from deleted emp)); "
    "     delete from dept "
    "     where mgr_no in (select emp_no from deleted emp)";

class Example41 : public PaperExampleTest {};
INSTANTIATE_PAPER_EXAMPLE(Example41);

TEST_P(Example41, RecursiveCascadeDeletesWholeSubtree) {
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  ASSERT_OK(engine.Execute(kRule41));

  // Delete Jane: her dept-1 reports (Mary, Jim) go, then their reports
  // (Bill; Sam, Sue) go, and depts 1, 2, 3 are removed.
  ASSERT_OK(engine.Execute("delete from emp where name = 'Jane'"));

  EXPECT_TRUE(EmpNames(&engine).empty());
  // Dept 0 (managed by nobody) survives; 1, 2, 3 are gone.
  EXPECT_EQ(QueryScalar(&engine, "select count(*) from dept"), Value::Int(1));
  EXPECT_EQ(QueryScalar(&engine, "select dept_no from dept"), Value::Int(0));
}

TEST_P(Example41, MidLevelDeleteOnlyRemovesSubtree) {
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  ASSERT_OK(engine.Execute(kRule41));

  // Delete Jim: Sam and Sue (dept 3) go; dept 3 goes; others survive.
  ASSERT_OK(engine.Execute("delete from emp where name = 'Jim'"));

  EXPECT_EQ(EmpNames(&engine),
            (std::vector<std::string>{"Bill", "Jane", "Mary"}));
  EXPECT_EQ(QueryScalar(&engine, "select count(*) from dept"), Value::Int(3));
}

TEST_P(Example41, TerminatesWhenNoFurtherManagers) {
  // Deleting a leaf employee triggers the rule whose action deletes
  // nothing; the rule is NOT re-triggered (its own transition is empty).
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  ASSERT_OK(engine.Execute(kRule41));

  ASSERT_OK_AND_ASSIGN(ExecutionTrace trace,
                       engine.ExecuteBlock("delete from emp where name = 'Bill'"));
  ASSERT_EQ(trace.firings.size(), 1u);
  EXPECT_EQ(EmpNames(&engine),
            (std::vector<std::string>{"Jane", "Jim", "Mary", "Sam", "Sue"}));
}

// --- Example 4.2: controlled salary updates ------------------------------
// "Whenever salaries are updated, check the average of the updated
// salaries. If it exceeds 50K, then delete all employees whose salary
// was updated and now exceeds 80K."
constexpr const char* kRule42 =
    "create rule salaryguard42 "
    "when updated emp.salary "
    "if (select avg(salary) from new updated emp.salary) > 50K "
    "then delete from emp "
    "     where emp_no in (select emp_no from new updated emp.salary) "
    "       and salary > 80K";

class Example42 : public PaperExampleTest {};
INSTANTIATE_PAPER_EXAMPLE(Example42);

TEST_P(Example42, PaperScenarioBillAndMary) {
  // Paper: Bill 25K -> 30K, Mary 70K -> 85K. avg(30K, 85K) = 57.5K > 50K,
  // so employees whose salary was updated and now exceeds 80K (Mary) are
  // deleted.
  Engine engine(Options());
  CreatePaperSchema(&engine);
  ASSERT_OK(engine.Execute("insert into dept values (1, 10)"));
  ASSERT_OK(engine.Execute(
      "insert into emp values ('Bill', 40, 25000, 1); "
      "insert into emp values ('Mary', 20, 70000, 1)"));
  ASSERT_OK(engine.Execute(kRule42));

  ASSERT_OK(engine.Execute(
      "update emp set salary = 30000 where name = 'Bill'; "
      "update emp set salary = 85000 where name = 'Mary'"));

  EXPECT_EQ(EmpNames(&engine), (std::vector<std::string>{"Bill"}));
  EXPECT_EQ(QueryScalar(&engine, "select salary from emp where name = 'Bill'"),
            Value::Double(30000));
}

TEST_P(Example42, LowAverageKeepsEveryone) {
  Engine engine(Options());
  CreatePaperSchema(&engine);
  ASSERT_OK(engine.Execute("insert into dept values (1, 10)"));
  ASSERT_OK(engine.Execute(
      "insert into emp values ('Bill', 40, 25000, 1); "
      "insert into emp values ('Mary', 20, 70000, 1)"));
  ASSERT_OK(engine.Execute(kRule42));

  // avg(26K, 30K) < 50K: no deletion even though nothing exceeds 80K
  // anyway.
  ASSERT_OK(engine.Execute(
      "update emp set salary = 26000 where name = 'Bill'; "
      "update emp set salary = 30000 where name = 'Mary'"));
  EXPECT_EQ(EmpNames(&engine).size(), 2u);
}

// --- Example 4.3: interleaving of R1 (4.1) and R2 (4.2) ------------------
// The paper walks through the exact interleaved execution; this test
// checks both the final state and the firing order.
class Example43 : public PaperExampleTest {};
INSTANTIATE_PAPER_EXAMPLE(Example43);

TEST_P(Example43, InterleavedExecutionMatchesPaperTrace) {
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  ASSERT_OK(engine.Execute(kRule41));
  ASSERT_OK(engine.Execute(kRule42));
  // "Let the rules be ordered so that rule R2 has priority over rule R1."
  ASSERT_OK(
      engine.Execute("create rule priority salaryguard42 before mgrcascade41"));

  // One block: delete Jane; update salaries so the average updated salary
  // exceeds 50K and Mary's updated salary exceeds 80K.
  ASSERT_OK_AND_ASSIGN(
      ExecutionTrace trace,
      engine.ExecuteBlock(
          "delete from emp where name = 'Jane'; "
          "update emp set salary = 85000 where name = 'Mary'; "
          "update emp set salary = 60000 where name = 'Jim'"));

  // Paper trace: R2 fires first (deletes Mary); R1 fires on {Jane, Mary}
  // deleting Bill and Jim (and depts 1, 2); R2 is triggered again but its
  // *new* transition contains no salary updates... (R2's own transition
  // was the Mary deletion; R1's transitions are deletes) — actually R2 is
  // only re-triggered by transitions containing emp.salary updates, so
  // after its first firing it never re-fires; R1 keeps cascading:
  // {Bill, Jim} -> deletes Sam, Sue (dept 3); {Sam, Sue} -> nothing.
  std::vector<std::string> order;
  for (const RuleFiring& f : trace.firings) order.push_back(f.rule);
  EXPECT_EQ(order, (std::vector<std::string>{"salaryguard42", "mgrcascade41",
                                             "mgrcascade41",
                                             "mgrcascade41"}));

  // Every employee ends up deleted; only dept 0 remains.
  EXPECT_TRUE(EmpNames(&engine).empty());
  EXPECT_EQ(QueryScalar(&engine, "select count(*) from dept"), Value::Int(1));
}

TEST_P(Example43, WithoutPriorityR1FirstAlsoConverges) {
  // §4.4: selection strategy affects intermediate traces; with creation-
  // order tie-break and no priority, R1 (defined first) goes first. The
  // final database state here happens to coincide because R1's cascade
  // deletes Mary before R2 ever fires — Mary's salary update is then
  // irrelevant. This test documents that alternative execution.
  Engine engine(Options());
  CreatePaperSchema(&engine);
  LoadOrgChart(&engine);
  ASSERT_OK(engine.Execute(kRule41));
  ASSERT_OK(engine.Execute(kRule42));

  ASSERT_OK_AND_ASSIGN(
      ExecutionTrace trace,
      engine.ExecuteBlock(
          "delete from emp where name = 'Jane'; "
          "update emp set salary = 85000 where name = 'Mary'; "
          "update emp set salary = 60000 where name = 'Jim'"));

  EXPECT_EQ(trace.firings[0].rule, "mgrcascade41");
  EXPECT_TRUE(EmpNames(&engine).empty());
}

}  // namespace
}  // namespace sopr
