// B7 — constraint enforcement cost: compiled referential/domain rules on
// the insert path, as a function of table size, plus the rollback path.
//
// Run: ./build/bench/bench_constraints

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "constraints/compiler.h"
#include "engine/engine.h"

namespace sopr {
namespace {

void Setup(Engine* engine, int parents, bool with_constraints) {
  BenchCheck(engine->Execute(
                 "create table emp (name string, emp_no int, "
                 "salary double, dept_no int)"),
             "emp");
  BenchCheck(engine->Execute("create table dept (dept_no int, mgr_no int)"),
             "dept");
  std::string depts = "insert into dept values ";
  for (int i = 0; i < parents; ++i) {
    if (i > 0) depts += ", ";
    depts += "(" + std::to_string(i) + ", 0)";
  }
  BenchCheck(engine->Execute(depts), "depts");

  if (with_constraints) {
    ConstraintCompiler compiler(engine);
    ReferentialConstraint fk;
    fk.name = "fk";
    fk.child_table = "emp";
    fk.child_column = "dept_no";
    fk.parent_table = "dept";
    fk.parent_column = "dept_no";
    fk.on_parent_delete = ViolationAction::kCascade;
    BenchCheck(compiler.AddReferential(fk).status(), "fk");
    DomainConstraint dom;
    dom.name = "sal";
    dom.table = "emp";
    dom.column = "salary";
    dom.predicate_sql = "salary >= 0";
    BenchCheck(compiler.AddDomain(dom).status(), "dom");
  }
}

void BM_InsertNoConstraints(benchmark::State& state) {
  const int parents = static_cast<int>(state.range(0));
  Engine engine;
  Setup(&engine, parents, false);
  int i = 0;
  for (auto _ : state) {
    BenchCheck(engine.Execute("insert into emp values ('e', " +
                              std::to_string(i) + ", 100, " +
                              std::to_string(i % parents) + ")"),
               "insert");
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
SOPR_BENCHMARK(BM_InsertNoConstraints)->Arg(16)->Arg(256);

void BM_InsertWithCompiledConstraints(benchmark::State& state) {
  const int parents = static_cast<int>(state.range(0));
  Engine engine;
  Setup(&engine, parents, true);
  int i = 0;
  for (auto _ : state) {
    BenchCheck(engine.Execute("insert into emp values ('e', " +
                              std::to_string(i) + ", 100, " +
                              std::to_string(i % parents) + ")"),
               "insert");
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
SOPR_BENCHMARK(BM_InsertWithCompiledConstraints)->Arg(16)->Arg(256);

void BM_ViolationRollbackPath(benchmark::State& state) {
  // Cost of a rejected insert: rule evaluation + transaction undo.
  const int parents = static_cast<int>(state.range(0));
  Engine engine;
  Setup(&engine, parents, true);
  for (auto _ : state) {
    Status s = engine.Execute(
        "insert into emp values ('bad', 0, 100, 999999)");  // dangling FK
    if (s.code() != StatusCode::kRolledBack) {
      state.SkipWithError("expected rollback");
    }
  }
  state.SetItemsProcessed(state.iterations());
}
SOPR_BENCHMARK(BM_ViolationRollbackPath)->Arg(16)->Arg(256);

void BM_CascadeViaCompiledRule(benchmark::State& state) {
  // Delete one parent with `children` children under a compiled cascade.
  const int children = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    Setup(&engine, 2, true);
    std::string emps = "insert into emp values ";
    for (int i = 0; i < children; ++i) {
      if (i > 0) emps += ", ";
      emps += "('e', " + std::to_string(i) + ", 100, 1)";
    }
    BenchCheck(engine.Execute(emps), "children");
    state.ResumeTiming();

    BenchCheck(engine.Execute("delete from dept where dept_no = 1"),
               "cascade");

    state.PauseTiming();
    if (engine.TableSize("emp").ValueOr(99) != 0) {
      state.SkipWithError("cascade incomplete");
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * children);
}
SOPR_BENCHMARK(BM_CascadeViaCompiledRule)->Arg(16)->Arg(256);

}  // namespace
}  // namespace sopr

SOPR_BENCHMARK_MAIN()
