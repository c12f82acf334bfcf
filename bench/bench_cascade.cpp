// B3 — recursive cascade depth (Example 4.1 generalized): a management
// chain of depth d; deleting the root must fire the cascade rule d times.
// Measures how transaction cost grows with cascade depth.
//
// Run: ./build/bench/bench_cascade

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/engine.h"

namespace sopr {
namespace {

/// Builds a management chain: employee i manages department i+1 whose
/// sole member is employee i+1 (depth levels).
void BuildChain(Engine* engine, int depth) {
  BenchCheck(engine->Execute(
                 "create table emp (name string, emp_no int, "
                 "salary double, dept_no int)"),
             "emp");
  BenchCheck(engine->Execute("create table dept (dept_no int, mgr_no int)"),
             "dept");
  std::string emps = "insert into emp values ";
  std::string depts = "insert into dept values ";
  for (int i = 0; i <= depth; ++i) {
    if (i > 0) {
      emps += ", ";
      depts += ", ";
    }
    emps += "('e" + std::to_string(i) + "', " + std::to_string(i) + ", 100, " +
            std::to_string(i) + ")";
    // dept i+1 managed by emp i.
    depts += "(" + std::to_string(i + 1) + ", " + std::to_string(i) + ")";
  }
  BenchCheck(engine->Execute(emps), "emps");
  BenchCheck(engine->Execute(depts), "depts");
  BenchCheck(engine->Execute(
                 "create rule cascade when deleted from emp "
                 "then delete from emp where dept_no in "
                 "  (select dept_no from dept where mgr_no in "
                 "   (select emp_no from deleted emp)); "
                 "delete from dept where mgr_no in "
                 "  (select emp_no from deleted emp)"),
             "rule");
}

void BM_CascadeDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    RuleEngineOptions options;
    options.max_rule_firings = 100000;
    Engine engine(options);
    BuildChain(&engine, depth);
    state.ResumeTiming();

    BenchCheck(engine.Execute("delete from emp where emp_no = 0"), "delete");

    state.PauseTiming();
    if (engine.TableSize("emp").ValueOr(99) != 0) {
      state.SkipWithError("cascade did not empty the chain");
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
SOPR_BENCHMARK(BM_CascadeDepth)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(128);

/// Wide-fanout variant: one root manages F departments of one employee
/// each — a single rule firing handles all F children (set-orientation
/// collapses the fanout into one action execution).
void BM_CascadeFanout(benchmark::State& state) {
  const int fanout = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    BenchCheck(engine.Execute(
                   "create table emp (name string, emp_no int, "
                   "salary double, dept_no int)"),
               "emp");
    BenchCheck(
        engine.Execute("create table dept (dept_no int, mgr_no int)"),
        "dept");
    std::string emps = "insert into emp values ('root', 0, 100, 0)";
    std::string depts = "insert into dept values ";
    for (int i = 1; i <= fanout; ++i) {
      emps += ", ('e" + std::to_string(i) + "', " + std::to_string(i) +
              ", 100, " + std::to_string(i) + ")";
      if (i > 1) depts += ", ";
      depts += "(" + std::to_string(i) + ", 0)";  // all managed by root
    }
    BenchCheck(engine.Execute(emps), "emps");
    BenchCheck(engine.Execute(depts), "depts");
    BenchCheck(engine.Execute(
                   "create rule cascade when deleted from emp "
                   "then delete from emp where dept_no in "
                   "  (select dept_no from dept where mgr_no in "
                   "   (select emp_no from deleted emp)); "
                   "delete from dept where mgr_no in "
                   "  (select emp_no from deleted emp)"),
               "rule");
    state.ResumeTiming();

    BenchCheck(engine.Execute("delete from emp where emp_no = 0"), "delete");

    state.PauseTiming();
    if (engine.TableSize("emp").ValueOr(99) != 0) {
      state.SkipWithError("fanout cascade incomplete");
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * fanout);
}
SOPR_BENCHMARK(BM_CascadeFanout)->Arg(4)->Arg(32)->Arg(128);

}  // namespace
}  // namespace sopr

SOPR_BENCHMARK_MAIN()
