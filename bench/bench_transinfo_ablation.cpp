// B6 — the ablation the paper itself flags (§4.3: "associating transition
// information on a rule-by-rule basis will introduce considerable
// redundancy — there is substantial need and room for optimization"):
// per-rule eager maintenance (Figure 1 verbatim) vs a shared transition
// log with lazy per-rule composition. Sweeps the number of *defined but
// untriggered* rules: eager mode pays O(rules) per transition, lazy mode
// pays only for rules actually considered.
//
// Run: ./build/bench/bench_transinfo_ablation

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/engine.h"

namespace sopr {
namespace {

/// Creates `idle_rules` rules that watch an untouched table, plus one
/// cascade rule that does all the work, then deletes the chain root.
void RunWorkload(MaintenanceMode mode, int idle_rules, int depth) {
  RuleEngineOptions options;
  options.maintenance = mode;
  options.max_rule_firings = 100000;
  Engine engine(options);
  BenchCheck(engine.Execute(
                 "create table emp (name string, emp_no int, "
                 "salary double, dept_no int)"),
             "emp");
  BenchCheck(engine.Execute("create table dept (dept_no int, mgr_no int)"),
             "dept");
  BenchCheck(engine.Execute("create table idle (x int)"), "idle");

  for (int i = 0; i < idle_rules; ++i) {
    BenchCheck(engine.Execute("create rule idle" + std::to_string(i) +
                              " when inserted into idle "
                              "then delete from idle where x = " +
                              std::to_string(i)),
               "idle rule");
  }

  std::string emps = "insert into emp values ";
  std::string depts = "insert into dept values ";
  for (int i = 0; i <= depth; ++i) {
    if (i > 0) {
      emps += ", ";
      depts += ", ";
    }
    emps += "('e" + std::to_string(i) + "', " + std::to_string(i) + ", 100, " +
            std::to_string(i) + ")";
    depts += "(" + std::to_string(i + 1) + ", " + std::to_string(i) + ")";
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

  BenchCheck(engine.Execute("delete from emp where emp_no = 0"), "delete");
  if (engine.TableSize("emp").ValueOr(99) != 0) {
    std::abort();
  }
}

void BM_PerRuleMaintenance(benchmark::State& state) {
  const int idle_rules = static_cast<int>(state.range(0));
  const int depth = 32;
  for (auto _ : state) {
    RunWorkload(MaintenanceMode::kPerRule, idle_rules, depth);
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
SOPR_BENCHMARK(BM_PerRuleMaintenance)->Arg(0)->Arg(8)->Arg(32)->Arg(128);

void BM_SharedLogMaintenance(benchmark::State& state) {
  const int idle_rules = static_cast<int>(state.range(0));
  const int depth = 32;
  for (auto _ : state) {
    RunWorkload(MaintenanceMode::kSharedLog, idle_rules, depth);
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
SOPR_BENCHMARK(BM_SharedLogMaintenance)->Arg(0)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
}  // namespace sopr

SOPR_BENCHMARK_MAIN()
