// B9 — the §1 claim that set-oriented rules keep relational optimization
// applicable "to the rules themselves": join queries and join-heavy rule
// actions with the optimizer (pushdown + hash equijoin) on vs off.
//
// Run: ./build/bench/bench_optimizer

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/engine.h"

namespace sopr {
namespace {

std::unique_ptr<Engine> MakeJoinEngine(bool optimize, int rows) {
  RuleEngineOptions options;
  options.optimize_queries = optimize;
  auto engine = std::make_unique<Engine>(options);
  BenchCheck(engine->Execute("create table fact (id int, dim_id int, v int)"),
             "fact");
  BenchCheck(engine->Execute("create table dim (dim_id int, label string)"),
             "dim");
  std::string facts = "insert into fact values ";
  std::string dims = "insert into dim values ";
  int dims_n = rows / 4 + 1;
  for (int i = 0; i < rows; ++i) {
    if (i > 0) facts += ", ";
    facts += "(" + std::to_string(i) + ", " + std::to_string(i % dims_n) +
             ", " + std::to_string(i % 100) + ")";
  }
  for (int i = 0; i < dims_n; ++i) {
    if (i > 0) dims += ", ";
    dims += "(" + std::to_string(i) + ", 'd" + std::to_string(i) + "')";
  }
  BenchCheck(engine->Execute(facts), "facts");
  BenchCheck(engine->Execute(dims), "dims");
  return engine;
}

void RunJoinQuery(benchmark::State& state, bool optimize) {
  const int rows = static_cast<int>(state.range(0));
  auto engine = MakeJoinEngine(optimize, rows);
  for (auto _ : state) {
    auto r = engine->Query(
        "select label, count(*) from fact, dim "
        "where fact.dim_id = dim.dim_id and v < 50 group by label");
    if (!r.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_JoinNaive(benchmark::State& state) { RunJoinQuery(state, false); }
void BM_JoinOptimized(benchmark::State& state) { RunJoinQuery(state, true); }
SOPR_BENCHMARK(BM_JoinNaive)->Arg(64)->Arg(256)->Arg(1024);
SOPR_BENCHMARK(BM_JoinOptimized)->Arg(64)->Arg(256)->Arg(1024);

void RunRuleWithJoinAction(benchmark::State& state, bool optimize) {
  // The rule's action joins the transition table against a base table —
  // optimization applies inside rule processing.
  const int rows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    RuleEngineOptions options;
    options.optimize_queries = optimize;
    Engine engine(options);
    BenchCheck(engine.Execute("create table incoming (dim_id int, qty int)"),
               "incoming");
    BenchCheck(engine.Execute("create table dim (dim_id int, label string)"),
               "dim");
    BenchCheck(engine.Execute("create table enriched (label string, qty int)"),
               "enriched");
    std::string dims = "insert into dim values ";
    for (int i = 0; i < rows; ++i) {
      if (i > 0) dims += ", ";
      dims += "(" + std::to_string(i) + ", 'd" + std::to_string(i) + "')";
    }
    BenchCheck(engine.Execute(dims), "dims");
    BenchCheck(engine.Execute(
                   "create rule enrich when inserted into incoming "
                   "then insert into enriched "
                   "  (select dim.label, i.qty from inserted incoming i, dim "
                   "   where i.dim_id = dim.dim_id)"),
               "rule");
    std::string batch = "insert into incoming values ";
    for (int i = 0; i < rows; ++i) {
      if (i > 0) batch += ", ";
      batch += "(" + std::to_string(i) + ", " + std::to_string(i) + ")";
    }
    state.ResumeTiming();

    BenchCheck(engine.Execute(batch), "batch");

    state.PauseTiming();
    if (engine.TableSize("enriched").ValueOr(0) != static_cast<size_t>(rows)) {
      state.SkipWithError("rule did not enrich all rows");
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_RuleJoinActionNaive(benchmark::State& state) {
  RunRuleWithJoinAction(state, false);
}
void BM_RuleJoinActionOptimized(benchmark::State& state) {
  RunRuleWithJoinAction(state, true);
}
SOPR_BENCHMARK(BM_RuleJoinActionNaive)->Arg(32)->Arg(128)->Arg(512);
SOPR_BENCHMARK(BM_RuleJoinActionOptimized)->Arg(32)->Arg(128)->Arg(512);

void RunPushdown(benchmark::State& state, bool optimize) {
  // Selective single-table predicate over a wide cross product: pushdown
  // shrinks the left side before the (unavoidable) cross join.
  const int rows = static_cast<int>(state.range(0));
  auto engine = MakeJoinEngine(optimize, rows);
  for (auto _ : state) {
    auto r = engine->Query(
        "select count(*) from fact, dim where v = 7");
    if (!r.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_PushdownNaive(benchmark::State& state) { RunPushdown(state, false); }
void BM_PushdownOptimized(benchmark::State& state) {
  RunPushdown(state, true);
}
SOPR_BENCHMARK(BM_PushdownNaive)->Arg(64)->Arg(256);
SOPR_BENCHMARK(BM_PushdownOptimized)->Arg(64)->Arg(256);

void RunPointSelect(benchmark::State& state, bool indexed) {
  // B9c: equality index vs linear scan for point predicates.
  const int rows = static_cast<int>(state.range(0));
  Engine engine;
  BenchCheck(engine.Execute("create table t (k int, v int)"), "t");
  if (indexed) {
    BenchCheck(engine.Execute("create index on t (k)"), "index");
  }
  std::string batch = "insert into t values ";
  for (int i = 0; i < rows; ++i) {
    if (i > 0) batch += ", ";
    batch += "(" + std::to_string(i) + ", " + std::to_string(i) + ")";
  }
  BenchCheck(engine.Execute(batch), "rows");
  int key = 0;
  for (auto _ : state) {
    auto r = engine.Query("select v from t where k = " +
                          std::to_string(key++ % rows));
    if (!r.ok() || r.value().rows.size() != 1) {
      state.SkipWithError("point select failed");
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_PointSelectScan(benchmark::State& state) {
  RunPointSelect(state, false);
}
void BM_PointSelectIndexed(benchmark::State& state) {
  RunPointSelect(state, true);
}
SOPR_BENCHMARK(BM_PointSelectScan)->Arg(100)->Arg(1000)->Arg(10000);
SOPR_BENCHMARK(BM_PointSelectIndexed)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace sopr

SOPR_BENCHMARK_MAIN()
