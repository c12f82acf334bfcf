// B1 — the paper's core claim: set-oriented rules amortize rule overhead
// over the whole set of changes, while instance-oriented rules pay per
// tuple. Sweeps the batch size N for an audit rule (one insert per
// triggering insert) under both engines; the gap should widen with N.
//
// Run: ./build/bench/bench_set_vs_instance

#include <benchmark/benchmark.h>

#include "baseline/instance_engine.h"
#include "bench_util.h"
#include "engine/engine.h"
#include "sql/parser.h"

namespace sopr {
namespace {

constexpr const char* kAuditRule =
    "create rule audit_ins when inserted into orders "
    "then insert into audit (select id, 1 from inserted orders)";

void BM_SetOrientedAudit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  // Pre-parse the batch so both engines execute identical statement
  // objects (neither side is charged for parsing).
  auto batch_stmts = Parser::ParseScript(OrdersBatch(n));
  BenchCheck(batch_stmts.status(), "parse batch");
  std::vector<const Stmt*> ops;
  for (const StmtPtr& s : batch_stmts.value()) ops.push_back(s.get());

  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    CreateOrdersSchema(&engine);
    BenchCheck(engine.Execute(kAuditRule), "rule");
    state.ResumeTiming();

    auto trace = engine.rules().ExecuteBlock(ops);

    state.PauseTiming();
    BenchCheck(trace.status(), "block");
    auto audit = engine.TableSize("audit");
    if (!audit.ok() || audit.value() != static_cast<size_t>(n)) {
      state.SkipWithError("audit table wrong size");
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
SOPR_BENCHMARK(BM_SetOrientedAudit)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

void BM_InstanceOrientedAudit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::string batch = OrdersBatch(n);
  auto rule_stmt = Parser::ParseStatement(kAuditRule);
  BenchCheck(rule_stmt.status(), "parse rule");
  auto batch_stmts = Parser::ParseScript(batch);
  BenchCheck(batch_stmts.status(), "parse batch");

  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    BenchCheck(db.CreateTable(TableSchema("orders", {{"id", ValueType::kInt},
                                                     {"qty", ValueType::kInt}})),
               "orders");
    BenchCheck(db.CreateTable(TableSchema("audit", {{"id", ValueType::kInt},
                                                    {"tag", ValueType::kInt}})),
               "audit");
    InstanceEngine engine(&db);
    auto def_stmt = Parser::ParseStatement(kAuditRule);
    std::shared_ptr<const CreateRuleStmt> def(
        static_cast<const CreateRuleStmt*>(def_stmt.value().release()));
    BenchCheck(engine.DefineRule(std::move(def)), "rule");
    std::vector<const Stmt*> ops;
    for (const StmtPtr& s : batch_stmts.value()) ops.push_back(s.get());
    state.ResumeTiming();

    auto stats = engine.ExecuteBlock(ops);

    state.PauseTiming();
    if (!stats.ok() ||
        stats.value().actions_executed != static_cast<size_t>(n)) {
      state.SkipWithError("instance engine did not run n actions");
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
SOPR_BENCHMARK(BM_InstanceOrientedAudit)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

// Conditioned variant: the rule carries an `if` predicate. The
// set-oriented engine evaluates it once per transition; the instance
// engine evaluates it once per affected tuple — the per-instance overhead
// §1 of the paper argues against.
constexpr const char* kGuardedRule =
    "create rule guarded when inserted into orders "
    "if exists (select * from inserted orders where qty >= 0) "
    "then insert into audit (select id, 1 from inserted orders)";

void BM_SetOrientedGuarded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto batch_stmts = Parser::ParseScript(OrdersBatch(n));
  BenchCheck(batch_stmts.status(), "parse batch");
  std::vector<const Stmt*> ops;
  for (const StmtPtr& s : batch_stmts.value()) ops.push_back(s.get());

  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    CreateOrdersSchema(&engine);
    BenchCheck(engine.Execute(kGuardedRule), "rule");
    state.ResumeTiming();

    auto trace = engine.rules().ExecuteBlock(ops);

    state.PauseTiming();
    BenchCheck(trace.status(), "block");
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
SOPR_BENCHMARK(BM_SetOrientedGuarded)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_InstanceOrientedGuarded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto batch_stmts = Parser::ParseScript(OrdersBatch(n));
  BenchCheck(batch_stmts.status(), "parse batch");

  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    BenchCheck(db.CreateTable(TableSchema("orders", {{"id", ValueType::kInt},
                                                     {"qty", ValueType::kInt}})),
               "orders");
    BenchCheck(db.CreateTable(TableSchema("audit", {{"id", ValueType::kInt},
                                                    {"tag", ValueType::kInt}})),
               "audit");
    InstanceEngine engine(&db);
    auto def_stmt = Parser::ParseStatement(kGuardedRule);
    std::shared_ptr<const CreateRuleStmt> def(
        static_cast<const CreateRuleStmt*>(def_stmt.value().release()));
    BenchCheck(engine.DefineRule(std::move(def)), "rule");
    std::vector<const Stmt*> ops;
    for (const StmtPtr& s : batch_stmts.value()) ops.push_back(s.get());
    state.ResumeTiming();

    auto stats = engine.ExecuteBlock(ops);

    state.PauseTiming();
    if (!stats.ok()) state.SkipWithError("instance run failed");
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
SOPR_BENCHMARK(BM_InstanceOrientedGuarded)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

// Cascade variant: delete of a parent set cascades to a child table.
// Set-oriented: one rule firing per level; instance-oriented: one firing
// per deleted tuple.
void BM_SetOrientedCascade(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    BenchCheck(engine.Execute("create table parent (id int)"), "parent");
    BenchCheck(engine.Execute("create table child (id int, pid int)"),
               "child");
    BenchCheck(engine.Execute(
                   "create rule cascade when deleted from parent "
                   "then delete from child where pid in "
                   "(select id from deleted parent)"),
               "rule");
    std::string parents = "insert into parent values ";
    std::string children = "insert into child values ";
    for (int i = 0; i < n; ++i) {
      if (i > 0) {
        parents += ", ";
        children += ", ";
      }
      parents += "(" + std::to_string(i) + ")";
      children += "(" + std::to_string(i) + ", " + std::to_string(i) + ")";
    }
    BenchCheck(engine.Execute(parents), "parents");
    BenchCheck(engine.Execute(children), "children");
    state.ResumeTiming();

    BenchCheck(engine.Execute("delete from parent"), "delete");

    state.PauseTiming();
    if (engine.TableSize("child").ValueOr(99) != 0) {
      state.SkipWithError("cascade incomplete");
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
SOPR_BENCHMARK(BM_SetOrientedCascade)->Arg(8)->Arg(64)->Arg(256);

void BM_InstanceOrientedCascade(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    BenchCheck(
        db.CreateTable(TableSchema("parent", {{"id", ValueType::kInt}})),
        "parent");
    BenchCheck(db.CreateTable(TableSchema(
                   "child", {{"id", ValueType::kInt}, {"pid", ValueType::kInt}})),
               "child");
    for (int i = 0; i < n; ++i) {
      BenchCheck(db.InsertRow("parent", Row{Value::Int(i)}).status(), "p");
      BenchCheck(
          db.InsertRow("child", Row{Value::Int(i), Value::Int(i)}).status(),
          "c");
    }
    db.CommitAll();
    InstanceEngine engine(&db);
    auto def_stmt = Parser::ParseStatement(
        "create rule cascade when deleted from parent "
        "then delete from child where pid in (select id from deleted parent)");
    std::shared_ptr<const CreateRuleStmt> def(
        static_cast<const CreateRuleStmt*>(def_stmt.value().release()));
    BenchCheck(engine.DefineRule(std::move(def)), "rule");
    auto del = Parser::ParseStatement("delete from parent");
    std::vector<const Stmt*> ops{del.value().get()};
    state.ResumeTiming();

    auto stats = engine.ExecuteBlock(ops);

    state.PauseTiming();
    if (!stats.ok()) state.SkipWithError("instance cascade failed");
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
SOPR_BENCHMARK(BM_InstanceOrientedCascade)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
}  // namespace sopr

SOPR_BENCHMARK_MAIN()
