// B10 — bulk loading under active rules: CSV import batch-size sweep.
// Each batch is one transition, so rule-processing cost amortizes over
// the batch — large batches approach raw insert speed even with rules
// installed.
//
// Run: ./build/bench/bench_bulk_load

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/engine.h"
#include "io/csv.h"

namespace sopr {
namespace {

std::string MakeCsv(int rows) {
  std::string csv = "id,qty\n";
  for (int i = 0; i < rows; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i % 100) + "\n";
  }
  return csv;
}

void RunImport(benchmark::State& state, bool with_rules, size_t batch) {
  const int rows = 2048;
  const std::string csv = MakeCsv(rows);
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    CreateOrdersSchema(&engine);
    if (with_rules) {
      BenchCheck(engine.Execute(
                     "create rule audit when inserted into orders "
                     "then insert into audit "
                     "(select id, 1 from inserted orders where qty > 90)"),
                 "rule");
      BenchCheck(engine.Execute(
                     "create rule guard when inserted into orders "
                     "if exists (select * from inserted orders where qty < 0) "
                     "then rollback"),
                 "guard");
    }
    CsvOptions options;
    options.batch_rows = batch;
    state.ResumeTiming();

    auto imported = ImportCsv(&engine, "orders", csv, options);

    state.PauseTiming();
    if (!imported.ok() || imported.value() != static_cast<size_t>(rows)) {
      state.SkipWithError("import failed");
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_ImportNoRules(benchmark::State& state) {
  RunImport(state, false, static_cast<size_t>(state.range(0)));
}
void BM_ImportWithRules(benchmark::State& state) {
  RunImport(state, true, static_cast<size_t>(state.range(0)));
}
SOPR_BENCHMARK(BM_ImportNoRules)->Arg(16)->Arg(256)->Arg(2048);
SOPR_BENCHMARK(BM_ImportWithRules)->Arg(16)->Arg(256)->Arg(2048);

void BM_ExportCsv(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Engine engine;
  CreateOrdersSchema(&engine);
  BenchCheck(engine.Execute(OrdersBatch(rows)), "rows");
  for (auto _ : state) {
    auto out = ExportCsv(&engine, "select * from orders");
    if (!out.ok()) state.SkipWithError("export failed");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
SOPR_BENCHMARK(BM_ExportCsv)->Arg(256)->Arg(2048);

}  // namespace
}  // namespace sopr

SOPR_BENCHMARK_MAIN()
