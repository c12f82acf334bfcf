// B17/B18 — batch set-oriented rule evaluation vs the row-at-a-time
// path (docs/EXECUTION.md). Two engines differing ONLY in
// RuleEngineOptions::batch_execution run the same rule-dense workloads
// single-threaded: `row` (the scalar oracle) and `batch` (hot predicate
// and join-key columns decomposed into contiguous typed arrays evaluated
// by branch-light kernels, selection vectors, build/probe hash join):
//
//   rule_dense — the headline. Each transaction updates a 25-row slab
//                of t, which fires (a) a join rule whose action joins
//                the transition table against a 30k-row base table —
//                the build side dominates the transaction, so this
//                measures the build/probe hash join (u64 key digests,
//                bucket vector) against the row path's ordered-map join
//                (a heap-allocated Row key copied and compared ~log n
//                times per build row) — and (b) an aggregate-condition
//                rule over the transition table; every few transactions
//                a delete fires a cascade rule. This is the paper's
//                set-oriented shape: few transactions, rule work over
//                whole transition sets.
//   filter     — a NULL-heavy residual predicate scanned over a 100k-row
//                table (no join): columnar kernels over selection
//                vectors vs the per-row expression tree walk.
//
// Both engines produce identical results (the differential suite proves
// it); this bench measures only the cost. Every measurement is one
// thread. The repetitions follow bench_util.h: one discarded warm-up
// repetition of both modes (the first engines a process builds run
// slower), then timed repetitions that each build a fresh engine per
// mode and workload, with the mode that goes first alternating, and
// time `iterations` transactions after one warm-up transaction. The
// JSON also records the exec-layer counters of the timed repetitions so
// a reader can verify the hash join actually engaged
// (hash_join_builds > 0) rather than silently falling back.
//
// Run: ./build/bench/bench_rule_vectorized [iterations] [repetitions]
// (defaults 12 and 5). Emits BENCH_rule_vectorized.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "engine/engine.h"
#include "exec/stats.h"

namespace sopr {
namespace {

constexpr int kTableRows = 2000;   // t: update target
constexpr int kSlabRows = 25;      // transition-set size per update
constexpr int kBaseRows = 30000;   // u: hash-join build side
constexpr int kMirrorRows = 100;   // v: cascade target
constexpr int kFilterRows = 100000;

void SetupRuleDense(Engine* engine) {
  BenchCheck(engine->Execute("create table t (a int, b int, s string)"),
             "create t");
  BenchCheck(engine->Execute("create table u (s string, c int)"), "create u");
  BenchCheck(engine->Execute("create table v (a int)"), "create v");
  BenchCheck(engine->Execute("create table log (c int)"), "create log");
  // String join key: the row path's ordered-map join copies the key
  // string into a heap-allocated Row per build row and compares it
  // ~log n times; the hash join digests it once.
  BenchCheck(engine->Execute(
                 "create rule jn when updated t.b "
                 "then insert into log (select u.c from new updated t.b x, u "
                 "where x.s = u.s)"),
             "rule jn");
  BenchCheck(engine->Execute(
                 "create rule agg when updated t.b "
                 "if (select count(*) from new updated t.b) > 10 "
                 "then insert into log values (-1)"),
             "rule agg");
  BenchCheck(engine->Execute(
                 "create rule cas when deleted from t "
                 "then delete from v where a in (select a from deleted t)"),
             "rule cas");

  std::string batch;
  for (int i = 0; i < kBaseRows; ++i) {
    batch += "insert into u values ('k" + std::to_string(i) + "', " +
             std::to_string(i * 3) + "); ";
    if (i % 500 == 499) {
      BenchCheck(engine->Execute(batch), "load u");
      batch.clear();
    }
  }
  for (int i = 0; i < kTableRows; ++i) {
    batch += "insert into t values (" + std::to_string(i) + ", 0, 'k" +
             std::to_string(i) + "'); ";
    if (i < kMirrorRows) {
      batch += "insert into v values (" + std::to_string(i) + "); ";
    }
    if (i % 250 == 249) {
      BenchCheck(engine->Execute(batch), "load t/v");
      batch.clear();
    }
  }
  if (!batch.empty()) BenchCheck(engine->Execute(batch), "load tail");
}

double RunRuleDense(Engine* engine, int iters) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    // Fires jn (25-row transition ⋈ 30k-row base build) and agg (count
    // over the transition set) in one transaction.
    BenchCheck(engine->Execute("update t set b = b + 1 where a < " +
                               std::to_string(kSlabRows)),
               "slab update");
    BenchCheck(engine->Execute("delete from log"), "clear log");
    if (i % 4 == 3) {
      // Cascade: delete a 10-row slice of t, rule cas mirrors it in v,
      // then restore both.
      BenchCheck(engine->Execute("delete from t where a >= " +
                                 std::to_string(kTableRows - 10)),
                 "cascade delete");
      std::string restore;
      for (int k = kTableRows - 10; k < kTableRows; ++k) {
        restore += "insert into t values (" + std::to_string(k) + ", 0, 'k" +
                   std::to_string(k) + "'); ";
      }
      BenchCheck(engine->Execute(restore), "restore slice");
    }
  }
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

void SetupFilter(Engine* engine) {
  BenchCheck(engine->Execute("create table big (a int, b int)"), "create big");
  std::string batch;
  for (int i = 0; i < kFilterRows; ++i) {
    batch += "insert into big values (" + std::to_string(i) + ", " +
             (i % 7 == 0 ? std::string("null")
                         : std::to_string((i * 37) % 10000)) +
             "); ";
    if (i % 500 == 499) {
      BenchCheck(engine->Execute(batch), "load big");
      batch.clear();
    }
  }
}

double RunFilter(Engine* engine, int iters) {
  // Arithmetic-dense NULL-heavy predicate: the conjuncts are
  // mostly-true, so the AND narrowing keeps the lanes full and every
  // engine pays the full per-row expression cost — the row path one
  // tree walk per row, the batch path a handful of contiguous int64
  // loops over the two decomposed columns.
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    auto r = engine->Query(
        "select count(*) from big "
        "where (b between 100 and 9000 or b is null) "
        "and a * 3 + b * 2 - a > 200 "
        "and b * 5 - a < 60000 "
        "and a * a + b * b >= 0 "
        "and (a - b) * 2 <> 1 "
        "and a * 7 - b * 3 + a * 2 - b > -100000 "
        "and (a + 1) * (b + 1) >= a * b "
        "and a * a - a * 2 + 1 >= 0 "
        "and b * b + b * 4 + 4 >= 0 "
        "and not (b = 5000)");
    BenchCheck(r.status(), "filter query");
  }
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

const char* const kModes[2] = {"row", "batch"};

/// Runs both workloads in mode `m` (0 row, 1 batch), each on a fresh
/// engine with one warm-up transaction outside the timed window.
void RunMode(int m, int iters, BenchReport* report) {
  RuleEngineOptions options;
  options.batch_execution = m == 1;
  const std::string mode = kModes[m];
  {
    Engine engine(options);
    SetupRuleDense(&engine);
    RunRuleDense(&engine, 1);
    const double secs = RunRuleDense(&engine, iters);
    report->Add("rule_dense." + mode + ".tx_per_sec", iters / secs);
    std::printf("rule_dense %-6s %6.3fs  (%.2f tx/s)\n", mode.c_str(), secs,
                iters / secs);
  }
  {
    Engine engine(options);
    SetupFilter(&engine);
    RunFilter(&engine, 1);
    const double secs = RunFilter(&engine, iters);
    report->Add("filter." + mode + ".tx_per_sec", iters / secs);
    std::printf("filter     %-6s %6.3fs  (%.2f q/s)\n", mode.c_str(), secs,
                iters / secs);
  }
}

}  // namespace
}  // namespace sopr

int main(int argc, char** argv) {
  const int iters = argc > 1 ? std::atoi(argv[1]) : 12;
  const int reps = argc > 2 ? std::atoi(argv[2]) : sopr::kRepetitions;
  if (iters <= 0 || reps <= 0) {
    std::cerr << "usage: bench_rule_vectorized [iterations] [repetitions]\n";
    return 2;
  }
  sopr::BenchReport report("rule_vectorized", /*threads=*/1, reps);
  report.Set("iters", iters);

  // The exec counters cover the timed repetitions only: the snapshot is
  // taken when the first of them starts.
  sopr::exec::ExecStatsSnapshot before;
  report.Run([&](int rep) {
    if (rep == 0) before = sopr::exec::SnapshotStats();
    sopr::Alternate(rep, 2,
                    [&](int m) { sopr::RunMode(m, iters, &report); });
  });
  const sopr::exec::ExecStatsSnapshot after = sopr::exec::SnapshotStats();

  // The headline is rule_dense: large transition sets joined against a
  // base table inside rule actions, the paper's set-oriented shape
  // (speedups are batch median over row median). The counters prove
  // each layer actually engaged during the batch runs — the hash join
  // built tables, the kernels ran, and nothing silently fell back to a
  // slower path it was supposed to replace.
  double speedup[2] = {0, 0};
  const char* const workloads[2] = {"rule_dense", "filter"};
  for (int w = 0; w < 2; ++w) {
    const std::string prefix = std::string(workloads[w]) + ".";
    const double row = report.Get(prefix + "row.tx_per_sec").median;
    const double batch = report.Get(prefix + "batch.tx_per_sec").median;
    speedup[w] = row > 0 ? batch / row : 0;
    report.Set(prefix + "speedup", speedup[w]);
  }
  report.Set("hash_join_builds",
             after.hash_join_builds - before.hash_join_builds);
  report.Set("hash_join_fallbacks",
             after.hash_join_fallbacks - before.hash_join_fallbacks);
  report.Set("columnar_chunks",
             after.columnar_chunks - before.columnar_chunks);
  report.Set("columns_built", after.columns_built - before.columns_built);
  report.Set("columns_rejected",
             after.columns_rejected - before.columns_rejected);
  report.Set("kernel_compare", after.kernel_compare - before.kernel_compare);
  report.Set("kernel_arith", after.kernel_arith - before.kernel_arith);
  report.Set("kernel_null_check",
             after.kernel_null_check - before.kernel_null_check);
  report.Set("kernel_membership",
             after.kernel_membership - before.kernel_membership);
  report.Set("kernel_logical", after.kernel_logical - before.kernel_logical);
  report.Set("pointer_fallback_preds",
             after.pointer_fallback_preds - before.pointer_fallback_preds);
  report.Write();
  std::cout << "median batch over row: rule_dense " << speedup[0]
            << "x, filter " << speedup[1] << "x\n";
  return 0;
}
