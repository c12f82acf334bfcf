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
// thread; "cpus" records the machine's hardware thread count so a reader
// knows what else could have been running. One untimed repetition of
// both modes runs first and is discarded (the first engines a process
// builds run slower). Each timed repetition then builds a fresh engine
// per mode and workload, with the mode that goes first alternating from
// one repetition to the next so neither always runs first, and times
// `iterations` transactions after one warm-up; the JSON reports every
// repetition plus median/min/max per mode and workload. It also records
// the exec-layer counters of the timed repetitions so the trend tracker
// can verify the hash join actually engaged (hash_join_builds > 0)
// rather than silently falling back.
//
// Run: ./build/bench/bench_rule_vectorized [iterations] [repetitions]
// (defaults 12 and 5). Emits BENCH_rule_vectorized.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "exec/stats.h"

namespace sopr {
namespace {

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::cerr << what << ": " << status << "\n";
    std::exit(1);
  }
}

constexpr int kTableRows = 2000;   // t: update target
constexpr int kSlabRows = 25;      // transition-set size per update
constexpr int kBaseRows = 30000;   // u: hash-join build side
constexpr int kMirrorRows = 100;   // v: cascade target
constexpr int kFilterRows = 100000;

void SetupRuleDense(Engine* engine) {
  Check(engine->Execute("create table t (a int, b int, s string)"),
        "create t");
  Check(engine->Execute("create table u (s string, c int)"), "create u");
  Check(engine->Execute("create table v (a int)"), "create v");
  Check(engine->Execute("create table log (c int)"), "create log");
  // String join key: the row path's ordered-map join copies the key
  // string into a heap-allocated Row per build row and compares it
  // ~log n times; the hash join digests it once.
  Check(engine->Execute(
            "create rule jn when updated t.b "
            "then insert into log (select u.c from new updated t.b x, u "
            "where x.s = u.s)"),
        "rule jn");
  Check(engine->Execute(
            "create rule agg when updated t.b "
            "if (select count(*) from new updated t.b) > 10 "
            "then insert into log values (-1)"),
        "rule agg");
  Check(engine->Execute(
            "create rule cas when deleted from t "
            "then delete from v where a in (select a from deleted t)"),
        "rule cas");

  std::string batch;
  for (int i = 0; i < kBaseRows; ++i) {
    batch += "insert into u values ('k" + std::to_string(i) + "', " +
             std::to_string(i * 3) + "); ";
    if (i % 500 == 499) {
      Check(engine->Execute(batch), "load u");
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
      Check(engine->Execute(batch), "load t/v");
      batch.clear();
    }
  }
  if (!batch.empty()) Check(engine->Execute(batch), "load tail");
}

double RunRuleDense(Engine* engine, int iters) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    // Fires jn (25-row transition ⋈ 30k-row base build) and agg (count
    // over the transition set) in one transaction.
    Check(engine->Execute("update t set b = b + 1 where a < " +
                          std::to_string(kSlabRows)),
          "slab update");
    Check(engine->Execute("delete from log"), "clear log");
    if (i % 4 == 3) {
      // Cascade: delete a 10-row slice of t, rule cas mirrors it in v,
      // then restore both.
      Check(engine->Execute("delete from t where a >= " +
                            std::to_string(kTableRows - 10)),
            "cascade delete");
      std::string restore;
      for (int k = kTableRows - 10; k < kTableRows; ++k) {
        restore += "insert into t values (" + std::to_string(k) + ", 0, 'k" +
                   std::to_string(k) + "'); ";
      }
      Check(engine->Execute(restore), "restore slice");
    }
  }
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

void SetupFilter(Engine* engine) {
  Check(engine->Execute("create table big (a int, b int)"), "create big");
  std::string batch;
  for (int i = 0; i < kFilterRows; ++i) {
    batch += "insert into big values (" + std::to_string(i) + ", " +
             (i % 7 == 0 ? std::string("null")
                         : std::to_string((i * 37) % 10000)) +
             "); ";
    if (i % 500 == 499) {
      Check(engine->Execute(batch), "load big");
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
    Check(r.status(), "filter query");
  }
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

struct RunResult {
  std::string mode;
  std::string workload;
  int rep = 0;
  double seconds = 0;
  double tx_per_sec = 0;
};

struct Summary {
  double median = 0;
  double min = 0;
  double max = 0;
};

/// Median/min/max of tx_per_sec over the runs of one mode and workload.
Summary Summarize(const std::vector<RunResult>& runs, const std::string& mode,
                  const std::string& workload) {
  std::vector<double> v;
  for (const RunResult& r : runs) {
    if (r.mode == mode && r.workload == workload) v.push_back(r.tx_per_sec);
  }
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const double median =
      n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  return {median, v.front(), v.back()};
}

const char* const kModes[2] = {"row", "batch"};
const char* const kWorkloads[2] = {"rule_dense", "filter"};

/// Runs both workloads in mode `m` (0 row, 1 batch), each on a fresh
/// engine with one warm-up transaction outside the timed window, and
/// records the timings as repetition `rep`; the warm-up repetition
/// (`results` null) is run and thrown away.
void RunMode(int m, int rep, int iters, std::vector<RunResult>* results) {
  RuleEngineOptions options;
  options.batch_execution = m == 1;
  const char* mode = kModes[m];
  {
    Engine engine(options);
    SetupRuleDense(&engine);
    RunRuleDense(&engine, 1);
    double secs = RunRuleDense(&engine, iters);
    if (results != nullptr) {
      results->push_back({mode, "rule_dense", rep, secs, iters / secs});
      std::printf("rep %d rule_dense %-6s %6.3fs  (%.2f tx/s)\n", rep, mode,
                  secs, iters / secs);
    }
  }
  {
    Engine engine(options);
    SetupFilter(&engine);
    RunFilter(&engine, 1);
    double secs = RunFilter(&engine, iters);
    if (results != nullptr) {
      results->push_back({mode, "filter", rep, secs, iters / secs});
      std::printf("rep %d filter     %-6s %6.3fs  (%.2f q/s)\n", rep, mode,
                  secs, iters / secs);
    }
  }
}

}  // namespace
}  // namespace sopr

#ifndef SOPR_BUILD_TYPE
#define SOPR_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  const int iters = argc > 1 ? std::atoi(argv[1]) : 12;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 5;
  if (iters <= 0 || reps <= 0) {
    std::cerr << "usage: bench_rule_vectorized [iterations] [repetitions]\n";
    return 2;
  }
  using sopr::kModes;
  using sopr::kWorkloads;
  std::vector<sopr::RunResult> results;

  // The first engines a process builds measure slower than later ones on
  // the same code, so one untimed repetition of both modes runs first,
  // and the mode that goes first alternates from one repetition to the
  // next.
  for (int m = 0; m < 2; ++m) sopr::RunMode(m, -1, iters, nullptr);

  const sopr::exec::ExecStatsSnapshot before =
      sopr::exec::SnapshotStats();

  for (int rep = 0; rep < reps; ++rep) {
    for (int k = 0; k < 2; ++k) {
      sopr::RunMode(rep % 2 == 0 ? k : 1 - k, rep, iters, &results);
    }
  }

  const sopr::exec::ExecStatsSnapshot after =
      sopr::exec::SnapshotStats();

  std::ofstream json("BENCH_rule_vectorized.json");
  json << "{\n  \"bench\": \"rule_vectorized\",\n  \"cpus\": "
       << std::thread::hardware_concurrency() << ",\n  \"threads\": 1"
       << ",\n  \"build_type\": \"" << SOPR_BUILD_TYPE << "\""
       << ",\n  \"iters\": " << iters << ",\n  \"repetitions\": " << reps
       << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const sopr::RunResult& r = results[i];
    json << "    {\"mode\": \"" << r.mode << "\", \"workload\": \""
         << r.workload << "\", \"rep\": " << r.rep
         << ", \"seconds\": " << r.seconds
         << ", \"tx_per_sec\": " << r.tx_per_sec << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"summary\": [\n";
  double speedup[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    sopr::Summary s[2];
    for (int m = 0; m < 2; ++m) {
      s[m] = sopr::Summarize(results, kModes[m], kWorkloads[w]);
      json << "    {\"mode\": \"" << kModes[m] << "\", \"workload\": \""
           << kWorkloads[w] << "\", \"median_tx_per_sec\": " << s[m].median
           << ", \"min_tx_per_sec\": " << s[m].min
           << ", \"max_tx_per_sec\": " << s[m].max << "}"
           << (w == 1 && m == 1 ? "" : ",") << "\n";
    }
    speedup[w] = s[0].median > 0 ? s[1].median / s[0].median : 0;
  }
  // The headline is rule_dense: large transition sets joined against a
  // base table inside rule actions, the paper's set-oriented shape
  // (speedups are batch median over row median). The counters prove
  // each layer actually engaged during the batch runs — the hash join
  // built tables, the kernels ran, and nothing silently fell back to a
  // slower path it was supposed to replace.
  json << "  ],\n  \"rule_dense_speedup\": " << speedup[0]
       << ",\n  \"filter_speedup\": " << speedup[1]
       << ",\n  \"hash_join_builds\": "
       << after.hash_join_builds - before.hash_join_builds
       << ",\n  \"hash_join_fallbacks\": "
       << after.hash_join_fallbacks - before.hash_join_fallbacks
       << ",\n  \"columnar_chunks\": "
       << after.columnar_chunks - before.columnar_chunks
       << ",\n  \"columns_built\": "
       << after.columns_built - before.columns_built
       << ",\n  \"columns_rejected\": "
       << after.columns_rejected - before.columns_rejected
       << ",\n  \"kernel_compare\": "
       << after.kernel_compare - before.kernel_compare
       << ",\n  \"kernel_arith\": " << after.kernel_arith - before.kernel_arith
       << ",\n  \"kernel_null_check\": "
       << after.kernel_null_check - before.kernel_null_check
       << ",\n  \"kernel_membership\": "
       << after.kernel_membership - before.kernel_membership
       << ",\n  \"kernel_logical\": "
       << after.kernel_logical - before.kernel_logical
       << ",\n  \"pointer_fallback_preds\": "
       << after.pointer_fallback_preds - before.pointer_fallback_preds
       << "\n}\n";
  std::cout << "wrote BENCH_rule_vectorized.json (median batch over row: "
            << "rule_dense " << speedup[0] << "x, filter " << speedup[1]
            << "x)\n";
  return 0;
}
