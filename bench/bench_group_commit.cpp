// B11 — group commit vs one-fsync-per-commit. N client threads insert
// through the concurrent session front-end (docs/CONCURRENCY.md); the
// cohort leader amortizes one fsync over every transaction staged while
// the previous fsync ran. The baseline holds one global lock across the
// whole commit (apply + write + fsync), i.e. fsyncs never overlap
// anything — the classic serial commit path.
//
// Custom main (not google-benchmark): each repetition runs every
// configuration once against a fresh WAL directory, group and serial in
// alternating order, and BenchReport writes the median/min/max of each
// configuration to BENCH_group_commit.json.
//
// Run: ./build/bench/bench_group_commit [txns-per-config]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "server/session_manager.h"
#include "wal/wal_writer.h"

namespace sopr {
namespace {

std::string InsertBlock(int thread, int step) {
  return "insert into t values (" + std::to_string(thread * 1000000 + step) +
         ", " + std::to_string(step % 97) + ")";
}

/// Group mode: the session front-end's two-phase pipeline (exclusive
/// apply, lock-free durability wait -> fsync cohorts). Records commits/s
/// and the cohort counts under `prefix`.
void RunGroup(WalFsyncPolicy policy, int threads, int total_txns,
              const std::string& prefix, BenchReport* report) {
  TempDir dir("group_commit");
  RuleEngineOptions options;
  options.wal_dir = dir.path();
  options.wal_fsync = policy;
  auto manager = server::SessionManager::Open(options);
  BenchCheck(manager.status(), "open");
  auto setup = manager.value()->CreateSession();
  BenchCheck(setup.status(), "session");
  BenchCheck(setup.value()->Execute("create table t (id int, v int)"), "ddl");

  const int per_thread = total_txns / threads;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      auto session = manager.value()->CreateSession();
      BenchCheck(session.status(), "worker session");
      for (int j = 0; j < per_thread; ++j) {
        BenchCheck(session.value()->Execute(InsertBlock(i, j)), "insert");
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const wal::GroupCommitStats stats =
      manager.value()->engine().wal()->group_stats();
  report->Add(prefix + "group.commits_per_sec", per_thread * threads / secs);
  report->Add(prefix + "group.cohorts", stats.cohorts);
  report->Add(prefix + "group.largest_cohort", stats.largest_cohort);
}

/// Serial baseline: same engine, same WAL, but one global mutex held
/// across apply AND fsync — every commit pays its own fsync and nothing
/// overlaps it.
void RunSerial(WalFsyncPolicy policy, int threads, int total_txns,
               const std::string& prefix, BenchReport* report) {
  TempDir dir("group_commit");
  RuleEngineOptions options;
  options.wal_dir = dir.path();
  options.wal_fsync = policy;
  auto engine = Engine::Open(options);
  BenchCheck(engine.status(), "open");
  BenchCheck(engine.value()->Execute("create table t (id int, v int)"), "ddl");

  std::mutex global;
  const int per_thread = total_txns / threads;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      for (int j = 0; j < per_thread; ++j) {
        std::lock_guard<std::mutex> lock(global);
        BenchCheck(engine.value()->Execute(InsertBlock(i, j)), "insert");
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  report->Add(prefix + "serial.commits_per_sec", per_thread * threads / secs);
}

}  // namespace
}  // namespace sopr

int main(int argc, char** argv) {
  // The bench pins its own policies; the env override would make the
  // "commit" configurations silently measure nothing.
  ::unsetenv("SOPR_WAL_FSYNC");
  const int total = argc > 1 ? std::atoi(argv[1]) : 400;

  const std::pair<const char*, sopr::WalFsyncPolicy> policies[] = {
      {"commit", sopr::WalFsyncPolicy::kCommit},
      {"off", sopr::WalFsyncPolicy::kOff}};
  const auto prefix = [](const char* policy, int threads) {
    return std::string(policy) + ".t" + std::to_string(threads) + ".";
  };

  sopr::BenchReport report("group_commit", /*threads=*/8);
  report.Set("txns_per_config", total);
  report.Run([&](int rep) {
    for (const auto& [name, policy] : policies) {
      for (int threads : {1, 2, 4, 8}) {
        sopr::Alternate(rep, 2, [&](int mode) {
          if (mode == 0) {
            sopr::RunGroup(policy, threads, total, prefix(name, threads),
                           &report);
          } else {
            sopr::RunSerial(policy, threads, total, prefix(name, threads),
                            &report);
          }
        });
      }
    }
  });

  for (const auto& [name, policy] : policies) {
    for (int threads : {1, 2, 4, 8}) {
      const std::string p = prefix(name, threads);
      const double group = report.Get(p + "group.commits_per_sec").median;
      const double serial = report.Get(p + "serial.commits_per_sec").median;
      std::printf("policy=%-6s threads=%d  group %8.0f c/s  serial %8.0f c/s"
                  "  ratio %.2fx (medians)\n",
                  name, threads, group, serial,
                  serial > 0 ? group / serial : 0);
    }
  }
  const double group4 = report.Get("commit.t4.group.commits_per_sec").median;
  const double serial4 = report.Get("commit.t4.serial.commits_per_sec").median;
  report.Set("speedup_group_vs_serial_at_4_threads_commit",
             serial4 > 0 ? group4 / serial4 : 0);
  report.Write();
  return 0;
}
