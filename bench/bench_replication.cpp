// B14 — log-shipping replication (docs/REPLICATION.md). Two questions:
//
//   1. Lag vs write load: a primary commits in bursts of B transactions
//      before the follower gets to poll. How much durable-but-unapplied
//      log piles up (the reported lag bound), and how fast does the
//      follower drain it (applied groups/sec)?
//   2. Follower read throughput vs fan-out: 1..4 followers each serving
//      snapshot count(*) reads from the same primary directory — reads
//      scale with followers because each replays into its own engine and
//      readers never touch the primary.
//
// Custom main (not google-benchmark): each repetition runs every
// configuration against fresh WAL directories, and BenchReport writes
// the median/min/max of each to BENCH_replication.json. Fsync is pinned
// OFF so the numbers measure the replication machinery, not the disk.
//
// Run: ./build/bench/bench_replication [txns-per-config]

#include <sys/stat.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "replication/follower.h"

namespace sopr {
namespace {

RuleEngineOptions PrimaryOptions(const std::string& dir) {
  RuleEngineOptions options;
  options.wal_dir = dir;
  options.wal_fsync = WalFsyncPolicy::kOff;
  options.wal_checkpoint_interval = 0;  // no rotations mid-measurement
  return options;
}

replication::FollowerOptions MakeFollowerOptions(const std::string& dir) {
  replication::FollowerOptions options;
  options.engine = PrimaryOptions(dir);
  options.retry.initial_delay = std::chrono::microseconds(20);
  options.retry.max_delay = std::chrono::microseconds(200);
  options.retry.max_attempts = 50;
  return options;
}

Status RunTxn(Engine* engine, int i) {
  return engine->Execute("insert into t values (" + std::to_string(i) +
                         ", " + std::to_string(i % 97) + ")");
}

uint64_t FileSize(const std::string& path) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

/// Lag vs write load: the primary commits `batch` transactions between
/// follower polls; the follower's first poll of each burst reports the
/// accumulated lag bound, then drains it.
void RunLag(int batch, int total_txns, BenchReport* report) {
  const TempDir temp("replication");
  const std::string& dir = temp.path();
  auto primary = Engine::Open(PrimaryOptions(dir));
  BenchCheck(primary.status(), "open primary");
  BenchCheck(primary.value()->Execute("create table t (id int, v int)"), "ddl");

  auto follower = replication::Follower::Open(MakeFollowerOptions(dir));
  BenchCheck(follower.status(), "open follower");
  BenchCheck(follower.value()->CatchUp(), "initial catch-up");

  const std::string log_path = dir + "/wal.log";
  uint64_t drained = FileSize(log_path);
  uint64_t max_lag = 0;
  double replay_seconds = 0;
  for (int done = 0; done < total_txns; done += batch) {
    for (int i = 0; i < batch; ++i) {
      BenchCheck(RunTxn(primary.value().get(), done + i), "txn");
    }
    // The burst is durable but unapplied: this is the lag bound a reader
    // would see before the follower's next poll.
    const uint64_t size = FileSize(log_path);
    if (size - drained > max_lag) max_lag = size - drained;
    const auto start = std::chrono::steady_clock::now();
    BenchCheck(follower.value()->CatchUp(), "catch-up");
    replay_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    drained = size;
  }

  const std::string prefix = "lag.batch" + std::to_string(batch) + ".";
  report->Add(prefix + "replay_txns_per_sec", total_txns / replay_seconds);
  report->Add(prefix + "max_lag_bytes", max_lag);
}

/// Read throughput vs fan-out: `followers` replicas of one preloaded
/// primary directory, one reader thread each, fixed read count.
void RunReads(int followers, int reads_per_follower, BenchReport* report) {
  const TempDir temp("replication");
  const std::string& dir = temp.path();
  {
    auto primary = Engine::Open(PrimaryOptions(dir));
    BenchCheck(primary.status(), "open primary");
    BenchCheck(primary.value()->Execute("create table t (id int, v int)"),
               "ddl");
    for (int i = 0; i < 200; ++i) {
      BenchCheck(RunTxn(primary.value().get(), i), "load");
    }
  }  // primary closed: followers read a quiesced directory

  std::vector<std::unique_ptr<replication::Follower>> fleet;
  for (int f = 0; f < followers; ++f) {
    auto follower = replication::Follower::Open(MakeFollowerOptions(dir));
    BenchCheck(follower.status(), "open follower");
    BenchCheck(follower.value()->CatchUp(), "catch-up");
    fleet.push_back(std::move(follower).value());
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> readers;
  for (int f = 0; f < followers; ++f) {
    readers.emplace_back([&, f] {
      for (int i = 0; i < reads_per_follower; ++i) {
        auto result =
            fleet[f]->Query("select count(*) from t where v = " +
                            std::to_string(i % 97));
        BenchCheck(result.status(), "read");
      }
    });
  }
  for (std::thread& t : readers) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  report->Add("reads.followers" + std::to_string(followers) + ".per_sec",
              followers * reads_per_follower / secs);
}

}  // namespace
}  // namespace sopr

int main(int argc, char** argv) {
  // The bench pins fsync off; the env override would skew the lag runs.
  ::unsetenv("SOPR_WAL_FSYNC");
  const int total = argc > 1 ? std::atoi(argv[1]) : 256;

  sopr::BenchReport report("replication", /*threads=*/4);
  report.Set("txns_per_config", total);
  report.Run([&](int) {
    for (int batch : {1, 4, 16, 64}) sopr::RunLag(batch, total, &report);
    for (int followers : {1, 2, 4}) {
      sopr::RunReads(followers, total * 4, &report);
    }
  });
  report.Write();
  return 0;
}
