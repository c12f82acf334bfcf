// B15 — admission control under open-loop overload (docs/OVERLOAD.md).
//
// Phase 1 measures peak goodput with a small closed loop (2 writers):
// every request is an indexed multi-update block on the worker's own key
// range, so the only shared sections are the scheduler and the WAL. The
// per-commit p50 from this phase calibrates the client latency budget D
// (6x the uncontended service time — a patient but not infinite client).
//
// Phase 2 offers the SAME requests open-loop at >= 4x the measured peak
// (arrival i is due at start + i/rate, regardless of completions) from a
// pool of 16 client sessions, each enforcing D as its statement timeout.
// Two server configurations absorb the storm:
//
//   no_admission — the generous defaults: every arrival is admitted, all
//     16 clients execute concurrently, every request's share of the
//     machine shrinks until nearly all of them blow their budget
//     MID-transaction — work is admitted, partially applied, rolled
//     back. Goodput collapses to the few requests that slip through,
//     and end-to-end p99 (queueing included) grows with the backlog.
//   admission — max_inflight_writers=2 and a tiny queue with a deadline
//     of D/4: the excess is refused AT THE DOOR in microseconds with
//     kOverloaded + a retry-after hint, so the admitted requests run at
//     the same concurrency the peak was measured at and finish inside
//     their budget. Goodput retains >= ~70% of peak; p99 stays bounded.
//
// Success = the block committed within D of its scheduled arrival;
// latency is end-to-end (arrival to final status), so client-side
// backlog wait counts. Custom main: each repetition measures the peak
// and then both configurations, in alternating order, on fresh servers;
// BenchReport writes the median/min/max of each figure to
// BENCH_overload.json. Exits 1 unless admission keeps >= 70% of peak
// goodput by median and more than the unshedded configuration.
//
// Run: ./build/bench/bench_overload [seconds-per-window]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "server/session_manager.h"

namespace sopr {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kClients = 16;       // open-loop worker sessions
constexpr int kRowsPerTable = 256; // each client owns one table: no locks
constexpr int kUpdatesPerBlock = 4;
constexpr double kOverloadFactor = 4.0;

/// A block of full-table updates on the client's OWN table (no index, so
/// each statement scans and rewrites all kRowsPerTable rows; per-client
/// tables, so no two requests ever contend on a lock). Execution costs
/// milliseconds while parse costs microseconds — which is what makes
/// refusal at the door cheap relative to the work being refused.
std::string MakeBlock(int client) {
  std::string block;
  for (int u = 0; u < kUpdatesPerBlock; ++u) {
    if (!block.empty()) block += "; ";
    block += "update accts" + std::to_string(client) + " set bal = bal + 1";
  }
  return block;
}

/// `dir` holds the WAL and must outlive the returned server.
std::unique_ptr<server::SessionManager> OpenServer(const TempDir& dir) {
  RuleEngineOptions options;
  options.wal_dir = dir.path();
  options.wal_fsync = WalFsyncPolicy::kOff;  // measure admission, not fsync
  auto manager = server::SessionManager::Open(options);
  BenchCheck(manager.status(), "open");
  auto setup = manager.value()->CreateSession();
  BenchCheck(setup.status(), "setup session");
  for (int c = 0; c < kClients; ++c) {
    const std::string table = "accts" + std::to_string(c);
    BenchCheck(setup.value()->Execute("create table " + table +
                                      " (id int, bal int)"),
               "ddl");
    for (int i = 0; i < kRowsPerTable; i += 32) {
      std::string block;
      for (int j = i; j < i + 32; ++j) {
        if (!block.empty()) block += "; ";
        block += "insert into " + table + " values (" + std::to_string(j) +
                 ", 0)";
      }
      BenchCheck(setup.value()->Execute(block), "load");
    }
  }
  return std::move(manager).value();
}

struct PeakResult {
  double goodput = 0;  // commits/sec, closed loop at concurrency 2
  double p50_ms = 0;   // per-commit service time at that concurrency
  double p99_ms = 0;
};

PeakResult MeasurePeak(double seconds) {
  const TempDir dir("overload");
  auto manager = OpenServer(dir);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::mutex lat_mu;
  std::vector<double> latencies;

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      auto session = manager->CreateSession();
      BenchCheck(session.status(), "peak session");
      std::vector<double> mine;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto t0 = Clock::now();
        BenchCheck(session.value()->Execute(MakeBlock(w)), "peak block");
        mine.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
        commits.fetch_add(1, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lock(lat_mu);
      latencies.insert(latencies.end(), mine.begin(), mine.end());
    });
  }
  const auto start = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : writers) t.join();
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();

  PeakResult r;
  r.goodput = commits.load() / secs;
  r.p50_ms = Percentile(&latencies, 0.50);
  r.p99_ms = Percentile(&latencies, 0.99);
  return r;
}

struct OverloadResult {
  uint64_t offered = 0;
  uint64_t commits = 0;   // within budget: the goodput numerator
  uint64_t late = 0;      // committed but past D (wasted by the client)
  uint64_t timeouts = 0;  // kTimeout/kLockTimeout mid-transaction
  uint64_t sheds = 0;     // kOverloaded at the admission door
  double goodput = 0;
  double p99_all_ms = 0;      // end-to-end, every attempt (the user view)
  double p99_success_ms = 0;  // end-to-end, successful attempts only
};

OverloadResult RunOverload(bool admission, double offered_per_sec,
                           std::chrono::microseconds budget, double seconds) {
  const TempDir dir("overload");
  auto manager = OpenServer(dir);
  if (admission) {
    server::AdmissionOptions options;
    options.max_inflight_writers = 2;  // the concurrency peak was measured at
    options.max_queued_writers = 2;
    options.queue_deadline = budget / 4;  // shed with budget left to retry
    manager->scheduler().admission().set_options(options);
  }

  const uint64_t total_arrivals =
      static_cast<uint64_t>(offered_per_sec * seconds);
  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> commits{0}, late{0}, timeouts{0}, sheds{0};
  std::mutex lat_mu;
  std::vector<double> all_lat, success_lat;

  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto session = manager->CreateSession();
      BenchCheck(session.status(), "client session");
      session.value()->set_statement_timeout(budget);
      std::vector<double> mine_all, mine_success;
      while (true) {
        const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total_arrivals) break;
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / offered_per_sec));
        std::this_thread::sleep_until(due);  // no-op once we lag: open loop
        const Status st = session.value()->Execute(MakeBlock(c));
        const auto lat = std::chrono::duration<double, std::milli>(
            Clock::now() - due);
        mine_all.push_back(lat.count());
        if (st.ok()) {
          if (lat <= budget) {
            commits.fetch_add(1, std::memory_order_relaxed);
            mine_success.push_back(lat.count());
          } else {
            late.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (st.code() == StatusCode::kOverloaded) {
          sheds.fetch_add(1, std::memory_order_relaxed);
        } else if (st.code() == StatusCode::kTimeout ||
                   st.code() == StatusCode::kLockTimeout) {
          timeouts.fetch_add(1, std::memory_order_relaxed);
        } else {
          BenchCheck(st, "overload block");
        }
      }
      std::lock_guard<std::mutex> lock(lat_mu);
      all_lat.insert(all_lat.end(), mine_all.begin(), mine_all.end());
      success_lat.insert(success_lat.end(), mine_success.begin(),
                         mine_success.end());
    });
  }
  for (std::thread& t : clients) t.join();
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();

  OverloadResult r;
  r.offered = total_arrivals;
  r.commits = commits.load();
  r.late = late.load();
  r.timeouts = timeouts.load();
  r.sheds = sheds.load();
  r.goodput = r.commits / secs;
  r.p99_all_ms = Percentile(&all_lat, 0.99);
  r.p99_success_ms = Percentile(&success_lat, 0.99);
  return r;
}

}  // namespace
}  // namespace sopr

int main(int argc, char** argv) {
  ::unsetenv("SOPR_WAL_FSYNC");  // the bench pins kOff itself
  const double seconds = argc > 1 ? std::atof(argv[1]) : 2.0;

  sopr::BenchReport report("overload", sopr::kClients);
  report.Set("clients", sopr::kClients);
  report.Set("overload_factor", sopr::kOverloadFactor);
  report.Set("seconds_per_window", seconds);
  report.Run([&](int rep) {
    const sopr::PeakResult peak = sopr::MeasurePeak(seconds);
    // The client's patience: 6x the uncontended per-commit service time.
    // Floors at 10ms so scheduler noise on a loaded box cannot make the
    // budget unmeetable even at peak concurrency.
    const auto budget = std::chrono::microseconds(std::max<int64_t>(
        10000, static_cast<int64_t>(peak.p50_ms * 6 * 1000)));
    const double offered = peak.goodput * sopr::kOverloadFactor;
    std::printf(
        "peak %.0f commits/s (p50 %.2fms, p99 %.2fms); budget %.1fms, "
        "offering %.0f/s (%.0fx) to %d clients\n",
        peak.goodput, peak.p50_ms, peak.p99_ms, budget.count() / 1000.0,
        offered, sopr::kOverloadFactor, sopr::kClients);
    report.Add("peak.goodput_per_sec", peak.goodput);
    report.Add("peak.p50_ms", peak.p50_ms);
    report.Add("peak.p99_ms", peak.p99_ms);
    report.Add("budget_ms", budget.count() / 1000.0);
    sopr::Alternate(rep, 2, [&](int admission) {
      const sopr::OverloadResult r =
          sopr::RunOverload(admission == 1, offered, budget, seconds);
      const std::string prefix =
          admission == 1 ? "admission." : "no_admission.";
      std::printf(
          "%-13s goodput %7.0f/s (%.0f%% of peak)  p99(all) %8.2fms  "
          "p99(success) %7.2fms  commits=%llu late=%llu timeouts=%llu "
          "sheds=%llu\n",
          prefix.c_str(), r.goodput, 100.0 * r.goodput / peak.goodput,
          r.p99_all_ms, r.p99_success_ms,
          static_cast<unsigned long long>(r.commits),
          static_cast<unsigned long long>(r.late),
          static_cast<unsigned long long>(r.timeouts),
          static_cast<unsigned long long>(r.sheds));
      report.Add(prefix + "offered", r.offered);
      report.Add(prefix + "commits", r.commits);
      report.Add(prefix + "late", r.late);
      report.Add(prefix + "timeouts", r.timeouts);
      report.Add(prefix + "sheds", r.sheds);
      report.Add(prefix + "goodput_per_sec", r.goodput);
      report.Add(prefix + "retention_vs_peak", r.goodput / peak.goodput);
      report.Add(prefix + "p99_all_ms", r.p99_all_ms);
      report.Add(prefix + "p99_success_ms", r.p99_success_ms);
    });
  });
  report.Write();

  const double retention = report.Get("admission.retention_vs_peak").median;
  const double collapse_retention =
      report.Get("no_admission.retention_vs_peak").median;
  std::printf(
      "admission retains %.0f%% of peak goodput under %.0fx overload vs "
      "%.0f%% unshedded (medians)\n",
      retention * 100, sopr::kOverloadFactor, collapse_retention * 100);
  return retention >= 0.7 && retention > collapse_retention ? 0 : 1;
}
