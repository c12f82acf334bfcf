// B16 — the network front-end end to end (docs/NETWORK.md): every
// request in this bench crosses a real TCP socket, the epoll loop
// thread, the worker pool, and the session/WAL machinery, so the
// numbers measure the wire path the paper-engine is actually served
// through — not the in-process Session API the other benches drive.
//
// Phase 1 (pipelining): a handful of closed-loop connections commit
// single-insert scripts for one window, first one Execute round-trip
// per commit, then in pipelined bursts (every frame written before the
// first response is read). Same SQL, same connections — the only
// difference is that the server's dispatch batches the consecutive
// EXECUTE frames into one Session::ExecutePipelined call, so the
// staged commits share group-commit cohorts. The group-commit counters
// from the STATS frame (batches/cohorts per mode) make the cohort
// amplification visible, not just inferable from throughput.
//
// Phase 2 (scale): kConnections (>= 1k) connections are opened and
// HELD OPEN — the epoll loop multiplexes them all — while a few driver
// threads (the container has 1 CPU; thousands of client threads would
// measure the scheduler, not the server) offer single-insert commits
// OPEN-LOOP at a fixed fraction of the phase-1 rate, round-robin
// across their share of the pool. Arrival i is due at start + i/rate
// whether or not earlier requests finished; latency is measured from
// the due time, so backlog counts against p99.
//
// Phase 3 (overload): writer admission is tightened to the same shape
// docs/OVERLOAD.md ships (max_inflight=2, tiny queue, short deadline)
// and the offered load switches to multi-statement update blocks at 4x
// the measured heavy-block capacity. The excess is refused at the door
// as kOverloaded WIRE errors carrying escalating retry-after-ms hints;
// goodput retention vs the closed-loop heavy peak should match the
// in-process BENCH_overload.json story (~70%+), now demonstrated
// through the protocol. A success's latency runs from its send, not its
// due time: the synchronous drivers cannot keep a 4x schedule, and how
// far behind it they fall is reported separately as driver lag.
//
// Custom main: each repetition runs the three phases against a fresh
// server, with the phase-1 modes in alternating order; BenchReport
// writes the median/min/max of each figure to BENCH_network.json.
// Run: ./build/bench/bench_network [seconds-per-window] [connections]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "server/session_manager.h"

namespace sopr {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPipelineClients = 4;  // closed-loop connections, phase 1
constexpr int kBurst = 16;           // pipelined frames per burst
constexpr int kDrivers = 4;          // open-loop driver threads, phases 2+3
constexpr int kServerWorkers = 4;    // the server's worker pool
constexpr int kHeavyRows = 256;      // rows per phase-3 hot table
constexpr int kHeavyUpdates = 4;     // statements per heavy block
constexpr double kOverloadFactor = 4.0;

std::atomic<uint64_t> g_next_id{0};

std::string MakeInsert() {
  return "insert into t values (" +
         std::to_string(g_next_id.fetch_add(1, std::memory_order_relaxed)) +
         ", 0)";
}

/// Phase-3 work unit: a block of full-table updates on the driver's OWN
/// hot table (no index, so each statement rewrites all kHeavyRows rows;
/// per-driver tables, so no lock contention — the only doors are the
/// admission controller and the WAL). Milliseconds of execution against
/// microseconds of parse: refusal at the door is cheap relative to the
/// work refused, which is the whole point of the retry-after hint.
std::string MakeHeavyBlock(int driver) {
  std::string block;
  for (int u = 0; u < kHeavyUpdates; ++u) {
    if (!block.empty()) block += "; ";
    block += "update hot" + std::to_string(driver) + " set val = val + 1";
  }
  return block;
}

struct TestServer {
  std::unique_ptr<TempDir> dir;  // destroyed after the server using it
  std::unique_ptr<server::SessionManager> manager;
  std::unique_ptr<net::Server> server;
  uint16_t port = 0;
};

TestServer StartServer() {
  auto dir = std::make_unique<TempDir>("network");
  RuleEngineOptions options;
  options.wal_dir = dir->path();
  options.wal_fsync = WalFsyncPolicy::kOff;  // measure the wire, not fsync
  auto manager = server::SessionManager::Open(options);
  BenchCheck(manager.status(), "open");
  manager.value()->set_max_sessions(4096);  // room for the 1k+ pool

  auto setup = manager.value()->CreateSession();
  BenchCheck(setup.status(), "setup session");
  BenchCheck(setup.value()->Execute("create table t (id int, val int)"), "ddl");
  for (int d = 0; d < kDrivers; ++d) {
    const std::string table = "hot" + std::to_string(d);
    BenchCheck(setup.value()->Execute("create table " + table +
                                           " (id int, val int)"),
                    "ddl");
    for (int i = 0; i < kHeavyRows; i += 32) {
      std::string block;
      for (int j = i; j < i + 32; ++j) {
        if (!block.empty()) block += "; ";
        block += "insert into " + table + " values (" + std::to_string(j) +
                 ", 0)";
      }
      BenchCheck(setup.value()->Execute(block), "load");
    }
  }

  net::Server::Options server_options;
  server_options.workers = kServerWorkers;
  auto server = net::Server::Start(manager.value().get(), server_options);
  BenchCheck(server.status(), "server start");

  TestServer ts;
  ts.dir = std::move(dir);
  ts.manager = std::move(manager).value();
  ts.server = std::move(server).value();
  ts.port = ts.server->port();
  return ts;
}

std::unique_ptr<net::Client> Connect(uint16_t port, const char* name) {
  net::Client::Options options;
  options.port = port;
  options.client_name = name;
  auto client = net::Client::Connect(options);
  BenchCheck(client.status(), "connect");
  return std::move(client).value();
}

struct PipelineResult {
  double commits_per_sec = 0;
  double p99_ms = 0;  // per round-trip: one commit or one whole burst
  uint64_t cohorts = 0;
  uint64_t batches = 0;
  double mean_cohort = 0;  // batches / cohorts over this window
};

/// One phase-1 window: kPipelineClients closed-loop connections, either
/// one Execute round-trip per commit or kBurst-frame pipelined bursts.
/// Cohort counters are deltas over exactly this window.
PipelineResult RunPipelineWindow(uint16_t port, bool pipelined,
                                 double seconds) {
  auto stats_client = Connect(port, "bench-stats");
  auto before = stats_client->Stats();
  BenchCheck(before.status(), "stats before");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::mutex lat_mu;
  std::vector<double> latencies;

  std::vector<std::thread> clients;
  for (int c = 0; c < kPipelineClients; ++c) {
    clients.emplace_back([&, c] {
      auto client =
          Connect(port, pipelined ? "bench-pipelined" : "bench-single");
      std::vector<double> mine;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto t0 = Clock::now();
        if (pipelined) {
          std::vector<std::string> scripts;
          scripts.reserve(kBurst);
          for (int i = 0; i < kBurst; ++i) scripts.push_back(MakeInsert());
          auto outcomes = client->ExecutePipelined(scripts);
          BenchCheck(outcomes.status(), "pipelined burst");
          for (const auto& o : outcomes.value()) {
            BenchCheck(o.status, "burst script");
          }
          commits.fetch_add(kBurst, std::memory_order_relaxed);
        } else {
          auto lsn = client->Execute(MakeInsert());
          BenchCheck(lsn.status(), "execute");
          commits.fetch_add(1, std::memory_order_relaxed);
        }
        mine.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
      }
      client->Close();
      std::lock_guard<std::mutex> lock(lat_mu);
      latencies.insert(latencies.end(), mine.begin(), mine.end());
    });
  }
  const auto start = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();

  auto after = stats_client->Stats();
  BenchCheck(after.status(), "stats after");
  stats_client->Close();

  PipelineResult r;
  r.commits_per_sec = commits.load() / secs;
  r.p99_ms = Percentile(&latencies, 0.99);
  r.cohorts = after.value().group_commit.cohorts -
              before.value().group_commit.cohorts;
  r.batches = after.value().group_commit.batches -
              before.value().group_commit.batches;
  r.mean_cohort =
      r.cohorts > 0 ? static_cast<double>(r.batches) / r.cohorts : 0;
  return r;
}

struct ScaleResult {
  size_t connections = 0;
  double offered_per_sec = 0;
  uint64_t offered = 0;
  uint64_t commits = 0;
  uint64_t errors = 0;
  double commits_per_sec = 0;
  double p99_ms = 0;  // end-to-end from the scheduled arrival time
  uint64_t connections_active = 0;  // the server's own view of the pool
};

struct OverloadResult {
  double peak_per_sec = 0;  // closed-loop heavy-block capacity
  double offered_per_sec = 0;
  uint64_t offered = 0;
  uint64_t commits = 0;
  uint64_t sheds = 0;
  uint64_t other_errors = 0;
  double goodput_per_sec = 0;
  double retention = 0;  // goodput / heavy peak
  double p99_success_ms = 0;  // from each request's send to its reply
  double p99_driver_lag_ms = 0;  // how late each request was sent
  uint32_t max_retry_hint_ms = 0;  // hints escalate per admission Backoff
};

/// Phase 2: the pool is held open end to end; each driver thread offers
/// arrivals open-loop at rate/kDrivers, round-robin over its slice.
ScaleResult RunScale(uint16_t port, std::vector<std::unique_ptr<net::Client>>* pool,
                     double offered_per_sec, double seconds) {
  const size_t per_driver = pool->size() / kDrivers;
  const uint64_t total_arrivals =
      static_cast<uint64_t>(offered_per_sec * seconds);
  std::atomic<uint64_t> commits{0}, errors{0};
  std::mutex lat_mu;
  std::vector<double> latencies;

  const auto start = Clock::now();
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      const double my_rate = offered_per_sec / kDrivers;
      const uint64_t my_arrivals = total_arrivals / kDrivers;
      std::vector<double> mine;
      for (uint64_t i = 0; i < my_arrivals; ++i) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / my_rate));
        std::this_thread::sleep_until(due);  // no-op once we lag: open loop
        net::Client& conn =
            *(*pool)[d * per_driver + (i % per_driver)];
        auto lsn = conn.Execute(MakeInsert());
        mine.push_back(std::chrono::duration<double, std::milli>(Clock::now() -
                                                                 due)
                           .count());
        if (lsn.ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(lat_mu);
      latencies.insert(latencies.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : drivers) t.join();
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();

  auto stats_client = Connect(port, "bench-stats");
  auto stats = stats_client->Stats();
  BenchCheck(stats.status(), "scale stats");
  stats_client->Close();

  ScaleResult r;
  r.connections = pool->size();
  r.offered_per_sec = offered_per_sec;
  r.offered = (total_arrivals / kDrivers) * kDrivers;
  r.commits = commits.load();
  r.errors = errors.load();
  r.commits_per_sec = r.commits / secs;
  r.p99_ms = Percentile(&latencies, 0.99);
  r.connections_active = stats.value().connections_active;
  return r;
}

/// Phase 3: measure closed-loop heavy-block capacity at concurrency 2,
/// tighten admission to that concurrency, then offer 4x through the
/// pool. Every kOverloaded comes back as a wire error whose message
/// carries the retry-after hint the client surfaces.
OverloadResult RunOverload(TestServer* ts,
                           std::vector<std::unique_ptr<net::Client>>* pool,
                           double seconds) {
  OverloadResult r;
  {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> commits{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        auto client = Connect(ts->port, "bench-heavy-peak");
        while (!stop.load(std::memory_order_relaxed)) {
          BenchCheck(client->Execute(MakeHeavyBlock(w)).status(), "heavy peak");
          commits.fetch_add(1, std::memory_order_relaxed);
        }
        client->Close();
      });
    }
    const auto start = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2));
    stop.store(true);
    for (std::thread& t : writers) t.join();
    r.peak_per_sec =
        commits.load() /
        std::chrono::duration<double>(Clock::now() - start).count();
  }

  server::AdmissionOptions admission;
  admission.max_inflight_writers = 2;  // the concurrency peak was measured at
  admission.max_queued_writers = 2;
  admission.queue_deadline = std::chrono::milliseconds(5);
  ts->manager->scheduler().admission().set_options(admission);

  const double offered = std::max(1.0, r.peak_per_sec) * kOverloadFactor;
  const size_t per_driver = pool->size() / kDrivers;
  const uint64_t total_arrivals = static_cast<uint64_t>(offered * seconds);
  std::atomic<uint64_t> commits{0}, sheds{0}, other{0};
  std::atomic<uint32_t> max_hint{0};
  std::mutex lat_mu;
  std::vector<double> success_lat, driver_lag;

  const auto start = Clock::now();
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      const double my_rate = offered / kDrivers;
      const uint64_t my_arrivals = total_arrivals / kDrivers;
      std::vector<double> mine, lag;
      auto ms = [](Clock::duration d) {
        return std::chrono::duration<double, std::milli>(d).count();
      };
      for (uint64_t i = 0; i < my_arrivals; ++i) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / my_rate));
        std::this_thread::sleep_until(due);
        net::Client& conn = *(*pool)[d * per_driver + (i % per_driver)];
        // A synchronous driver falls behind its schedule once its share
        // of the offered rate exceeds what one connection completes; that
        // lag is the generator's, so it is reported apart from latency.
        const auto sent = Clock::now();
        lag.push_back(ms(sent - due));
        auto lsn = conn.Execute(MakeHeavyBlock(d));
        if (lsn.ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
          mine.push_back(ms(Clock::now() - sent));
        } else if (lsn.status().code() == StatusCode::kOverloaded) {
          sheds.fetch_add(1, std::memory_order_relaxed);
          // The hint escalates with consecutive sheds (admission
          // Backoff); an obedient open-loop client would delay its next
          // arrival by it. Here we record it to prove it crossed the
          // wire intact.
          uint32_t hint = conn.retry_after_ms();
          uint32_t seen = max_hint.load(std::memory_order_relaxed);
          while (hint > seen &&
                 !max_hint.compare_exchange_weak(seen, hint)) {
          }
        } else {
          other.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(lat_mu);
      success_lat.insert(success_lat.end(), mine.begin(), mine.end());
      driver_lag.insert(driver_lag.end(), lag.begin(), lag.end());
    });
  }
  for (std::thread& t : drivers) t.join();
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();

  server::AdmissionOptions defaults;
  ts->manager->scheduler().admission().set_options(defaults);

  r.offered_per_sec = offered;
  r.offered = (total_arrivals / kDrivers) * kDrivers;
  r.commits = commits.load();
  r.sheds = sheds.load();
  r.other_errors = other.load();
  r.goodput_per_sec = r.commits / secs;
  r.retention = r.peak_per_sec > 0 ? r.goodput_per_sec / r.peak_per_sec : 0;
  r.p99_success_ms = Percentile(&success_lat, 0.99);
  r.p99_driver_lag_ms = Percentile(&driver_lag, 0.99);
  r.max_retry_hint_ms = max_hint.load();
  return r;
}

/// One repetition: the three phases against a fresh server.
void RunOnce(int rep, double seconds, size_t connections,
             BenchReport* report) {
  TestServer ts = StartServer();

  PipelineResult modes[2];
  Alternate(rep, 2, [&](int pipelined) {
    modes[pipelined] = RunPipelineWindow(ts.port, pipelined == 1, seconds);
  });
  for (int pipelined = 0; pipelined < 2; ++pipelined) {
    const PipelineResult& r = modes[pipelined];
    const std::string prefix =
        pipelined == 1 ? "pipelined." : "one_at_a_time.";
    std::printf(
        "%-15s %8.0f commits/s  p99 %7.3fms/round-trip  cohorts=%llu "
        "batches=%llu mean_cohort=%.2f\n",
        prefix.c_str(), r.commits_per_sec, r.p99_ms,
        static_cast<unsigned long long>(r.cohorts),
        static_cast<unsigned long long>(r.batches), r.mean_cohort);
    report->Add(prefix + "commits_per_sec", r.commits_per_sec);
    report->Add(prefix + "p99_round_trip_ms", r.p99_ms);
    report->Add(prefix + "cohorts", r.cohorts);
    report->Add(prefix + "batches", r.batches);
    report->Add(prefix + "mean_cohort", r.mean_cohort);
  }

  // The held-open pool: every connection is a live session in the
  // server's epoll set for the rest of the repetition.
  std::vector<std::unique_ptr<net::Client>> pool;
  pool.reserve(connections);
  for (size_t i = 0; i < connections; ++i) {
    pool.push_back(Connect(ts.port, "bench-pool"));
  }
  const ScaleResult scale =
      RunScale(ts.port, &pool, modes[0].commits_per_sec * 0.7, seconds);
  std::printf(
      "scale: %zu connections held open (server sees %llu active), offered "
      "%.0f/s -> %8.0f commits/s  p99 %7.3fms  errors=%llu\n",
      scale.connections,
      static_cast<unsigned long long>(scale.connections_active),
      scale.offered_per_sec, scale.commits_per_sec, scale.p99_ms,
      static_cast<unsigned long long>(scale.errors));
  report->Add("scale.connections_active", scale.connections_active);
  report->Add("scale.offered_per_sec", scale.offered_per_sec);
  report->Add("scale.offered", scale.offered);
  report->Add("scale.commits", scale.commits);
  report->Add("scale.errors", scale.errors);
  report->Add("scale.commits_per_sec", scale.commits_per_sec);
  report->Add("scale.p99_ms", scale.p99_ms);

  const OverloadResult overload = RunOverload(&ts, &pool, seconds);
  std::printf(
      "overload: heavy peak %.0f/s, offered %.0f/s (%.0fx) -> goodput "
      "%.0f/s (%.0f%% retained)  sheds=%llu  max_retry_hint=%ums  "
      "p99(success) %.2fms  p99(driver lag) %.2fms  other_errors=%llu\n",
      overload.peak_per_sec, overload.offered_per_sec, kOverloadFactor,
      overload.goodput_per_sec, 100.0 * overload.retention,
      static_cast<unsigned long long>(overload.sheds),
      overload.max_retry_hint_ms, overload.p99_success_ms,
      overload.p99_driver_lag_ms, static_cast<unsigned long long>(overload.other_errors));
  report->Add("overload.heavy_peak_per_sec", overload.peak_per_sec);
  report->Add("overload.offered_per_sec", overload.offered_per_sec);
  report->Add("overload.offered", overload.offered);
  report->Add("overload.commits", overload.commits);
  report->Add("overload.sheds", overload.sheds);
  report->Add("overload.other_errors", overload.other_errors);
  report->Add("overload.goodput_per_sec", overload.goodput_per_sec);
  report->Add("overload.retention_vs_peak", overload.retention);
  report->Add("overload.p99_success_ms", overload.p99_success_ms);
  report->Add("overload.p99_driver_lag_ms", overload.p99_driver_lag_ms);
  report->Add("overload.max_retry_hint_ms", overload.max_retry_hint_ms);

  for (auto& client : pool) client->Abort();
  pool.clear();
  ts.server->Shutdown();
}

}  // namespace
}  // namespace sopr

int main(int argc, char** argv) {
  ::unsetenv("SOPR_WAL_FSYNC");  // the bench pins kOff itself
  const double seconds = argc > 1 ? std::atof(argv[1]) : 2.0;
  const size_t connections = argc > 2
                                 ? static_cast<size_t>(std::atoll(argv[2]))
                                 : 1024;

  sopr::BenchReport report("network",
                           sopr::kDrivers + sopr::kServerWorkers);
  report.Set("workers", sopr::kServerWorkers);
  report.Set("connections", static_cast<double>(connections));
  report.Set("seconds_per_window", seconds);
  report.Run([&](int rep) {
    sopr::RunOnce(rep, seconds, connections, &report);
  });
  report.Write();

  // Each shape must hold in every timed repetition (the min/max of the
  // figure across repetitions).
  const bool cohorts_grew = report.Get("pipelined.mean_cohort").min >
                            report.Get("one_at_a_time.mean_cohort").max;
  const bool scale_clean =
      report.Get("scale.errors").max == 0 &&
      report.Get("scale.commits").min > 0 &&
      report.Get("scale.connections_active").min >=
          static_cast<double>(connections);
  const bool shed_visible = report.Get("overload.sheds").min > 0 &&
                            report.Get("overload.max_retry_hint_ms").min > 0;
  return cohorts_grew && scale_clean && shed_visible ? 0 : 1;
}
