// perfbench: the repository benchmark's binary (perfbench/README.md).
//
//   perfbench serve --wal-dir DIR --workers N
//     Hosts the engine: a net::Server over a server::SessionManager with
//     the WAL attached (fsync off) and production defaults otherwise.
//     Prints "port P", serves until its stdin closes, then prints
//     "versions V peak_rss_kb K" and exits.
//
//   perfbench load --workload W --seed S --seconds T --trace 0|1
//                  --out DIR [--commit SHA]
//     Pins itself and its children to the workload's CPUs, then
//     runs kSubRuns sub-runs, each on its own `serve` child: loads the
//     workload's start state through the wire, drives it closed-loop from
//     one writer (two on wire_oltp) and one reader connection for an equal
//     share of a fixed count of writes (about T seconds' worth), and
//     checks every answer against the workload's own model. Prints one
//     JSON object as its last line: the end-to-end metrics with --trace 0,
//     the per-layer metrics with --trace 1. The traced run makes one
//     sub-run, then replays the same seeded inputs single-threaded
//     in-process and derives the per-layer metrics from spans around the
//     layers' public calls; it also sends the replay's write scripts to
//     a fresh server over one connection and to a fresh in-process engine
//     in lockstep, pairing each round trip with the in-process execution
//     of the same script.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "core.h"
#include "engine/engine.h"
#include "exec/stats.h"
#include "net/client.h"
#include "net/server.h"
#include "server/session_manager.h"
#include "sql/parser.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Sub-runs (servers set up and measured) per measured run; every
/// end-to-end metric reports its median over them.
constexpr int kSubRuns = 8;
/// Every run makes at least this many timed writes (p90 needs ten
/// samples above it).
constexpr int kMinWrites = 100;
/// The traced replay covers at least this many writes and rounds.
constexpr int kReplayWrites = 48;
constexpr int kReplayRounds = 10;

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "perfbench: " << what << "\n";
  std::exit(1);
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) Die("bad argument " + arg);
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& name, const std::string& fallback = "") {
  auto it = flags.find(name);
  if (it != flags.end()) return it->second;
  if (fallback.empty()) Die("missing --" + name);
  return fallback;
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

int64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                        : 0;
}

/// Pins this process, and so every server child it starts, to the
/// `count` highest-numbered CPUs it may run on (CPU 0 takes most
/// interrupts), and returns them as a list like "2,3". On a shared host
/// an idle vCPU's wake-up latency varied 2-4x between periods; on few
/// CPUs that rarely idle, client and server threads hand each round trip
/// over without waking one.
std::string PinToCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    Die(std::string("sched_getaffinity: ") + std::strerror(errno));
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string list;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && count > 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    list = std::to_string(cpu) + (list.empty() ? "" : "," + list);
    --count;
  }
  if (::sched_setaffinity(0, sizeof(chosen), &chosen) != 0) {
    Die(std::string("sched_setaffinity: ") + std::strerror(errno));
  }
  return list;
}

sopr::RuleEngineOptions EngineOptions(const std::string& wal_dir) {
  sopr::RuleEngineOptions options;
  options.wal_dir = wal_dir;
  options.wal_fsync = sopr::WalFsyncPolicy::kOff;
  return options;
}

// --- serve -----------------------------------------------------------------

int Serve(const std::map<std::string, std::string>& flags) {
  auto manager =
      sopr::server::SessionManager::Open(EngineOptions(Flag(flags, "wal-dir")));
  if (!manager.ok()) Die("open: " + manager.status().ToString());
  sopr::net::Server::Options options;
  options.workers = std::stoul(Flag(flags, "workers"));
  auto server = sopr::net::Server::Start(manager.value().get(), options);
  if (!server.ok()) Die("listen: " + server.status().ToString());
  std::printf("port %u\n", server.value()->port());
  std::fflush(stdout);
  // Serve until the load process closes our stdin (or exits).
  char buf[256];
  while (::read(0, buf, sizeof(buf)) > 0) {
  }
  server.value()->Shutdown();
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  std::printf("versions %zu peak_rss_kb %ld\n",
              manager.value()->engine().db().VersionCount(),
              static_cast<long>(usage.ru_maxrss));
  std::fflush(stdout);
  return 0;
}

// --- the server child ------------------------------------------------------

class ServerProcess {
 public:
  struct Report {
    uint64_t versions = 0;
    int64_t peak_rss_kb = 0;
  };

  ServerProcess(const std::string& exe, const std::string& wal_dir,
                int workers) {
    int in[2], out[2];
    if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) {
      Die("pipe failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    std::string workers_arg = std::to_string(workers);
    std::vector<char*> args = {const_cast<char*>(exe.c_str()),
                               const_cast<char*>("serve"),
                               const_cast<char*>("--wal-dir"),
                               const_cast<char*>(wal_dir.c_str()),
                               const_cast<char*>("--workers"),
                               workers_arg.data(), nullptr};
    if (posix_spawn(&pid_, exe.c_str(), &actions, nullptr, args.data(),
                    environ) != 0) {
      Die("cannot start the server");
    }
    posix_spawn_file_actions_destroy(&actions);
    ::close(in[0]);
    ::close(out[1]);
    stdin_ = in[1];
    stdout_ = ::fdopen(out[0], "r");
    unsigned port = 0;
    if (std::fscanf(stdout_, "port %u", &port) != 1) Die("server did not start");
    port_ = static_cast<uint16_t>(port);
  }

  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// Closes the server's stdin, reads its final report, and waits for it.
  Report Stop() {
    Report report;
    if (pid_ <= 0) return report;
    ::close(stdin_);
    unsigned long long versions = 0;
    long long rss = 0;
    if (std::fscanf(stdout_, " versions %llu peak_rss_kb %lld", &versions,
                    &rss) == 2) {
      report.versions = versions;
      report.peak_rss_kb = rss;
    }
    std::fclose(stdout_);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return report;
  }

 private:
  pid_t pid_ = -1;
  int stdin_ = -1;
  FILE* stdout_ = nullptr;
  uint16_t port_ = 0;
};

std::unique_ptr<sopr::net::Client> Connect(uint16_t port,
                                           const std::string& name) {
  sopr::net::Client::Options options;
  options.port = port;
  options.client_name = name;
  auto client = sopr::net::Client::Connect(options);
  if (!client.ok()) Die("connect: " + client.status().ToString());
  return std::move(client).value();
}

// --- connections -----------------------------------------------------------

/// Reports the first few failed operations on stderr.
void NoteFailure(const char* what, const Status& status) {
  static std::atomic<int> shown{0};
  if (shown.fetch_add(1) < 5) {
    std::cerr << "perfbench: " << what << " failed: " << status << "\n";
  }
}

/// A connection over the wire; Write and Read are timed round trips.
class WireConn : public Conn {
 public:
  WireConn(std::unique_ptr<sopr::net::Client> client, std::string wal_file)
      : client_(std::move(client)), wal_file_(std::move(wal_file)) {}

  sopr::net::Client& client() { return *client_; }

  Status Write(const std::string& sql) override {
    Clock::time_point start = Clock::now();
    auto r = client_->Execute(sql);
    Clock::duration took = Clock::now() - start;
    if (!r.ok()) {
      ++stats_.write_failed;
      NoteFailure("write", r.status());
      return r.status();
    }
    ++stats_.commits;
    stats_.write_us.push_back(Micros(took));
    return Status::OK();
  }

  Result<QueryResult> Read(const std::string& sql) override {
    Clock::time_point start = Clock::now();
    auto r = client_->Query(sql);
    Clock::duration took = Clock::now() - start;
    if (!r.ok()) {
      ++stats_.read_failed;
      NoteFailure("read", r.status());
      return r;
    }
    ++stats_.reads;
    stats_.read_us.push_back(Micros(took));
    return r;
  }

  Result<QueryResult> CheckQuery(const std::string& sql) override {
    Clock::time_point start = Clock::now();
    auto r = client_->Query(sql);
    stats_.off_clock += Clock::now() - start;
    return r;
  }

  Status CleanupWrite(const std::string& sql) override {
    int64_t wal_before = FileSize(wal_file_);
    Clock::time_point start = Clock::now();
    auto r = client_->Execute(sql);
    stats_.off_clock += Clock::now() - start;
    stats_.off_clock_wal_bytes += FileSize(wal_file_) - wal_before;
    return r.status();
  }

 private:
  std::unique_ptr<sopr::net::Client> client_;
  std::string wal_file_;
};

/// Counters the engine replay reads from each transaction's traces.
struct RuleCounts {
  uint64_t txns = 0;
  uint64_t considerations = 0;
  uint64_t firings = 0;
  uint64_t transition_rows = 0;
  sopr::exec::ExecStatsSnapshot exec;

  void Add(const sopr::ExecutionTrace& trace) {
    considerations += trace.considered.size();
    firings += trace.firings.size();
    for (const sopr::RuleFiring& f : trace.firings) {
      for (const auto& [table, info] : f.effect.tables()) {
        transition_rows += info.ins.size() + info.del.size() + info.upd.size();
      }
    }
  }
};

sopr::exec::ExecStatsSnapshot& operator+=(
    sopr::exec::ExecStatsSnapshot& a, const sopr::exec::ExecStatsSnapshot& b) {
  a.batches += b.batches;
  a.scalar_fallbacks += b.scalar_fallbacks;
  a.hash_join_builds += b.hash_join_builds;
  a.hash_join_fallbacks += b.hash_join_fallbacks;
  a.columnar_chunks += b.columnar_chunks;
  a.columns_built += b.columns_built;
  a.columns_rejected += b.columns_rejected;
  a.kernel_compare += b.kernel_compare;
  a.kernel_arith += b.kernel_arith;
  a.kernel_null_check += b.kernel_null_check;
  a.kernel_membership += b.kernel_membership;
  a.kernel_logical += b.kernel_logical;
  a.pointer_fallback_preds += b.pointer_fallback_preds;
  a.hash_join_columnar_builds += b.hash_join_columnar_builds;
  return a;
}

/// In-process replay through the server layer: Parser::ParseScript,
/// Session::Execute and Session::Query, each inside its own span.
class SessionConn : public Conn {
 public:
  explicit SessionConn(sopr::server::Session* session) : session_(session) {}
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  Status Write(const std::string& sql) override {
    tracer_->set_txn(tracer_->txn() + 1);
    Tracer::Scope txn(tracer_, "txn");
    {
      // Session::Execute parses again; this call isolates the parser's cost.
      Tracer::Scope parse(tracer_, "sql.parse");
      (void)sopr::Parser::ParseScript(sql);
    }
    Status st;
    {
      Tracer::Scope execute(tracer_, "server.execute");
      st = session_->Execute(sql);
    }
    st.ok() ? ++stats_.commits : ++stats_.write_failed;
    return st;
  }

  Result<QueryResult> Read(const std::string& sql) override {
    Tracer::Scope query(tracer_, "server.query");
    auto r = session_->Query(sql);
    r.ok() ? ++stats_.reads : ++stats_.read_failed;
    return r;
  }

  Result<QueryResult> CheckQuery(const std::string& sql) override {
    return session_->Query(sql);
  }
  Status CleanupWrite(const std::string& sql) override {
    return session_->Execute(sql);
  }

 private:
  sopr::server::Session* session_;
  Tracer* tracer_ = nullptr;
};

/// In-process replay through the engine's explicit transaction API:
/// Engine::Run of the external block, Engine::ProcessRules to
/// quiescence, then Engine::Commit, each inside its own span.
class EngineConn : public Conn {
 public:
  EngineConn(sopr::Engine* engine, Tracer* tracer, RuleCounts* counts)
      : engine_(engine), tracer_(tracer), counts_(counts) {}

  Status Write(const std::string& sql) override {
    tracer_->set_txn(tracer_->txn() + 1);
    sopr::exec::ExecStatsSnapshot exec_before = sopr::exec::SnapshotStats();
    Status st = Transaction(sql);
    counts_->exec += sopr::exec::SnapshotStats() - exec_before;
    if (!st.ok()) {
      if (engine_->in_transaction()) (void)engine_->Rollback();
      ++stats_.write_failed;
      return st;
    }
    ++counts_->txns;
    ++stats_.commits;
    return st;
  }

  Result<QueryResult> Read(const std::string& sql) override {
    auto r = engine_->Query(sql);
    r.ok() ? ++stats_.reads : ++stats_.read_failed;
    return r;
  }
  Result<QueryResult> CheckQuery(const std::string& sql) override {
    return engine_->Query(sql);
  }
  Status CleanupWrite(const std::string& sql) override {
    return engine_->Execute(sql);
  }

 private:
  Status Transaction(const std::string& sql) {
    Tracer::Scope txn(tracer_, "txn");
    SOPR_RETURN_NOT_OK(engine_->Begin());
    {
      Tracer::Scope block(tracer_, "query.block");
      SOPR_RETURN_NOT_OK(engine_->Run(sql));
    }
    {
      Tracer::Scope process(tracer_, "rules.process");
      SOPR_ASSIGN_OR_RETURN(sopr::ExecutionTrace trace,
                            engine_->ProcessRules());
      counts_->Add(trace);
    }
    Tracer::Scope commit(tracer_, "wal.commit");
    SOPR_ASSIGN_OR_RETURN(sopr::ExecutionTrace trace, engine_->Commit());
    counts_->Add(trace);
    return Status::OK();
  }

  sopr::Engine* engine_;
  Tracer* tracer_;
  RuleCounts* counts_;
};

// --- runs ------------------------------------------------------------------

struct Env {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out_dir;
  std::string commit;
  std::string exe;
};

/// Sub-run `index` of run `seed` draws its own inputs, so that a run
/// covers kSubRuns times as many distinct inputs; the traced replay
/// uses sub-run 0's.
uint64_t SubRunSeed(uint64_t seed, int index) {
  return seed * kSubRuns + static_cast<uint64_t>(index);
}

/// Outcome of one closed-loop run over the wire.
struct WireRun {
  double setup_s = 0;
  std::vector<ConnStats> writers;
  ConnStats reader;
  int64_t wal_bytes = 0;
  ServerProcess::Report server;
  sopr::net::WireStats stats_before, stats_after;
};

/// Runs whole rounds on its own thread until `more(rounds done)` says
/// stop, then records the connection's busy time: the wall time of its
/// rounds minus their untimed checks.
template <typename Round, typename More>
std::thread RoundLoop(Conn* conn, Round round, More more) {
  return std::thread([conn, round, more] {
    Clock::time_point start = Clock::now();
    for (int rounds = 0; rounds == 0 || more(rounds); ++rounds) round(*conn);
    ConnStats& s = conn->stats();
    s.busy = Clock::now() - start - s.off_clock;
  });
}

/// Whole rounds per writer covering `writes` writes over all writers.
int RoundsFor(const Workload& w, int64_t writes) {
  int64_t per_round = w.writers() * w.writes_per_round();
  return static_cast<int>((writes + per_round - 1) / per_round);
}

/// Rounds per writer of a measured run: a fixed count of writes, so that
/// every run reaches the same state, scaled so a run of `seconds` lasts
/// about that long on the reference host, and at least kMinWrites.
int WriterRounds(const Workload& w, int seconds) {
  return RoundsFor(w, std::max<int64_t>(kMinWrites,
                                        static_cast<int64_t>(seconds) *
                                            w.nominal_writes_per_s() *
                                            w.writers()));
}

/// Starts a fresh server with `workers` workers and its WAL in `wal_dir`
/// and loads `workload`'s start state through the wire on the first
/// connection, which it returns. `setup_s` gets the time this took.
std::unique_ptr<sopr::net::Client> StartLoaded(
    const Env& env, const Workload& workload, const std::string& wal_dir,
    int workers, std::unique_ptr<ServerProcess>* server, double* setup_s) {
  const std::vector<std::string> setup = workload.SetupScripts();
  fs::remove_all(wal_dir);
  Clock::time_point start = Clock::now();
  *server = std::make_unique<ServerProcess>(env.exe, wal_dir, workers);
  auto first = Connect((*server)->port(), "writer-0");
  for (const std::string& sql : setup) {
    auto r = first->Execute(sql);
    if (!r.ok()) Die("setup failed: " + r.status().ToString());
  }
  *setup_s = std::chrono::duration<double>(Clock::now() - start).count();
  return first;
}

/// One sub-run: a fresh server, the start state loaded through the wire
/// (timed as setup), `rounds` rounds per writer with the reader running
/// alongside, the final checks, and the server's report.
WireRun RunWire(const Env& env, int index, int rounds, Checker& check) {
  auto workload = MakeWorkload(env.workload, SubRunSeed(env.seed, index));
  const int writers = workload->writers();
  WireRun run;

  const std::string wal_dir = env.out_dir + "/wal-" + std::to_string(index);
  std::unique_ptr<ServerProcess> server;
  auto first = StartLoaded(env, *workload, wal_dir, writers + 1, &server,
                           &run.setup_s);

  const std::string wal_file = wal_dir + "/wal.log";
  std::vector<std::unique_ptr<WireConn>> conns;
  conns.push_back(std::make_unique<WireConn>(std::move(first), wal_file));
  for (int w = 1; w <= writers; ++w) {
    conns.push_back(std::make_unique<WireConn>(
        Connect(server->port(), w < writers ? "writer-" + std::to_string(w)
                                            : "reader"),
        wal_file));
  }
  WireConn* reader = conns.back().get();

  auto stats = conns[0]->client().Stats();
  if (!stats.ok()) Die("stats: " + stats.status().ToString());
  run.stats_before = stats.value();
  const int64_t wal_start = FileSize(wal_file);

  std::atomic<int> writers_left{writers};
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.push_back(RoundLoop(
        conns[w].get(),
        [&, w](Conn& c) { workload->WriterRound(w, c, check); },
        [&](int done) {
          bool more = check.ok() && done < rounds;
          if (!more) writers_left.fetch_sub(1);
          return more;
        }));
  }
  threads.push_back(RoundLoop(
      reader, [&](Conn& c) { workload->ReaderRound(c, check); },
      [&](int) { return writers_left.load() > 0 && check.ok(); }));
  for (std::thread& t : threads) t.join();

  run.wal_bytes = FileSize(wal_file) - wal_start;
  stats = conns[0]->client().Stats();
  if (!stats.ok()) Die("stats: " + stats.status().ToString());
  run.stats_after = stats.value();

  workload->FinalCheck(*conns[0], check);
  for (int w = 0; w < writers; ++w) {
    run.writers.push_back(conns[w]->stats());
    run.wal_bytes -= conns[w]->stats().off_clock_wal_bytes;
  }
  run.reader = reader->stats();
  for (auto& conn : conns) conn->client().Close();
  run.server = server->Stop();
  fs::remove_all(wal_dir);
  return run;
}

/// Replay rounds: at least kReplayWrites writes and kReplayRounds
/// rounds, an even number so the two session replays trace equally many.
int ReplayRounds(const Workload& w) {
  int rounds = std::max(kReplayRounds, RoundsFor(w, kReplayWrites));
  return rounds + rounds % 2;
}

/// Sends each write over the wire and runs it on an in-process Session
/// of a second engine kept in the same state, one after the other, and
/// records the round trip minus Session::Execute of that same script:
/// both sides see the same script, the same database state and the same
/// moment's host load.
class PairedConn : public Conn {
 public:
  PairedConn(WireConn* wire, sopr::server::Session* session)
      : wire_(wire), session_(session) {}
  const std::vector<double>& overhead_us() const { return overhead_us_; }

  Status Write(const std::string& sql) override {
    Status st = wire_->Write(sql);
    Clock::time_point start = Clock::now();
    Status local = session_->Execute(sql);
    double execute_us = Micros(Clock::now() - start);
    if (!st.ok() || !local.ok()) {
      ++stats_.write_failed;
      return st.ok() ? local : st;
    }
    ++stats_.commits;
    overhead_us_.push_back(wire_->stats().write_us.back() - execute_us);
    return st;
  }
  Result<QueryResult> Read(const std::string& sql) override {
    return wire_->Read(sql);
  }
  Result<QueryResult> CheckQuery(const std::string& sql) override {
    return wire_->CheckQuery(sql);
  }
  Status CleanupWrite(const std::string& sql) override {
    Status local = session_->Execute(sql);
    Status st = wire_->CleanupWrite(sql);
    return st.ok() ? local : st;
  }

 private:
  WireConn* wire_;
  sopr::server::Session* session_;
  std::vector<double> overhead_us_;
};

/// The replay's write rounds through a PairedConn: over one connection to
/// a fresh server with one worker and no reader, and on one Session of a
/// fresh in-process engine. Returns the writes' counts and overheads.
ConnStats PairedWrites(const Env& env, Checker& check,
                       std::vector<double>* overhead_us) {
  auto workload = MakeWorkload(env.workload, SubRunSeed(env.seed, 0));
  const std::string wal_dir = env.out_dir + "/wal-paired";
  const std::string local_wal_dir = env.out_dir + "/replay-paired";
  std::unique_ptr<ServerProcess> server;
  double setup_s = 0;
  WireConn wire(StartLoaded(env, *workload, wal_dir, 1, &server, &setup_s),
                wal_dir + "/wal.log");
  fs::remove_all(local_wal_dir);
  ConnStats stats;
  {
    auto manager =
        sopr::server::SessionManager::Open(EngineOptions(local_wal_dir));
    if (!manager.ok()) Die("paired open: " + manager.status().ToString());
    auto session = manager.value()->CreateSession();
    if (!session.ok()) Die("paired session: " + session.status().ToString());
    for (const std::string& sql : workload->SetupScripts()) {
      Status st = session.value()->Execute(sql);
      if (!st.ok()) Die("paired setup: " + st.ToString());
    }
    PairedConn conn(&wire, session.value());
    for (int round = 0; round < ReplayRounds(*workload); ++round) {
      for (int w = 0; w < workload->writers(); ++w) {
        workload->WriterRound(w, conn, check);
      }
    }
    *overhead_us = conn.overhead_us();
    stats = conn.stats();
  }
  wire.client().Close();
  server->Stop();
  fs::remove_all(wal_dir);
  fs::remove_all(local_wal_dir);
  return stats;
}

/// A fresh engine behind a SessionManager, loaded with sub-run 0's
/// start state and driven single-threaded through server::Session.
class SessionReplay {
 public:
  SessionReplay(const Env& env, const std::string& tag)
      : workload_(MakeWorkload(env.workload, SubRunSeed(env.seed, 0))),
        wal_dir_(env.out_dir + "/replay-" + tag) {
    fs::remove_all(wal_dir_);
    auto manager = sopr::server::SessionManager::Open(EngineOptions(wal_dir_));
    if (!manager.ok()) Die("replay open: " + manager.status().ToString());
    manager_ = std::move(manager).value();
    for (int i = 0; i <= workload_->writers(); ++i) {
      auto session = manager_->CreateSession();
      if (!session.ok()) Die("replay session: " + session.status().ToString());
      conns_.push_back(std::make_unique<SessionConn>(session.value()));
    }
    for (const std::string& sql : workload_->SetupScripts()) {
      Status st = conns_[0]->CleanupWrite(sql);
      if (!st.ok()) Die("replay setup: " + st.ToString());
    }
  }
  ~SessionReplay() {
    conns_.clear();
    manager_.reset();
    fs::remove_all(wal_dir_);
  }
  SessionReplay(const SessionReplay&) = delete;
  SessionReplay& operator=(const SessionReplay&) = delete;

  /// One replay round, recorded by `tracer`: every writer's round, then
  /// one reader round. Returns its time in seconds.
  double Round(Tracer* tracer, Checker& check) {
    for (const auto& c : conns_) c->set_tracer(tracer);
    Clock::time_point start = Clock::now();
    for (int w = 0; w < workload_->writers(); ++w) {
      workload_->WriterRound(w, *conns_[w], check);
    }
    workload_->ReaderRound(*conns_.back(), check);
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  void AddTotals(ConnStats* totals) const {
    for (const auto& c : conns_) {
      totals->commits += c->stats().commits;
      totals->write_failed += c->stats().write_failed;
      totals->reads += c->stats().reads;
      totals->read_failed += c->stats().read_failed;
    }
  }

 private:
  std::unique_ptr<Workload> workload_;
  std::string wal_dir_;
  std::unique_ptr<sopr::server::SessionManager> manager_;
  std::vector<std::unique_ptr<SessionConn>> conns_;
};

/// Engine-layer replay: spans and rule/exec counters.
void ReplayEngine(const Env& env, Tracer* tracer, RuleCounts* counts,
                  Checker& check, ConnStats* totals) {
  auto workload = MakeWorkload(env.workload, SubRunSeed(env.seed, 0));
  std::string wal_dir = env.out_dir + "/replay-engine";
  fs::remove_all(wal_dir);
  {
    auto engine = sopr::Engine::Open(EngineOptions(wal_dir));
    if (!engine.ok()) Die("replay open: " + engine.status().ToString());
    EngineConn conn(engine.value().get(), tracer, counts);
    for (const std::string& sql : workload->SetupScripts()) {
      Status st = conn.CleanupWrite(sql);
      if (!st.ok()) Die("replay setup: " + st.ToString());
    }
    for (int round = 0; round < ReplayRounds(*workload); ++round) {
      for (int w = 0; w < workload->writers(); ++w) {
        workload->WriterRound(w, conn, check);
      }
      workload->ReaderRound(conn, check);
    }
    totals->commits += conn.stats().commits;
    totals->write_failed += conn.stats().write_failed;
    totals->reads += conn.stats().reads;
    totals->read_failed += conn.stats().read_failed;
  }
  fs::remove_all(wal_dir);
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += Json(metrics[i].name) + ": {\"value\": " + Number(metrics[i].value) +
         ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  return s + "}}";
}

double PerSecond(uint64_t ops, Clock::duration busy) {
  return static_cast<double>(ops) / std::chrono::duration<double>(busy).count();
}

/// One sub-run's end-to-end figures: each writer's committed writes over
/// its busy time, summed over writers; the reader's reads over its busy
/// time; latency percentiles over all of the sub-run's samples; WAL bytes
/// of the timed phase per committed write.
std::vector<Metric> SubRunMetrics(const WireRun& run) {
  double txn_per_s = 0;
  uint64_t commits = 0;
  std::vector<double> write_us;
  for (const ConnStats& s : run.writers) {
    txn_per_s += PerSecond(s.commits, s.busy);
    commits += s.commits;
    write_us.insert(write_us.end(), s.write_us.begin(), s.write_us.end());
  }
  std::vector<double> read_us = run.reader.read_us;
  return {
      {"txn_per_s", txn_per_s, "1/s"},
      {"txn_p50_ms", Quantile(write_us, 0.5) / 1000, "ms"},
      {"txn_p90_ms", Quantile(write_us, 0.9) / 1000, "ms"},
      {"read_per_s", PerSecond(run.reader.reads, run.reader.busy), "1/s"},
      {"read_p50_ms", Quantile(read_us, 0.5) / 1000, "ms"},
      {"read_p90_ms", Quantile(read_us, 0.9) / 1000, "ms"},
      {"setup_s", run.setup_s, "s"},
      {"peak_rss_mb", static_cast<double>(run.server.peak_rss_kb) / 1024, "MB"},
      {"wal_bytes_per_txn",
       static_cast<double>(run.wal_bytes) / static_cast<double>(commits), "B"},
  };
}

/// The run's end-to-end figures: each metric's median over the sub-runs.
/// Eight servers absorb a slow period of the host; within a sub-run every
/// operation counts, so a stall that hits one write in hundreds still
/// lowers the rate and raises the tail.
std::vector<Metric> EndToEnd(const std::vector<WireRun>& runs) {
  std::vector<std::vector<Metric>> per_run;
  for (const WireRun& run : runs) per_run.push_back(SubRunMetrics(run));
  std::vector<Metric> out = per_run.front();
  for (size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& metrics : per_run) values.push_back(metrics[m].value);
    out[m].value = Median(values);
  }
  return out;
}

void WriteSpans(const char* replay, const Tracer& tracer, std::ofstream& out) {
  for (const Span& s : tracer.spans()) {
    out << "{\"replay\": \"" << replay << "\", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"txn\": " << s.txn << "}\n";
  }
}

int Load(const std::map<std::string, std::string>& flags) {
  Env env;
  env.workload = Flag(flags, "workload");
  env.seed = std::stoull(Flag(flags, "seed"));
  env.seconds = std::stoi(Flag(flags, "seconds"));
  env.trace = Flag(flags, "trace") == "1";
  env.out_dir = Flag(flags, "out");
  env.commit = Flag(flags, "commit", "unknown");
  env.exe = fs::read_symlink("/proc/self/exe").string();
  if (!kOptimized) {
    Die("refusing to report from an unoptimized build (build type " +
        std::string(PERFBENCH_BUILD_TYPE) + ")");
  }
  auto workload = MakeWorkload(env.workload, env.seed);
  if (!workload) Die("unknown workload " + env.workload);
  ::signal(SIGPIPE, SIG_IGN);
  fs::create_directories(env.out_dir);
  const std::string cpus = PinToCpus(workload->cpus());

  Checker check;
  // A measured run is kSubRuns sub-runs, each on its own server doing an
  // equal share of the run's writes; the traced run makes the first one.
  const int subruns = env.trace ? 1 : kSubRuns;
  const int rounds = (WriterRounds(*workload, env.seconds) + kSubRuns - 1) /
                     kSubRuns;
  std::vector<WireRun> runs;
  for (int i = 0; i < subruns && check.ok(); ++i) {
    runs.push_back(RunWire(env, i, rounds, check));
  }
  uint64_t attempted = 0, failed = 0, commits = 0, reads = 0;
  for (const WireRun& run : runs) {
    attempted += run.reader.reads + run.reader.read_failed;
    failed += run.reader.read_failed;
    reads += run.reader.reads;
    for (const ConnStats& s : run.writers) {
      attempted += s.commits + s.write_failed;
      failed += s.write_failed;
      commits += s.commits;
    }
  }
  const WireRun& run = runs.front();

  std::vector<Metric> metrics;
  std::string tag = env.workload + "-" + std::to_string(env.seed) + "-trace" +
                    (env.trace ? "1" : "0");
  if (!env.trace) {
    metrics = EndToEnd(runs);
  } else {
    // Tracing overhead: two engines replay the same inputs round by
    // round, each tracing alternate rounds, so that engine layout,
    // warm-up and host noise fall on traced and untraced time alike.
    ConnStats totals;
    Tracer untraced(false), sessions(true), engine(true);
    double untraced_s = 0, traced_s = 0;
    {
      SessionReplay first(env, "a"), second(env, "b");
      for (int r = 0; r < ReplayRounds(*workload); ++r) {
        bool even = r % 2 == 0;
        double a = first.Round(even ? &sessions : &untraced, check);
        double b = second.Round(even ? &untraced : &sessions, check);
        traced_s += even ? a : b;
        untraced_s += even ? b : a;
      }
      first.AddTotals(&totals);
      second.AddTotals(&totals);
    }
    RuleCounts counts;
    ReplayEngine(env, &engine, &counts, check, &totals);
    std::vector<double> overhead;
    ConnStats paired = PairedWrites(env, check, &overhead);
    attempted += totals.commits + totals.write_failed + totals.reads +
                 totals.read_failed + paired.commits + paired.write_failed;
    failed += totals.write_failed + totals.read_failed + paired.write_failed;

    std::ofstream spans(env.out_dir + "/spans-" + tag + ".jsonl");
    WriteSpans("session", sessions, spans);
    WriteSpans("engine", engine, spans);

    auto med = [](const Tracer& t, const char* name) {
      return Median(t.SelfMicros(name));
    };
    const auto& gb = run.stats_before.group_commit;
    const auto& ga = run.stats_after.group_commit;
    double cohorts = static_cast<double>(ga.cohorts - gb.cohorts);
    double batches = static_cast<double>(ga.batches - gb.batches);
    double txns = static_cast<double>(std::max<uint64_t>(counts.txns, 1));
    const auto& e = counts.exec;
    double rules = workload->rules_defined();
    metrics = {
        {"sql.parse_us", med(sessions, "sql.parse"), "us"},
        {"net.overhead_us", Median(overhead), "us"},
        {"server.execute_us", med(sessions, "server.execute"), "us"},
        {"server.query_us", med(sessions, "server.query"), "us"},
        {"storage.versions_retained",
         static_cast<double>(run.server.versions), "count"},
        {"query.block_us", med(engine, "query.block"), "us"},
        {"rules.process_us", med(engine, "rules.process"), "us"},
        {"rules.considerations_per_txn", counts.considerations / txns,
         "count"},
        {"rules.firings_per_txn", counts.firings / txns, "count"},
        {"rules.transition_rows_per_txn", counts.transition_rows / txns,
         "count"},
        {"rules.transinfo_updates_per_txn",
         (txns + static_cast<double>(counts.firings)) * rules / txns,
         "count"},
        {"wal.commit_us", med(engine, "wal.commit"), "us"},
        {"wal.mean_cohort", cohorts > 0 ? batches / cohorts : 0, "count"},
        {"wal.cohorts_per_txn",
         cohorts / static_cast<double>(std::max<uint64_t>(commits, 1)),
         "count"},
        {"exec.batches_per_txn", e.batches / txns, "count"},
        {"exec.hash_join_builds_per_txn", e.hash_join_builds / txns,
         "count"},
        {"exec.columns_built_per_txn", e.columns_built / txns, "count"},
        {"exec.kernel_calls_per_txn",
         (e.kernel_compare + e.kernel_arith + e.kernel_null_check +
          e.kernel_membership + e.kernel_logical) /
             txns,
         "count"},
        {"exec.scalar_fallbacks_per_txn", e.scalar_fallbacks / txns,
         "count"},
        {"exec.pointer_fallback_preds_per_txn",
         e.pointer_fallback_preds / txns, "count"},
        {"trace.overhead_pct", (traced_s - untraced_s) / untraced_s * 100,
         "%"},
    };
  }

  unsigned nproc = std::thread::hardware_concurrency();
  std::string env_json =
      "{\"workload\": " + Json(env.workload) +
      ", \"seed\": " + std::to_string(env.seed) +
      ", \"seconds\": " + std::to_string(env.seconds) +
      ", \"trace\": " + (env.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(nproc) +
      ", \"cpus\": " + Json(cpus) +
      ", \"build_type\": " + Json(PERFBENCH_BUILD_TYPE) +
      ", \"commit\": " + Json(env.commit) +
      ", \"writes\": " + std::to_string(commits) +
      ", \"reads\": " + std::to_string(reads) +
      ", \"versions_retained\": " + std::to_string(run.server.versions) + "}";
  if (!check.ok()) std::cerr << "perfbench: INCORRECT: " << check.first() << "\n";
  std::string result = ResultJson(check.ok(), attempted, failed, metrics);
  // Per sub-run figures, for judging where a run's spread comes from.
  std::string subrun_json;
  for (const WireRun& r : runs) {
    std::vector<Metric> m = SubRunMetrics(r);
    subrun_json += std::string(subrun_json.empty() ? "" : ", ") +
                   ResultJson(true, 0, 0, m);
  }
  std::ofstream(env.out_dir + "/result-" + tag + ".json")
      << "{\"env\": " << env_json << ", \"result\": " << result
      << ", \"sub_runs\": [" << subrun_json << "]}\n";
  std::cout << "env " << env_json << "\n" << result << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string mode = argc > 1 ? argv[1] : "";
  auto flags = perfbench::ParseFlags(argc, argv);
  if (mode == "serve") return perfbench::Serve(flags);
  if (mode == "load") return perfbench::Load(flags);
  std::cerr << "usage: perfbench serve|load --flag value ...\n";
  return 2;
}
