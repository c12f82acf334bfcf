// Failover litmus (docs/REPLICATION.md): kill a primary mid-cohort at
// every cataloged wal.* crash site, bootstrap a follower from its WAL
// directory, and require the follower's replayed state to equal the
// committed-prefix oracle bit for bit (Engine::StateChecksum — the same
// oracle discipline as the crash-recovery harness). Then promote the
// follower, prove the promoted engine fires rules and appends durable
// commits (a fresh Engine::Open recovers the post-promotion state), and
// chaos the follower's own repl.* sites.
//
// Also covers the live-primary path in-process: a follower tailing a
// primary under write load serves monotone snapshot reads, reports a lag
// bound, refuses writes with kReadOnlyReplica, and survives checkpoint
// rotations (re-bootstrap) without breaking pinned sessions.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "engine/engine.h"
#include "replication/follower.h"
#include "test_util.h"
#include "wal/wal_writer.h"

namespace sopr {
namespace {

using replication::Follower;
using replication::FollowerOptions;
using replication::LagBound;
using replication::PollResult;

constexpr int kTxns = 12;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sopr_failover_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

RuleEngineOptions DurableOptions(const std::string& dir) {
  RuleEngineOptions options;
  options.wal_dir = dir;
  options.wal_checkpoint_interval = 5;  // rotations happen mid-workload
  return options;
}

/// Tight backoff so a litmus run spends microseconds, not wall-clock,
/// inside retry loops; bounded so a dead primary's torn tail surfaces as
/// kUnavailable instead of hanging CatchUp.
FollowerOptions MakeFollowerOptions(const std::string& dir) {
  FollowerOptions options;
  options.engine = DurableOptions(dir);
  options.retry.initial_delay = std::chrono::microseconds(50);
  options.retry.max_delay = std::chrono::microseconds(500);
  options.retry.max_attempts = 8;
  return options;
}

// Same deterministic workload as the crash-recovery harness: marker row
// per transaction, a rule that must never re-fire during replay, and all
// three redo record types on the log.
const std::vector<std::string>& WorkloadDdl() {
  static const std::vector<std::string>* ddl = new std::vector<std::string>{
      "create table committed_log (seq int)",
      "create table t (a int)",
      "create table audit (n int)",
      "create index on t (a)",
      "create rule audit_rule when inserted into t "
      "then insert into audit (select count(*) from inserted t)",
  };
  return *ddl;
}

Status RunTxn(Engine* engine, int i) {
  std::string block =
      "insert into committed_log values (" + std::to_string(i) + "); " +
      "insert into t values (" + std::to_string(i) + "); " +
      "insert into t values (" + std::to_string(i + 1000) + ")";
  if (i % 3 == 2) {
    block += "; update t set a = a + 10000 where a = " + std::to_string(i - 1);
    block += "; delete from t where a = " + std::to_string(i + 999);
  }
  return engine->Execute(block);
}

struct Oracle {
  std::vector<uint64_t> ddl_prefix;  // [j] = first j DDL statements
  std::vector<uint64_t> after_txn;   // [k] = full DDL + k transactions
};

const Oracle& GetOracle() {
  static const Oracle* oracle = [] {
    auto* o = new Oracle();
    Engine engine;
    o->ddl_prefix.push_back(engine.StateChecksum());
    for (const std::string& ddl : WorkloadDdl()) {
      Status s = engine.Execute(ddl);
      if (!s.ok()) ADD_FAILURE() << "oracle DDL failed: " << s;
      o->ddl_prefix.push_back(engine.StateChecksum());
    }
    o->after_txn.push_back(engine.StateChecksum());
    for (int i = 0; i <= kTxns; ++i) {
      Status s = RunTxn(&engine, i);
      if (!s.ok()) ADD_FAILURE() << "oracle txn " << i << " failed: " << s;
      o->after_txn.push_back(engine.StateChecksum());
    }
    return o;
  }();
  return *oracle;
}

/// Primary child: arm one @Crash trigger, run the workload. Exit 0 =
/// trigger never fired, kFailpointCrashExitCode = killed mid-flight,
/// 43 = harness bug.
[[noreturn]] void ChildPrimary(const std::string& dir,
                               const std::string& site, uint64_t nth) {
  FailpointRegistry::Trigger trigger;
  trigger.mode = FailpointRegistry::Mode::kNth;
  trigger.n = nth;
  trigger.crash = true;
  FailpointRegistry::Instance().Arm(site, trigger);

  auto engine = Engine::Open(DurableOptions(dir));
  if (!engine.ok()) std::_Exit(43);
  for (const std::string& ddl : WorkloadDdl()) {
    if (!engine.value()->Execute(ddl).ok()) std::_Exit(43);
  }
  for (int i = 0; i < kTxns; ++i) {
    if (!RunTxn(engine.value().get(), i).ok()) std::_Exit(43);
  }
  std::_Exit(0);
}

/// Follower child for repl.* chaos: arm one @Crash trigger, then do a
/// full failover (bootstrap, catch up, promote, one write). The promote
/// path must leave the directory recoverable no matter where it dies.
[[noreturn]] void ChildFailover(const std::string& dir,
                                const std::string& site, uint64_t nth) {
  FailpointRegistry::Trigger trigger;
  trigger.mode = FailpointRegistry::Mode::kNth;
  trigger.n = nth;
  trigger.crash = true;
  FailpointRegistry::Instance().Arm(site, trigger);

  auto follower = Follower::Open(MakeFollowerOptions(dir));
  if (!follower.ok()) std::_Exit(43);
  Status caught = follower.value()->CatchUp();
  if (!caught.ok() && caught.code() != StatusCode::kUnavailable) {
    std::_Exit(43);
  }
  auto promoted = follower.value()->Promote();
  if (!promoted.ok()) std::_Exit(43);
  auto count = QueryScalar(promoted.value().get(),
                           "select count(*) from committed_log");
  if (!RunTxn(promoted.value().get(), static_cast<int>(count.AsInt()))
           .ok()) {
    std::_Exit(43);
  }
  std::_Exit(0);
}

template <typename Body>
int ForkChild(Body body) {
  ::pid_t pid = ::fork();
  EXPECT_NE(pid, -1);
  if (pid == 0) body();  // never returns
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status)
                                                         : 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The litmus core: bootstrap a follower on the dead primary's
/// directory, catch up, and compare bit-exactly against the oracle; then
/// promote and prove the promoted engine is a working, durable primary.
void VerifyFailover(const std::string& dir, bool primary_completed,
                    const std::string& context) {
  SCOPED_TRACE(context);
  const Oracle& oracle = GetOracle();

  auto opened = Follower::Open(MakeFollowerOptions(dir));
  ASSERT_TRUE(opened.ok()) << "follower bootstrap failed: "
                           << opened.status();
  std::unique_ptr<Follower> follower = std::move(opened).value();
  Status caught = follower->CatchUp();
  // A torn tail left by the kill never completes: CatchUp reports the
  // degradation as kUnavailable while reads stay consistent. Everything
  // else must catch up cleanly.
  ASSERT_TRUE(caught.ok() || caught.code() == StatusCode::kUnavailable)
      << caught;

  const uint64_t replayed = follower->StateChecksum();

  // Crash inside setup: some strict DDL prefix committed. committed_log
  // is the FIRST DDL statement, so the marker table existing does not
  // imply the schema is complete — compare against the prefix oracle
  // before trusting the marker count (the full prefix equals
  // after_txn[0] and falls through to the k-branch below).
  auto marker = follower->Query("select count(*) from committed_log");
  const auto strict_ddl_end = std::prev(oracle.ddl_prefix.end());
  const bool mid_ddl =
      !marker.ok() || std::find(oracle.ddl_prefix.begin(), strict_ddl_end,
                                replayed) != strict_ddl_end;
  if (mid_ddl) {
    EXPECT_FALSE(primary_completed);
    EXPECT_NE(std::find(oracle.ddl_prefix.begin(), oracle.ddl_prefix.end(),
                        replayed),
              oracle.ddl_prefix.end())
        << "follower state matches no DDL prefix";
  } else {
    ASSERT_EQ(marker.value().rows.size(), 1u);
    const int k = static_cast<int>(marker.value().rows[0].at(0).AsInt());
    ASSERT_GE(k, 0);
    ASSERT_LE(k, kTxns);
    if (primary_completed) {
      EXPECT_EQ(k, kTxns);
    }
    EXPECT_EQ(replayed, oracle.after_txn[k])
        << "follower replay is not the committed prefix (k=" << k << ")";

    // The follower is read-only until promoted.
    Status refused = follower->Execute("insert into t values (777777)");
    EXPECT_EQ(refused.code(), StatusCode::kReadOnlyReplica) << refused;

    // Promote: take the dead primary's lock, drop its torn tail, attach
    // a writer. The promoted engine must fire the recovered rules on the
    // next transaction and land exactly on the next oracle state.
    auto promoted = follower->Promote();
    ASSERT_TRUE(promoted.ok()) << "promotion failed: " << promoted.status();
    std::unique_ptr<Engine> engine = std::move(promoted).value();
    EXPECT_TRUE(engine->durable());
    EXPECT_OK(engine->CheckInvariants());
    EXPECT_EQ(engine->StateChecksum(), oracle.after_txn[k]);
    ASSERT_OK(RunTxn(engine.get(), k));
    EXPECT_EQ(engine->StateChecksum(), oracle.after_txn[k + 1])
        << "promoted engine did not fire rules correctly (k=" << k << ")";
    engine.reset();  // close the log, release the lock

    // The promoted commit is durable: a cold Engine::Open recovers it.
    auto reopened = Engine::Open(DurableOptions(dir));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened.value()->StateChecksum(), oracle.after_txn[k + 1])
        << "promoted engine's commit did not survive restart (k=" << k
        << ")";
  }
}

class FailoverTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Instance().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  void RunKillPoint(const std::string& site, uint64_t nth) {
    std::string dir = MakeTempDir();
    int code = ForkChild([&] { ChildPrimary(dir, site, nth); });
    ASSERT_TRUE(code == 0 || code == kFailpointCrashExitCode)
        << site << " nth=" << nth << " exited " << code;
    VerifyFailover(dir, code == 0, site + " nth=" + std::to_string(nth));
  }
};

TEST_F(FailoverTest, CompletedPrimaryFailsOverToTheFullOracle) {
  RunKillPoint("no.such.site", 1);
}

TEST_F(FailoverTest, KillPrimaryMidCohortAtEveryCatalogedWalSite) {
  int attacked = 0;
  for (const std::string& site : FailpointRegistry::KnownSites()) {
    if (site.rfind("wal.", 0) != 0) continue;
    ++attacked;
    for (uint64_t nth : {uint64_t{1}, uint64_t{7}}) {
      RunKillPoint(site, nth);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GE(attacked, 15);
}

TEST_F(FailoverTest, TornTailMidBatchIsDroppedAtPromotion) {
  // wal.write.mid leaves a genuinely torn commit batch on disk: the
  // follower must classify it retryable (not corruption), degrade with a
  // reported lag bound, and promotion must truncate it exactly like
  // primary recovery would.
  std::string dir = MakeTempDir();
  int code = ForkChild([&] { ChildPrimary(dir, "wal.write.mid", 8); });
  ASSERT_EQ(code, kFailpointCrashExitCode);

  auto opened = Follower::Open(MakeFollowerOptions(dir));
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::unique_ptr<Follower> follower = std::move(opened).value();
  Status caught = follower->CatchUp();
  ASSERT_EQ(caught.code(), StatusCode::kUnavailable) << caught;
  LagBound lag = follower->Lag();
  EXPECT_GT(lag.lag_bytes, 0u) << "torn tail must be reported as lag";
  EXPECT_GT(lag.replayed_lsn, 0u);

  VerifyFailover(dir, false, "torn tail at failover");
}

TEST_F(FailoverTest, EveryReplFailpointCrashLeavesDirectoryRecoverable) {
  // Chaos on the follower's own sites: die at each repl.* site during a
  // full failover, then require a cold Engine::Open to land on SOME
  // oracle state — the follower/promotion path must never corrupt the
  // directory, no matter where it stops.
  const Oracle& oracle = GetOracle();
  std::string dir = MakeTempDir();
  int code = ForkChild([&] { ChildPrimary(dir, "wal.commit.sync", 5); });
  ASSERT_EQ(code, kFailpointCrashExitCode);

  int attacked = 0;
  bool oracle_exhausted = false;
  for (const std::string& site : FailpointRegistry::KnownSites()) {
    if (site.rfind("repl.", 0) != 0) continue;
    if (oracle_exhausted) break;
    ++attacked;
    for (uint64_t nth : {uint64_t{1}, uint64_t{2}}) {
      SCOPED_TRACE(site + " nth=" + std::to_string(nth));
      code = ForkChild([&] { ChildFailover(dir, site, nth); });
      ASSERT_TRUE(code == 0 || code == kFailpointCrashExitCode)
          << site << " exited " << code;
      auto reopened = Engine::Open(DurableOptions(dir));
      ASSERT_TRUE(reopened.ok())
          << "directory unrecoverable after crash at " << site << ": "
          << reopened.status();
      EXPECT_OK(reopened.value()->CheckInvariants());
      const uint64_t recovered = reopened.value()->StateChecksum();
      EXPECT_NE(std::find(oracle.after_txn.begin(), oracle.after_txn.end(),
                          recovered),
                oracle.after_txn.end())
          << "recovered state matches no committed prefix after " << site;
      // A completed child appended one transaction; keep the directory's
      // committed_log count for the next iteration's oracle lookup (the
      // oracle covers kTxns + 1 transactions, so at most a few completed
      // failovers fit — nth kills keep most children short of the end).
      if (reopened.value()->TableSize("committed_log").ok() &&
          reopened.value()->TableSize("committed_log").value() >
              static_cast<size_t>(kTxns)) {
        oracle_exhausted = true;  // no oracle entry past kTxns + 1
        break;
      }
    }
  }
  EXPECT_GE(attacked, 6);
}

TEST_F(FailoverTest, FollowerTailsALivePrimaryInProcess) {
  // Live-tailing path: primary and follower share the process (the
  // follower never takes the DirLock, so both can run). The follower
  // must deliver monotone snapshot reads, a truthful lag bound, and
  // survive checkpoint rotations happening under it.
  std::string dir = MakeTempDir();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> primary,
                       Engine::Open(DurableOptions(dir)));
  for (const std::string& ddl : WorkloadDdl()) {
    ASSERT_OK(primary->Execute(ddl));
  }

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Follower> follower,
                       Follower::Open(MakeFollowerOptions(dir)));
  ASSERT_OK(follower->CatchUp());
  EXPECT_EQ(follower->StateChecksum(), primary->StateChecksum());

  uint64_t last_seen_lsn = 0;
  int last_count = -1;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_OK(RunTxn(primary.get(), i));
    // Pin BEFORE catching up: the snapshot must stay consistent even as
    // replay advances under it.
    Follower::Snapshot pinned = follower->PinSnapshot();
    ASSERT_OK(follower->CatchUp());

    LagBound lag = follower->Lag();
    EXPECT_TRUE(lag.primary_reachable);
    EXPECT_EQ(lag.lag_bytes, 0u) << "caught up must mean zero lag";
    EXPECT_GE(lag.replayed_lsn, last_seen_lsn) << "replayed_lsn regressed";
    last_seen_lsn = lag.replayed_lsn;

    // Fresh snapshot read sees exactly i+1 committed markers; the pinned
    // (pre-catch-up) snapshot sees a count that never regresses.
    ASSERT_OK_AND_ASSIGN(QueryResult fresh, follower->Query(
        "select count(*) from committed_log"));
    EXPECT_EQ(static_cast<int>(fresh.rows[0].at(0).AsInt()), i + 1);
    ASSERT_OK_AND_ASSIGN(QueryResult stale, follower->QueryAt(
        pinned, "select count(*) from committed_log"));
    const int stale_count = static_cast<int>(stale.rows[0].at(0).AsInt());
    EXPECT_GE(stale_count, last_count);
    EXPECT_LE(stale_count, i + 1);
    last_count = stale_count;

    // Writes and DDL are refused no matter how they arrive.
    EXPECT_EQ(follower->Execute("insert into t values (888888)").code(),
              StatusCode::kReadOnlyReplica);
    EXPECT_EQ(follower->Execute("create table nope (x int)").code(),
              StatusCode::kReadOnlyReplica);
  }
  // The workload crossed the checkpoint interval several times, so the
  // follower necessarily handled at least one rotation to stay exact.
  EXPECT_EQ(follower->StateChecksum(), primary->StateChecksum());
  EXPECT_EQ(follower->StateChecksum(), GetOracle().after_txn[kTxns]);
}

TEST_F(FailoverTest, PinnedSnapshotSurvivesRotationRebootstrap) {
  // Pin a snapshot, force the primary through a checkpoint rotation that
  // makes the follower re-bootstrap, and require the old pinned session
  // to keep answering from its stale-but-consistent generation.
  std::string dir = MakeTempDir();
  RuleEngineOptions primary_options = DurableOptions(dir);
  primary_options.wal_checkpoint_interval = 2;  // rotate aggressively
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> primary,
                       Engine::Open(primary_options));
  for (const std::string& ddl : WorkloadDdl()) {
    ASSERT_OK(primary->Execute(ddl));
  }
  ASSERT_OK(RunTxn(primary.get(), 0));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Follower> follower,
                       Follower::Open(MakeFollowerOptions(dir)));
  ASSERT_OK(follower->CatchUp());
  Follower::Snapshot pinned = follower->PinSnapshot();

  // Several checkpoints pass without the follower polling: by the time
  // it looks again, the prefix it was tailing lives only in the
  // snapshot, forcing the rotation/re-bootstrap path.
  for (int i = 1; i < 7; ++i) ASSERT_OK(RunTxn(primary.get(), i));
  ASSERT_OK(follower->CatchUp());
  EXPECT_EQ(follower->StateChecksum(), primary->StateChecksum());

  // The pre-rotation pin still answers, with its old consistent count.
  ASSERT_OK_AND_ASSIGN(QueryResult stale, follower->QueryAt(
      pinned, "select count(*) from committed_log"));
  EXPECT_EQ(static_cast<int>(stale.rows[0].at(0).AsInt()), 1);
  ASSERT_OK_AND_ASSIGN(QueryResult fresh, follower->Query(
      "select count(*) from committed_log"));
  EXPECT_EQ(static_cast<int>(fresh.rows[0].at(0).AsInt()), 7);
}

TEST_F(FailoverTest, ConcurrentSnapshotReadersDuringReplay) {
  // The TSan target: reader threads hammer snapshot reads while the main
  // thread alternates primary commits with follower replay. Readers must
  // never block replay, never error, and never observe a count going
  // backwards (monotone replayed_lsn) or a torn transaction (the marker
  // and its rule-generated audit row commit together).
  std::string dir = MakeTempDir();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> primary,
                       Engine::Open(DurableOptions(dir)));
  for (const std::string& ddl : WorkloadDdl()) {
    ASSERT_OK(primary->Execute(ddl));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Follower> follower,
                       Follower::Open(MakeFollowerOptions(dir)));
  ASSERT_OK(follower->CatchUp());

  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      int64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto audits = follower->Query("select count(*) from audit");
        auto markers =
            follower->Query("select count(*) from committed_log");
        if (!markers.ok() || markers.value().rows.size() != 1) {
          reader_failures.fetch_add(1);
          return;
        }
        const int64_t n = markers.value().rows[0].at(0).AsInt();
        if (n < last) {
          reader_failures.fetch_add(1);
          return;
        }
        last = n;
        if (!audits.ok()) {
          reader_failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_OK(RunTxn(primary.get(), i));
    ASSERT_OK(follower->CatchUp());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_EQ(follower->StateChecksum(), primary->StateChecksum());
}

TEST_F(FailoverTest, PromotionFencesAgainstALivePrimary) {
  std::string dir = MakeTempDir();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> primary,
                       Engine::Open(DurableOptions(dir)));
  ASSERT_OK(primary->Execute("create table t (a int)"));
  ASSERT_OK(primary->Execute("insert into t values (1)"));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Follower> follower,
                       Follower::Open(MakeFollowerOptions(dir)));
  ASSERT_OK(follower->CatchUp());
  // The primary still holds the DirLock: promotion must refuse rather
  // than create a second writer.
  Result<std::unique_ptr<Engine>> promoted = follower->Promote();
  ASSERT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.status().code(), StatusCode::kIoError);

  // The primary dies (releasing the flock); now promotion wins, and a
  // pre-promotion pin is told to move on rather than read freed state.
  Follower::Snapshot pinned = follower->PinSnapshot();
  primary.reset();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       follower->Promote());
  ASSERT_OK(engine->Execute("insert into t values (2)"));
  EXPECT_EQ(follower->QueryAt(pinned, "select count(*) from t")
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(follower->Query("select count(*) from t").status().code(),
            StatusCode::kUnavailable);
  Result<PollResult> poll = follower->PollOnce();
  EXPECT_FALSE(poll.ok());
}

TEST_F(FailoverTest, PromotionReleasesPinsSoTheEngineCanDieFirst) {
  // A snapshot pinned before promotion may be dropped after the promoted
  // engine is destroyed: Promote releases its pin while the registry it
  // points into is still alive, so the late drop touches nothing.
  std::string dir = MakeTempDir();
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> primary,
                         Engine::Open(DurableOptions(dir)));
    ASSERT_OK(primary->Execute("create table t (a int)"));
    ASSERT_OK(primary->Execute("insert into t values (1)"));
  }  // the primary dies, releasing the directory lock

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Follower> follower,
                       Follower::Open(MakeFollowerOptions(dir)));
  ASSERT_OK(follower->CatchUp());
  Follower::Snapshot pinned = follower->PinSnapshot();
  ASSERT_GT(pinned.lsn(), 0u);
  ASSERT_OK_AND_ASSIGN(QueryResult before, follower->QueryAt(
      pinned, "select count(*) from t"));
  EXPECT_EQ(before.rows[0].at(0).AsInt(), 1);

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine, follower->Promote());
  ASSERT_OK(engine->Execute("insert into t values (2)"));
  EXPECT_EQ(follower->QueryAt(pinned, "select count(*) from t")
                .status()
                .code(),
            StatusCode::kUnavailable);
  // A pin taken after promotion is refused the same way.
  Follower::Snapshot late = follower->PinSnapshot();
  EXPECT_EQ(follower->QueryAt(late, "select count(*) from t")
                .status()
                .code(),
            StatusCode::kUnavailable);

  engine.reset();
  pinned = Follower::Snapshot();
  late = Follower::Snapshot();
  follower.reset();
}

}  // namespace
}  // namespace sopr
