// Stall/cancel litmus suite for the overload-protection subsystem
// (docs/OVERLOAD.md): deterministic schedules (blocking failpoints, no
// ordering sleeps) proving that a writer parked MID-TRANSACTION while
// holding record locks can be gotten rid of — by a waiter's lock-wait
// deadline or by a session kill — and that in every case the victim's
// transaction rolls back to the exact pre-state (Database::Checksum
// oracle), its locks are released so waiters proceed, and no wait-for
// edges or version garbage survive. Also here: admission-control
// shedding with reads still served, queue-deadline shedding, statement
// timeouts bounding lock waits, and the per-session in-flight statement
// limit.
//
// Meaningful under -DSOPR_SANITIZE=thread too (overload_tsan_test):
// every schedule is an exact interleaving for TSan to inspect.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/failpoint.h"
#include "concurrency/schedule.h"
#include "engine/engine.h"
#include "server/session_manager.h"
#include "storage/lock_manager.h"
#include "test_util.h"

namespace sopr {
namespace {

using std::chrono::milliseconds;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sopr_overload_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

int64_t ScalarInt(const Result<QueryResult>& result) {
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return -1;
  EXPECT_EQ(result.value().rows.size(), 1u);
  if (result.value().rows.size() != 1) return -1;
  return result.value().rows[0].at(0).AsInt();
}

struct Fixture {
  std::unique_ptr<server::SessionManager> manager;
  server::Session* setup = nullptr;

  explicit Fixture(milliseconds lock_wait_timeout = milliseconds(10000)) {
    FailpointRegistry::Instance().DisarmAll();
    RuleEngineOptions options;
    options.wal_dir = MakeTempDir();
    options.verify_rollback_integrity = true;  // victims leave no garbage
    options.lock_wait_timeout = lock_wait_timeout;
    auto opened = server::SessionManager::Open(options);
    EXPECT_TRUE(opened.ok()) << opened.status();
    if (!opened.ok()) return;
    manager = std::move(opened).value();
    auto created = manager->CreateSession();
    EXPECT_TRUE(created.ok()) << created.status();
    setup = created.value();
    for (const char* sql : {
             "create table accts (id int, bal int)",
             "create index on accts (id)",
             "insert into accts values (1, 100); "
             "insert into accts values (2, 200)",
         }) {
      Status st = setup->Execute(sql);
      EXPECT_TRUE(st.ok()) << sql << " -> " << st;
    }
  }

  Database& db() { return manager->engine().db(); }
  LockManager& locks() { return *db().lock_manager(); }

  /// The no-leftovers oracle every scenario ends with.
  void ExpectClean() {
    EXPECT_EQ(locks().WaitEdgeCount(), 0u) << "orphan wait-for edges";
    ASSERT_OK(manager->engine().CheckInvariants());
    Status fatal = manager->scheduler().fatal();
    ASSERT_OK(fatal);  // the server must stay healthy
  }
};

// --- (a) A waiter's lock deadline times the waiter out -------------------
// T1 parks at rules.commit.pre holding X on row 1 (fixpoint done, commit
// not started). T2, with a short lock-wait timeout, updates the same row:
// it must give up with kLockTimeout, roll back to its EXACT pre-state,
// and leave no wait-for edge. T1, released afterwards, commits untouched.
TEST(OverloadLitmus, WaiterLockTimeoutRollsBackWaiterExactly) {
  Fixture f(milliseconds(50));  // every lock wait bounded at 50ms
  test::Schedule s;
  s.BlockAt("rules.commit.pre");
  ASSERT_OK_AND_ASSIGN(server::Session * t1, f.manager->CreateSession());
  s.Spawn("holder", [&] {
    return t1->Execute("update accts set bal = bal + 1 where id = 1");
  });
  s.WaitBlocked("rules.commit.pre");

  // T1 holds X on row 1. Checksum BEFORE T2 runs is the rollback oracle:
  // T2 must leave the world bit-identical (T1's uncommitted update is
  // part of that world — it stays parked throughout).
  const uint64_t before = f.db().Checksum();
  ASSERT_OK_AND_ASSIGN(server::Session * t2, f.manager->CreateSession());
  Status st = t2->Execute(
      "update accts set bal = bal + 10 where id = 2; "
      "update accts set bal = bal + 10 where id = 1");
  EXPECT_EQ(st.code(), StatusCode::kLockTimeout) << st;
  EXPECT_EQ(f.db().Checksum(), before)
      << "the timed-out waiter must roll back to its exact pre-state "
         "(including its already-applied first statement)";
  EXPECT_EQ(f.locks().WaitEdgeCount(), 0u);
  EXPECT_GE(f.locks().wait_timeouts(), 1u);

  s.Release("rules.commit.pre");
  ASSERT_OK(s.Join("holder"));
  f.ExpectClean();
  EXPECT_EQ(ScalarInt(f.setup->Query(
                "select bal from accts where id = 1")),
            101);
  EXPECT_EQ(ScalarInt(f.setup->Query(
                "select bal from accts where id = 2")),
            200);
}

// --- (b) Session cancel kills the parked holder itself -------------------
// T1 parks at rules.action.pre: its update is applied, X on row 1 held,
// rule processing under way. Cancel() on T1's session from the test
// thread, then release the park: T1 must notice at the next rule-boundary
// check, abort to the exact pre-state, and release its locks so the
// waiting T2 proceeds. A stalled lock HOLDER is killable, not just its
// waiters.
TEST(OverloadLitmus, SessionCancelKillsParkedHolderAndWaiterProceeds) {
  Fixture f;
  // A rule rides the update so the holder has a post-park cancellation
  // point (the per-action check at the rule boundary).
  ASSERT_OK(f.setup->Execute("create table stats (n int)"));
  ASSERT_OK(f.setup->Execute("insert into stats values (0)"));
  ASSERT_OK(f.setup->Execute(
      "create rule touch when updated accts.bal "
      "then update stats set n = n + 1"));
  const uint64_t pre_state = f.db().Checksum();

  ASSERT_OK_AND_ASSIGN(server::Session * t1, f.manager->CreateSession());
  test::Schedule s;
  s.BlockAt("rules.action.pre");
  s.Spawn("holder", [&] {
    return t1->Execute("update accts set bal = bal + 1 where id = 1");
  });
  s.WaitBlocked("rules.action.pre");

  // T2 wants the same row; park it at the lock-wait sync point so the
  // blockage is real before the kill is delivered.
  s.BlockAt("lock.wait.accts");
  ASSERT_OK_AND_ASSIGN(server::Session * t2, f.manager->CreateSession());
  s.Spawn("waiter", [&] {
    return t2->Execute("update accts set bal = bal + 10 where id = 1");
  });
  s.WaitBlocked("lock.wait.accts");
  s.Release("lock.wait.accts");

  t1->Cancel("operator kill of a stalled writer");
  s.Release("rules.action.pre");
  Status holder = s.Join("holder");
  EXPECT_EQ(holder.code(), StatusCode::kCancelled) << holder;
  Status waiter = s.Join("waiter");
  ASSERT_OK(waiter);  // must acquire the freed locks

  // Exactly the waiter's effect (and its rule firing) on top of the
  // pre-state; the killed holder's update vanished whole.
  EXPECT_EQ(ScalarInt(f.setup->Query(
                "select bal from accts where id = 1")),
            110);
  EXPECT_EQ(ScalarInt(f.setup->Query("select n from stats")), 1);
  f.ExpectClean();

  // The killed session refuses further statements until revived.
  EXPECT_TRUE(t1->killed());
  EXPECT_EQ(t1->Execute("update accts set bal = 0 where id = 2").code(),
            StatusCode::kCancelled);
  t1->ResetCancel();
  ASSERT_OK(t1->Execute("update accts set bal = bal + 1 where id = 2"));

  // Oracle replay: pre-state + waiter's block + revived holder's block.
  (void)pre_state;  // documented above; the scalar checks pin the state
}

// --- Cancelling a session whose statement is stuck IN a lock wait --------
// The dual of (b): the kill lands on the WAITER mid-cv-wait. The bounded
// poll quantum must deliver it promptly; the waiter rolls back exactly
// and the untouched holder commits.
TEST(OverloadLitmus, SessionCancelDeliveredInsideLockWait) {
  Fixture f;
  test::Schedule s;
  s.BlockAt("rules.commit.pre");
  ASSERT_OK_AND_ASSIGN(server::Session * t1, f.manager->CreateSession());
  s.Spawn("holder", [&] {
    return t1->Execute("update accts set bal = bal + 1 where id = 1");
  });
  s.WaitBlocked("rules.commit.pre");

  ASSERT_OK_AND_ASSIGN(server::Session * t2, f.manager->CreateSession());
  const uint64_t before = f.db().Checksum();
  s.BlockAt("lock.wait.accts");
  s.Spawn("waiter", [&] {
    return t2->Execute(
        "update accts set bal = bal + 10 where id = 2; "
        "update accts set bal = bal + 10 where id = 1");
  });
  // The waiter is provably AT the lock wait when the kill fires.
  s.WaitBlocked("lock.wait.accts");
  s.Release("lock.wait.accts");
  t2->Cancel("kill the stuck waiter");
  Status waiter = s.Join("waiter");
  EXPECT_EQ(waiter.code(), StatusCode::kCancelled) << waiter;
  EXPECT_EQ(f.db().Checksum(), before)
      << "the killed waiter must roll back its first statement too";
  EXPECT_EQ(f.locks().WaitEdgeCount(), 0u);

  s.Release("rules.commit.pre");
  ASSERT_OK(s.Join("holder"));
  f.ExpectClean();
  EXPECT_EQ(ScalarInt(f.setup->Query(
                "select bal from accts where id = 1")),
            101);
}

// --- Statement timeout bounds a lock wait --------------------------------
// No per-wait lock timeout configured (10s default, effectively off for
// this test) — the SESSION's statement budget is what expires, so the
// failure attributes as kTimeout, not kLockTimeout.
TEST(OverloadLitmus, StatementTimeoutExpiresDuringLockWait) {
  Fixture f;
  test::Schedule s;
  s.BlockAt("rules.commit.pre");
  ASSERT_OK_AND_ASSIGN(server::Session * t1, f.manager->CreateSession());
  s.Spawn("holder", [&] {
    return t1->Execute("update accts set bal = bal + 1 where id = 1");
  });
  s.WaitBlocked("rules.commit.pre");

  ASSERT_OK_AND_ASSIGN(server::Session * t2, f.manager->CreateSession());
  t2->set_statement_timeout(std::chrono::duration_cast<
                            std::chrono::microseconds>(milliseconds(50)));
  const uint64_t before = f.db().Checksum();
  Status st = t2->Execute("update accts set bal = bal + 10 where id = 1");
  EXPECT_EQ(st.code(), StatusCode::kTimeout) << st;
  EXPECT_EQ(f.db().Checksum(), before);

  s.Release("rules.commit.pre");
  ASSERT_OK(s.Join("holder"));
  f.ExpectClean();
}

// --- Admission control: shedding with reads still served -----------------
// Writer capacity forced to 1 with NO queue: while one writer is parked
// in flight, a second writer is shed immediately with kOverloaded and a
// structured retry-after hint — and a snapshot read on a third session
// keeps working (graceful degradation is structural).
TEST(OverloadLitmus, AdmissionShedsWritersWhileReadsKeepServing) {
  Fixture f;
  server::AdmissionOptions admission;
  admission.max_inflight_writers = 1;
  admission.max_queued_writers = 0;
  f.manager->scheduler().admission().set_options(admission);

  test::Schedule s;
  s.BlockAt("rules.commit.pre");
  ASSERT_OK_AND_ASSIGN(server::Session * t1, f.manager->CreateSession());
  s.Spawn("inflight", [&] {
    return t1->Execute("update accts set bal = bal + 1 where id = 1");
  });
  s.WaitBlocked("rules.commit.pre");

  ASSERT_OK_AND_ASSIGN(server::Session * t2, f.manager->CreateSession());
  const uint64_t before = f.db().Checksum();
  Status shed = t2->Execute("update accts set bal = bal + 10 where id = 2");
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded) << shed;
  EXPECT_NE(shed.message().find("retry-after-ms="), std::string::npos)
      << "a shed must carry a structured retry hint: " << shed;
  EXPECT_EQ(f.db().Checksum(), before)
      << "a shed statement must not have touched data";

  // Reads bypass writer admission entirely.
  ASSERT_OK_AND_ASSIGN(server::Session * reader, f.manager->CreateSession());
  EXPECT_EQ(ScalarInt(reader->Query(
                "select bal from accts where id = 2")),
            200);

  const server::AdmissionStats stats =
      f.manager->scheduler().admission().stats();
  EXPECT_EQ(stats.inflight, 1u);
  EXPECT_GE(stats.shed_queue_full, 1u);

  s.Release("rules.commit.pre");
  ASSERT_OK(s.Join("inflight"));
  f.ExpectClean();
  // Capacity freed: the shed writer succeeds on retry.
  ASSERT_OK(t2->Execute("update accts set bal = bal + 10 where id = 2"));
  EXPECT_EQ(f.manager->scheduler().admission().stats().inflight, 0u);
}

// --- Admission queue deadline ---------------------------------------------
// With a queue allowed but deadline-bounded, a queued writer is shed with
// kOverloaded once its queue wait exceeds the bound (instead of waiting
// forever behind a stalled in-flight writer).
TEST(OverloadLitmus, AdmissionQueueDeadlineShedsQueuedWriter) {
  Fixture f;
  server::AdmissionOptions admission;
  admission.max_inflight_writers = 1;
  admission.max_queued_writers = 8;
  admission.queue_deadline = std::chrono::duration_cast<
      std::chrono::microseconds>(milliseconds(50));
  f.manager->scheduler().admission().set_options(admission);

  test::Schedule s;
  s.BlockAt("rules.commit.pre");
  ASSERT_OK_AND_ASSIGN(server::Session * t1, f.manager->CreateSession());
  s.Spawn("inflight", [&] {
    return t1->Execute("update accts set bal = bal + 1 where id = 1");
  });
  s.WaitBlocked("rules.commit.pre");

  ASSERT_OK_AND_ASSIGN(server::Session * t2, f.manager->CreateSession());
  Status shed = t2->Execute("update accts set bal = bal + 10 where id = 2");
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded) << shed;
  EXPECT_NE(shed.message().find("queue deadline"), std::string::npos) << shed;
  EXPECT_GE(f.manager->scheduler().admission().stats().shed_queue_deadline,
            1u);

  s.Release("rules.commit.pre");
  ASSERT_OK(s.Join("inflight"));
  f.ExpectClean();
}

// --- Session kill reaches a writer parked in the ADMISSION queue ---------
TEST(OverloadLitmus, SessionCancelDeliveredInAdmissionQueue) {
  Fixture f;
  server::AdmissionOptions admission;
  admission.max_inflight_writers = 1;
  admission.max_queued_writers = 8;  // no queue deadline: only the kill
  f.manager->scheduler().admission().set_options(admission);

  test::Schedule s;
  s.BlockAt("rules.commit.pre");
  ASSERT_OK_AND_ASSIGN(server::Session * t1, f.manager->CreateSession());
  s.Spawn("inflight", [&] {
    return t1->Execute("update accts set bal = bal + 1 where id = 1");
  });
  s.WaitBlocked("rules.commit.pre");

  ASSERT_OK_AND_ASSIGN(server::Session * t2, f.manager->CreateSession());
  s.BlockAt("server.admit.queue");
  s.Spawn("queued", [&] {
    return t2->Execute("update accts set bal = bal + 10 where id = 2");
  });
  // The queued writer has provably reached admission when the kill fires.
  s.WaitBlocked("server.admit.queue");
  s.Release("server.admit.queue");
  t2->Cancel("kill while queued for admission");
  Status queued = s.Join("queued");
  EXPECT_EQ(queued.code(), StatusCode::kCancelled) << queued;
  EXPECT_GE(f.manager->scheduler().admission().stats().shed_cancelled, 1u);

  s.Release("rules.commit.pre");
  ASSERT_OK(s.Join("inflight"));
  f.ExpectClean();
  EXPECT_EQ(f.manager->scheduler().admission().stats().queued, 0u);
}

// --- Per-session in-flight statement limit --------------------------------
// Driving one session from two threads at once is a protocol violation:
// while a statement is parked in flight, a second statement on the SAME
// session is refused with kOverloaded (another session is fine).
TEST(OverloadLitmus, SecondStatementOnBusySessionIsRefused) {
  Fixture f;
  ASSERT_OK_AND_ASSIGN(server::Session * t1, f.manager->CreateSession());
  test::Schedule s;
  s.BlockAt("rules.commit.pre");
  s.Spawn("busy", [&] {
    return t1->Execute("update accts set bal = bal + 1 where id = 1");
  });
  s.WaitBlocked("rules.commit.pre");

  EXPECT_EQ(t1->inflight_statements(), 1u);
  Status refused = t1->Execute("update accts set bal = 0 where id = 2");
  EXPECT_EQ(refused.code(), StatusCode::kOverloaded) << refused;
  Result<QueryResult> read_refused = t1->Query("select * from accts");
  EXPECT_EQ(read_refused.status().code(), StatusCode::kOverloaded);

  s.Release("rules.commit.pre");
  ASSERT_OK(s.Join("busy"));
  EXPECT_EQ(t1->inflight_statements(), 0u);
  f.ExpectClean();
  // The session manager's snapshot sees the counters.
  const auto snap = f.manager->Inspect();
  EXPECT_EQ(snap.num_sessions, f.manager->num_sessions());
  bool found = false;
  for (const auto& info : snap.sessions) {
    if (info.id == t1->id()) {
      found = true;
      EXPECT_GE(info.statements, 1u);
      EXPECT_EQ(info.inflight_statements, 0u);
      EXPECT_FALSE(info.killed);
    }
  }
  EXPECT_TRUE(found);
}

// --- Chaos-style injected kill at a cancellation point -------------------
// cancel.deliver armed once: the next CheckCancel anywhere inside the
// block fails as if an asynchronous kill had landed there; the block must
// roll back to the exact pre-state (the failure-atomicity contract every
// other chaos site honours).
TEST(OverloadLitmus, InjectedCancelRollsBackToExactPreState) {
  Fixture f;
  const uint64_t before = f.db().Checksum();
  FailpointRegistry::Instance().Arm(
      "cancel.deliver", {FailpointRegistry::Mode::kOnce, 1,
                         StatusCode::kCancelled, false});
  ASSERT_OK_AND_ASSIGN(server::Session * t1, f.manager->CreateSession());
  Status st = t1->Execute(
      "update accts set bal = bal + 1 where id = 1; "
      "update accts set bal = bal + 1 where id = 2");
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
  EXPECT_EQ(f.db().Checksum(), before);
  f.ExpectClean();
  ASSERT_OK(t1->Execute("update accts set bal = bal + 1 where id = 1"));
}

// --- Session kill lands at a vectorized batch boundary -------------------
// The vectorized executor (docs/EXECUTION.md) checks cancellation at
// chunk granularity. T1's update applies, then its rule action joins the
// transition table against base accts: T1 parks at exec.hashjoin.build
// with the user write already in the heap and X locks held. Cancel, then
// release: the very next batch-granularity check (the probe loop's) must
// deliver the kill, and the whole transaction — user write AND the
// half-done rule action — rolls back checksum-exact.
TEST(OverloadLitmus, SessionCancelAtHashJoinBuildRollsBackExactly) {
  Fixture f;
  ASSERT_OK(f.setup->Execute("create table audit (id int, bal int)"));
  ASSERT_OK(f.setup->Execute(
      "create rule jn when updated accts.bal "
      "then insert into audit "
      "(select a.id, a.bal from new updated accts.bal n, accts a "
      "where n.id = a.id)"));
  const uint64_t before = f.db().Checksum();

  ASSERT_OK_AND_ASSIGN(server::Session * t1, f.manager->CreateSession());
  test::Schedule s;
  s.BlockAt("exec.hashjoin.build");
  s.Spawn("joiner", [&] {
    return t1->Execute("update accts set bal = bal + 1 where id = 1");
  });
  s.WaitBlocked("exec.hashjoin.build");

  t1->Cancel("operator kill mid-hash-build");
  s.Release("exec.hashjoin.build");
  Status st = s.Join("joiner");
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
  EXPECT_EQ(f.db().Checksum(), before)
      << "a kill delivered at the hash-join batch boundary must roll the "
         "update and its rule action back to the exact pre-state";
  f.ExpectClean();

  // The session revives and the same statement then completes, with the
  // join rule writing its audit rows.
  t1->ResetCancel();
  ASSERT_OK(t1->Execute("update accts set bal = bal + 1 where id = 1"));
  EXPECT_EQ(ScalarInt(f.setup->Query("select count(*) from audit")),
            1);
}

// The same contract at the other vectorized site: exec.batch fires once
// per chunk of a batched predicate scan. The trigger is an insert (which
// itself never scans), so the first exec.batch hit is inside the RULE
// ACTION's update scan — the user's insert is already applied when the
// kill lands, and must vanish whole.
TEST(OverloadLitmus, SessionCancelAtBatchBoundaryRollsBackExactly) {
  Fixture f;
  ASSERT_OK(f.setup->Execute("create table audit (id int, bal int)"));
  ASSERT_OK(f.setup->Execute("insert into audit values (1, 0)"));
  ASSERT_OK(f.setup->Execute(
      "create rule tick when inserted into accts "
      "then update audit set bal = bal + 1 where bal >= 0"));
  const uint64_t before = f.db().Checksum();

  ASSERT_OK_AND_ASSIGN(server::Session * t1, f.manager->CreateSession());
  test::Schedule s;
  s.BlockAt("exec.batch");
  s.Spawn("writer", [&] {
    return t1->Execute("insert into accts values (7, 700)");
  });
  s.WaitBlocked("exec.batch");

  t1->Cancel("operator kill at a batch boundary");
  s.Release("exec.batch");
  Status st = s.Join("writer");
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
  EXPECT_EQ(f.db().Checksum(), before);
  f.ExpectClean();

  t1->ResetCancel();
  ASSERT_OK(t1->Execute("insert into accts values (7, 700)"));
  EXPECT_EQ(ScalarInt(f.setup->Query("select bal from audit")), 1);
}

}  // namespace
}  // namespace sopr
