// Isolation litmus suite (ISSUE 4): each classic read anomaly from the
// snapshot-isolation literature (Berenson et al.; Hermitage-style litmus
// methodology) is driven through an EXACT interleaving — blocking
// failpoint sync points park the writer at a chosen line while the test
// thread reads — and checked against an exact expected-result table. No
// sleeps anywhere; if a reader ever blocked on a writer, the test would
// deadlock rather than flake.
//
// Also here: the rule seam (rule actions read the write-side head, never
// a snapshot) and the Session read-only classification fix (select-only
// scripts, transition-table selects, and explain route outside the
// exclusive section; any write in the script routes through it).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "concurrency/schedule.h"
#include "engine/engine.h"
#include "server/session_manager.h"
#include "storage/lock_manager.h"
#include "test_util.h"
#include "wal/wal_writer.h"

namespace sopr {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sopr_litmus_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

std::unique_ptr<server::SessionManager> OpenManager(
    RuleEngineOptions options = {}) {
  auto opened = server::SessionManager::Open(std::move(options));
  EXPECT_TRUE(opened.ok()) << opened.status();
  return opened.ok() ? std::move(opened).value() : nullptr;
}

/// The single int cell of a one-row, one-column result.
int64_t ScalarInt(const Result<QueryResult>& result) {
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return -1;
  EXPECT_EQ(result.value().rows.size(), 1u);
  if (result.value().rows.size() != 1) return -1;
  return result.value().rows[0].at(0).AsInt();
}

class IsolationLitmusTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Instance().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

// --- Anomaly 1: dirty read ----------------------------------------------
// The writer is parked at rules.commit.pre: its update is applied to the
// heap but NOT committed. Expected table: reader sees the old value, and
// completes while the writer is still inside the writer section
// (readers never block on writers — if they did, this test would hang at
// the Query, not flake).
TEST_F(IsolationLitmusTest, DirtyRead) {
  auto manager = OpenManager();
  ASSERT_OK_AND_ASSIGN(server::Session * writer, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session * reader, manager->CreateSession());
  ASSERT_OK(writer->Execute("create table t (id int, v int)"));
  ASSERT_OK(writer->Execute("insert into t values (1, 10)"));

  test::Schedule s;
  s.BlockAt("rules.commit.pre");
  s.Spawn("writer", [&] {
    return writer->Execute("update t set v = 20 where id = 1");
  });
  s.WaitBlocked("rules.commit.pre");

  // The dirty state genuinely exists: an unversioned head read (the
  // engine's raw query path, which the parked writer cannot race) shows
  // the uncommitted 20...
  EXPECT_EQ(ScalarInt(manager->engine().Query("select v from t where id = 1")),
            20);
  // ...but the snapshot read sees only the committed 10.
  EXPECT_EQ(ScalarInt(reader->Query("select v from t where id = 1")),
            10);

  s.Release("rules.commit.pre");
  ASSERT_OK(s.Join("writer"));
  EXPECT_EQ(ScalarInt(reader->Query("select v from t where id = 1")),
            20);
}

// --- Anomaly 2: non-repeatable read --------------------------------------
// Expected table: both reads through one pinned snapshot return 10, no
// matter what commits in between; a fresh snapshot sees 20.
TEST_F(IsolationLitmusTest, NonRepeatableRead) {
  auto manager = OpenManager();
  ASSERT_OK_AND_ASSIGN(server::Session * session, manager->CreateSession());
  ASSERT_OK(session->Execute("create table t (id int, v int)"));
  ASSERT_OK(session->Execute("insert into t values (1, 10)"));

  ASSERT_OK_AND_ASSIGN(server::Session::Snapshot snap, session->PinSnapshot());
  EXPECT_EQ(ScalarInt(session->QueryAt(snap, "select v from t where id = 1")),
            10);

  ASSERT_OK(session->Execute("update t set v = 20 where id = 1"));

  EXPECT_EQ(ScalarInt(session->QueryAt(snap, "select v from t where id = 1")),
            10)
      << "the pinned snapshot must repeat its first read";
  EXPECT_EQ(ScalarInt(session->Query("select v from t where id = 1")),
            20);
}

// --- Anomaly 3: read skew -------------------------------------------------
// Accounts hold 50/50 (invariant: sum 100). The snapshot reads account 1,
// a transfer of 10 commits, then the same snapshot reads account 2.
// Expected table: the snapshot's two reads are 50 and 50 (sum preserved);
// the head reads 40 and 60.
TEST_F(IsolationLitmusTest, ReadSkew) {
  auto manager = OpenManager();
  ASSERT_OK_AND_ASSIGN(server::Session * session, manager->CreateSession());
  ASSERT_OK(session->Execute("create table accounts (id int, bal int)"));
  ASSERT_OK(session->Execute(
      "insert into accounts values (1, 50); "
      "insert into accounts values (2, 50)"));

  ASSERT_OK_AND_ASSIGN(server::Session::Snapshot snap, session->PinSnapshot());
  EXPECT_EQ(
      ScalarInt(session->QueryAt(snap, "select bal from accounts where id = 1")),
      50);

  ASSERT_OK(session->Execute(
      "update accounts set bal = bal - 10 where id = 1; "
      "update accounts set bal = bal + 10 where id = 2"));

  EXPECT_EQ(
      ScalarInt(session->QueryAt(snap, "select bal from accounts where id = 2")),
      50)
      << "read skew: the snapshot saw half of a transfer";
  EXPECT_EQ(ScalarInt(session->QueryAt(snap,
                                       "select sum(bal) from accounts")),
            100);
  EXPECT_EQ(ScalarInt(session->Query(
                "select bal from accounts where id = 1")),
            40);
  EXPECT_EQ(ScalarInt(session->Query(
                "select bal from accounts where id = 2")),
            60);
}

// --- Anomaly 4: lost update, visible to readers ---------------------------
// Two serialized increments of one counter. Expected table: a snapshot
// pinned after the first commit reads exactly 11 forever; one pinned
// after the second reads 12; the head reads 12 (no update was lost, and
// every intermediate state is individually observable).
TEST_F(IsolationLitmusTest, LostUpdateVisibleToReader) {
  auto manager = OpenManager();
  ASSERT_OK_AND_ASSIGN(server::Session * s1, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session * s2, manager->CreateSession());
  ASSERT_OK(s1->Execute("create table t (id int, v int)"));
  ASSERT_OK(s1->Execute("insert into t values (1, 10)"));

  ASSERT_OK(s1->Execute("update t set v = v + 1 where id = 1"));
  ASSERT_OK_AND_ASSIGN(server::Session::Snapshot after_first,
                       s1->PinSnapshot());

  ASSERT_OK(s2->Execute("update t set v = v + 1 where id = 1"));
  ASSERT_OK_AND_ASSIGN(server::Session::Snapshot after_second,
                       s2->PinSnapshot());

  EXPECT_EQ(
      ScalarInt(s1->QueryAt(after_first, "select v from t where id = 1")), 11);
  EXPECT_EQ(
      ScalarInt(s2->QueryAt(after_second, "select v from t where id = 1")),
      12);
  EXPECT_EQ(
      ScalarInt(s1->QueryAt(after_first, "select v from t where id = 1")), 11)
      << "the older snapshot must keep reading the intermediate state";
  EXPECT_EQ(ScalarInt(s1->Query("select v from t where id = 1")), 12);
}

// --- Anomaly 5: snapshot vs. checkpoint -----------------------------------
// Checkpoint pruning must not discard versions a pinned snapshot still
// needs. Expected table: with the pin held, the checkpoint keeps both
// superseded versions and the pin still reads 1; after unpinning, the
// next checkpoint drops every version and the head reads 3.
TEST_F(IsolationLitmusTest, SnapshotVsCheckpoint) {
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  auto manager = OpenManager(options);
  ASSERT_OK_AND_ASSIGN(server::Session * session, manager->CreateSession());
  ASSERT_OK(session->Execute("create table t (id int, v int)"));
  ASSERT_OK(session->Execute("insert into t values (1, 1)"));

  ASSERT_OK_AND_ASSIGN(server::Session::Snapshot snap, session->PinSnapshot());
  ASSERT_OK(session->Execute("update t set v = 2 where id = 1"));
  ASSERT_OK(session->Execute("update t set v = 3 where id = 1"));
  EXPECT_EQ(manager->engine().db().VersionCount(), 2u);

  ASSERT_OK(manager->scheduler().WithExclusive(
      [&] { return manager->engine().Checkpoint(); }));
  EXPECT_EQ(manager->engine().db().VersionCount(), 2u)
      << "pruning discarded versions the pinned snapshot can still see";
  EXPECT_EQ(ScalarInt(session->QueryAt(snap, "select v from t where id = 1")),
            1);

  snap.Reset();  // release the pin: the floor advances to the commit head
  ASSERT_OK(manager->scheduler().WithExclusive(
      [&] { return manager->engine().Checkpoint(); }));
  EXPECT_EQ(manager->engine().db().VersionCount(), 0u)
      << "with no pins, the checkpoint must garbage-collect every version";
  EXPECT_EQ(ScalarInt(session->Query("select v from t where id = 1")),
            3);
}

// --- Anomaly 5b: a pin racing the checkpoint's prune floor ----------------
// Regression for a TOCTOU between PinSnapshot and checkpoint pruning.
// The reader is parked INSIDE pin acquisition: server.pin.acquire fires
// under the registry mutex, after the decision to pin but before the
// visible-LSN load. Two updates commit and a checkpoint is started while
// it is parked. Because the load+insert and the checkpoint's floor
// computation share the registry mutex, the floor computation waits
// behind the nascent pin — with the old load-then-insert code the
// checkpoint could slide between the two, prune to the commit head, and
// hand the reader a stale-LSN snapshot whose superseded versions were
// already collected. Expected table: the pin lands exactly on the
// published head, the pinned read returns 3, and the checkpoint collects
// both superseded versions (floor == head) — in every legal order of the
// released threads.
TEST_F(IsolationLitmusTest, PinRacingCheckpointWaitsForPruneFloor) {
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  auto manager = OpenManager(options);
  ASSERT_OK_AND_ASSIGN(server::Session * writer, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session * reader, manager->CreateSession());
  ASSERT_OK(writer->Execute("create table t (id int, v int)"));
  ASSERT_OK(writer->Execute("insert into t values (1, 1)"));

  uint64_t pinned_lsn = 0;
  int64_t pinned_read = -1;
  test::Schedule s;
  s.BlockAt("server.pin.acquire");
  s.Spawn("reader", [&] {
    auto snap = reader->PinSnapshot();
    if (!snap.ok()) return snap.status();
    pinned_lsn = snap.value().lsn();
    pinned_read = ScalarInt(
        reader->QueryAt(snap.value(), "select v from t where id = 1"));
    return Status::OK();
  });
  s.WaitBlocked("server.pin.acquire");

  ASSERT_OK(writer->Execute("update t set v = 2 where id = 1"));
  ASSERT_OK(writer->Execute("update t set v = 3 where id = 1"));
  EXPECT_EQ(manager->engine().db().VersionCount(), 2u);

  // The checkpoint's floor computation blocks on the registry mutex
  // behind the parked pin; releasing the sync point lets both finish.
  s.Spawn("checkpointer", [&] {
    return manager->scheduler().WithExclusive(
        [&] { return manager->engine().Checkpoint(); });
  });
  s.Release("server.pin.acquire");
  ASSERT_OK(s.Join("reader"));
  ASSERT_OK(s.Join("checkpointer"));

  EXPECT_EQ(pinned_lsn, manager->engine().last_commit_lsn())
      << "the pin must land on the published head, not a stale load";
  EXPECT_EQ(pinned_read, 3);
  EXPECT_EQ(manager->engine().db().VersionCount(), 0u)
      << "a head-level pin lets the checkpoint collect every version";
}

// --- Anomaly 5c: a block that fails after an inner commit -----------------
// The operation block commits (t gets its row, chain its seed), then the
// self-perpetuating detached chain exceeds max_rule_firings and the
// block FAILS — after several inner commits already ran. Those commits
// are committed, stamped state, so the scheduler must publish the head
// regardless of the block's final status. Expected table: visible_lsn ==
// last_commit_lsn in the failure window, and a snapshot pinned there
// survives a checkpoint and reads the committed row. (With a stale
// published head, the pin would land below the prune floor and the read
// of t would come back empty.)
TEST_F(IsolationLitmusTest, FailedBlockStillPublishesCommittedHead) {
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  options.max_rule_firings = 8;
  auto manager = OpenManager(options);
  ASSERT_OK_AND_ASSIGN(server::Session * session, manager->CreateSession());
  ASSERT_OK(session->Execute("create table t (id int, v int)"));
  ASSERT_OK(session->Execute("create table chain (a int)"));
  ASSERT_OK(session->Execute(
      "create rule forever when inserted into chain "
      "then insert into chain (select a + 1 from inserted chain)"));
  ASSERT_OK(manager->engine().rules().SetDetached("forever", true));

  Status st = session->Execute(
      "insert into t values (1, 10); insert into chain values (0)");
  EXPECT_EQ(st.code(), StatusCode::kLimitExceeded) << st;
  EXPECT_EQ(manager->scheduler().visible_lsn(),
            manager->engine().last_commit_lsn())
      << "commits that ran before the failure must still be published";

  ASSERT_OK_AND_ASSIGN(server::Session::Snapshot snap, session->PinSnapshot());
  ASSERT_OK(manager->scheduler().WithExclusive(
      [&] { return manager->engine().Checkpoint(); }));
  EXPECT_EQ(ScalarInt(session->QueryAt(snap, "select v from t where id = 1")),
            10);
}

// --- Anomaly 6: snapshot vs. recovery -------------------------------------
// Expected table: a restart recovers the exact committed state with NO
// version chains (each recovered group is stamped at its COMMIT LSN and
// prunes what it superseded), the first post-restart snapshot is the
// last recovered commit, and a pin taken before the first post-restart
// write keeps reading the recovered state while the head moves on.
TEST_F(IsolationLitmusTest, SnapshotVsRecovery) {
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  auto manager = OpenManager(options);
  {
    ASSERT_OK_AND_ASSIGN(server::Session * session, manager->CreateSession());
    ASSERT_OK(session->Execute("create table t (id int, v int)"));
    ASSERT_OK(session->Execute("insert into t values (1, 1)"));
    ASSERT_OK(session->Execute("update t set v = 2 where id = 1"));
  }
  const uint64_t committed_checksum = manager->engine().db().Checksum();

  manager.reset();  // close: drain staged commits, release the dir lock
  manager = OpenManager(options);
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->engine().db().Checksum(), committed_checksum);
  EXPECT_EQ(manager->engine().db().VersionCount(), 0u)
      << "recovery must leave no superseded versions";
  const uint64_t recovered_lsn = manager->engine().last_commit_lsn();

  ASSERT_OK_AND_ASSIGN(server::Session * session, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session::Snapshot recovered,
                       session->PinSnapshot());
  EXPECT_EQ(recovered.lsn(), recovered_lsn)
      << "the first post-restart snapshot is the last recovered commit";
  EXPECT_EQ(
      ScalarInt(session->QueryAt(recovered, "select v from t where id = 1")),
      2);

  ASSERT_OK(session->Execute("update t set v = 5 where id = 1"));
  EXPECT_EQ(
      ScalarInt(session->QueryAt(recovered, "select v from t where id = 1")),
      2)
      << "the pre-write snapshot must keep the recovered state";
  EXPECT_EQ(ScalarInt(session->Query("select v from t where id = 1")),
            5);
}

// --- The rule seam: actions read the write-side head ----------------------
// A rule's action select must see the uncommitted transition state it is
// reacting to (§4 semantics), never a snapshot. The writer is parked at
// rules.action.pre: its three inserts are applied, its rule is about to
// read them — and a concurrent snapshot still sees the empty table.
TEST_F(IsolationLitmusTest, RuleActionsRunAtWriteSideHead) {
  auto manager = OpenManager();
  ASSERT_OK_AND_ASSIGN(server::Session * writer, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session * reader, manager->CreateSession());
  ASSERT_OK(writer->Execute("create table src (id int)"));
  ASSERT_OK(writer->Execute("create table log (n int)"));
  ASSERT_OK(writer->Execute(
      "create rule seam when inserted into src "
      "then insert into log (select count(*) from src)"));

  test::Schedule s;
  s.BlockAt("rules.action.pre");
  s.Spawn("writer", [&] {
    return writer->Execute(
        "insert into src values (1); insert into src values (2); "
        "insert into src values (3)");
  });
  s.WaitBlocked("rules.action.pre");

  EXPECT_EQ(ScalarInt(reader->Query("select count(*) from src")), 0)
      << "snapshots must not see the uncommitted transition state";

  s.Release("rules.action.pre");
  ASSERT_OK(s.Join("writer"));
  // The rule counted all three uncommitted inserts: write-side head.
  EXPECT_EQ(ScalarInt(reader->Query("select n from log")), 3);
  EXPECT_EQ(ScalarInt(reader->Query("select count(*) from src")), 3);
}

// --- Read-only classification (satellite fix) -----------------------------
// server.submit.pre fires on every entry to the exclusive write path.
// Arming it =always makes routing observable: anything classified as a
// read still works, anything classified as a write fails injected.
TEST_F(IsolationLitmusTest, SelectOnlyScriptsRouteOutsideExclusiveSection) {
  auto manager = OpenManager();
  ASSERT_OK_AND_ASSIGN(server::Session * session, manager->CreateSession());
  ASSERT_OK(session->Execute("create table t (id int, v int)"));
  ASSERT_OK(session->Execute("insert into t values (1, 10)"));
  const uint64_t commits_before = session->commits();

  FailpointRegistry::Trigger always;
  always.mode = FailpointRegistry::Mode::kAlways;
  FailpointRegistry::Instance().Arm("server.submit.pre", always);

  // Reads of every flavor keep working: the exclusive path is poisoned.
  EXPECT_OK(session->Execute("select * from t; select v from t where id = 1"));
  EXPECT_EQ(session->commits(), commits_before + 1)
      << "a select-only script still counts as a committed (read-only) txn";
  EXPECT_EQ(session->last_receipt().commit_lsn, 0u);
  EXPECT_EQ(ScalarInt(session->Query("select v from t where id = 1")),
            10);
  auto plan = session->Explain("select * from t where id = 1");
  EXPECT_TRUE(plan.ok()) << "explain is a read: " << plan.status();

  // A write (alone or after reads in the same script) routes exclusive.
  Status write = session->Execute("insert into t values (2, 20)");
  EXPECT_EQ(write.code(), StatusCode::kInjectedFault) << write;
  Status mixed = session->Execute("select * from t; "
                                  "update t set v = 99 where id = 1");
  EXPECT_EQ(mixed.code(), StatusCode::kInjectedFault)
      << "a script with any write must route through the exclusive section: "
      << mixed;

  FailpointRegistry::Instance().DisarmAll();
  // Regression: the mixed script really does execute once unblocked.
  ASSERT_OK(session->Execute("select * from t; "
                             "update t set v = 99 where id = 1"));
  EXPECT_EQ(ScalarInt(session->Query("select v from t where id = 1")),
            99);
}

TEST_F(IsolationLitmusTest, TransitionTableSelectIsAReadAndFailsCleanly) {
  auto manager = OpenManager();
  ASSERT_OK_AND_ASSIGN(server::Session * session, manager->CreateSession());
  ASSERT_OK(session->Execute("create table t (id int)"));

  FailpointRegistry::Trigger always;
  always.mode = FailpointRegistry::Mode::kAlways;
  FailpointRegistry::Instance().Arm("server.submit.pre", always);

  // Routed as a read (no injected fault), then rejected by the resolver
  // with the usual catalog error — transition tables only exist inside a
  // running rule.
  Status st = session->Execute("select * from inserted t");
  EXPECT_EQ(st.code(), StatusCode::kCatalogError) << st;
  EXPECT_NE(st.message().find("production rule"), std::string::npos) << st;
}

TEST_F(IsolationLitmusTest, SelectTriggeringExtensionRoutesExclusive) {
  // With the §5.1 extension on, selects fire rules: they are writes for
  // routing purposes and must enter the exclusive section.
  RuleEngineOptions options;
  options.track_selects = true;
  auto manager = OpenManager(options);
  ASSERT_OK_AND_ASSIGN(server::Session * session, manager->CreateSession());
  ASSERT_OK(session->Execute("create table t (id int)"));

  FailpointRegistry::Trigger always;
  always.mode = FailpointRegistry::Mode::kAlways;
  FailpointRegistry::Instance().Arm("server.submit.pre", always);

  Status st = session->Execute("select * from t");
  EXPECT_EQ(st.code(), StatusCode::kInjectedFault)
      << "track_selects makes selects rule-firing, hence exclusive: " << st;
}

// ==========================================================================
// Writer-writer litmus scenarios (ISSUE 5): record-level write locking.
// Same methodology as the read anomalies above — blocking failpoints park
// writers at exact lines, every step is a barrier, no sleeps — but now two
// WRITERS overlap inside the scheduler's shared admission.
// ==========================================================================

// --- W/W 1: disjoint rows overlap end-to-end ------------------------------
// T1 is parked MID-BLOCK (at the trailing insert's failpoint) holding a
// record X lock on row 1. T2 updates row 2 and must run to completion —
// admission, locks, fixpoint, commit, durability — while T1 is still
// inside its transaction. A kAlways trigger on "lock.wait" turns any
// would-be lock wait into a visible injected fault, so if T2 blocked even
// once the test FAILS rather than hangs. Expected table: T2 commits first
// (smaller LSN), T1 commits after release, both updates stick.
TEST_F(IsolationLitmusTest, DisjointRowWritersOverlapEndToEnd) {
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  auto manager = OpenManager(options);
  ASSERT_TRUE(manager->engine().concurrent_writers());
  ASSERT_OK_AND_ASSIGN(server::Session * t1, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session * t2, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session * reader, manager->CreateSession());
  ASSERT_OK(t1->Execute("create table accts (id int, bal int)"));
  ASSERT_OK(t1->Execute("create index on accts (id)"));
  ASSERT_OK(t1->Execute("create table marker (n int)"));
  ASSERT_OK(t1->Execute("insert into accts values (1, 0); "
                        "insert into accts values (2, 0)"));

  test::Schedule s;
  // Tripwire: a lock wait anywhere fails the waiting statement loudly.
  FailpointRegistry::Trigger no_waits;
  no_waits.mode = FailpointRegistry::Mode::kAlways;
  FailpointRegistry::Instance().Arm("lock.wait", no_waits);

  s.BlockAt("storage.insert.pre");
  s.Spawn("t1", [&] {
    return t1->Execute("update accts set bal = 10 where id = 1; "
                       "insert into marker values (1)");
  });
  s.WaitBlocked("storage.insert.pre");

  // T1 holds X on row 1 and sits mid-transaction. T2's whole transaction
  // overlaps it: Join returns only after T2 is committed AND durable.
  s.Spawn("t2", [&] {
    return t2->Execute("update accts set bal = 20 where id = 2");
  });
  Status t2_done = s.Join("t2");
  ASSERT_TRUE(t2_done.ok())
      << "disjoint-row writer must not block or fault: " << t2_done;
  const uint64_t t2_lsn = t2->last_receipt().commit_lsn;
  EXPECT_GT(t2_lsn, 0u);

  // Committed-state expected table while T1 is still parked: T2's write
  // is visible, T1's is not.
  EXPECT_EQ(ScalarInt(reader->Query("select bal from accts "
                                           "where id = 2")),
            20);
  EXPECT_EQ(ScalarInt(reader->Query("select bal from accts "
                                           "where id = 1")),
            0);

  s.Release("storage.insert.pre");
  ASSERT_OK(s.Join("t1"));
  const uint64_t t1_lsn = t1->last_receipt().commit_lsn;
  EXPECT_GT(t1_lsn, t2_lsn) << "T2 committed first while T1 was open";
  EXPECT_EQ(ScalarInt(reader->Query("select bal from accts "
                                           "where id = 1")),
            10);
  EXPECT_EQ(ScalarInt(reader->Query("select count(*) from marker")),
            1);
}

// --- W/W 2: same-row conflict blocks, then proceeds -----------------------
// T1 is parked at rules.commit.pre holding X on row 1 (fixpoint done,
// commit not yet). T2 updates the SAME row: it must park in a real lock
// wait (proven by the lock.wait.accts barrier — seeing T2 there IS the
// assertion that the conflict blocked). After T1 commits and releases, T2
// acquires the lock, RE-READS the committed row and applies on top of it.
// Expected table: bal = (0 + 1) + 2 = 3 — a lost update would leave 2 —
// and commit-LSN order T1 < T2 matches the conflict order.
TEST_F(IsolationLitmusTest, SameRowConflictBlocksThenProceeds) {
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  auto manager = OpenManager(options);
  ASSERT_OK_AND_ASSIGN(server::Session * t1, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session * t2, manager->CreateSession());
  ASSERT_OK(t1->Execute("create table accts (id int, bal int)"));
  ASSERT_OK(t1->Execute("create index on accts (id)"));
  ASSERT_OK(t1->Execute("insert into accts values (1, 0)"));

  test::Schedule s;
  s.BlockAt("rules.commit.pre");
  s.Spawn("t1", [&] {
    return t1->Execute("update accts set bal = bal + 1 where id = 1");
  });
  s.WaitBlocked("rules.commit.pre");

  s.BlockAt("lock.wait.accts");
  s.Spawn("t2", [&] {
    return t2->Execute("update accts set bal = bal + 2 where id = 1");
  });
  // Barrier: T2 is provably inside a lock wait on accts, NOT applying.
  s.WaitBlocked("lock.wait.accts");

  s.Release("rules.commit.pre");
  ASSERT_OK(s.Join("t1"));  // T1 committed; EndTxn released its locks
  s.Release("lock.wait.accts");
  ASSERT_OK(s.Join("t2"));

  EXPECT_EQ(ScalarInt(t1->Query("select bal from accts where id = 1")),
            3)
      << "T2 must read T1's committed value under the lock (no lost update)";
  EXPECT_LT(t1->last_receipt().commit_lsn, t2->last_receipt().commit_lsn)
      << "conflict order must equal commit-LSN order";
}

// --- W/W 3: deadlock aborts exactly one victim, deterministically ---------
// Classic two-transaction lock-order inversion across tables a and b.
// Both writers are parked after their FIRST update (each holding one X),
// then released into their second update one at a time: T2 waits behind
// T1 first (edge T2->T1, no cycle — it sleeps), then T1's wait adds the
// closing edge T1->T2. The requester that closes the cycle is the victim
// by policy, so the victim is DETERMINISTIC: always T1. Expected table:
// T1 returns kDeadlock with every trace of its first update rolled back,
// T2 commits both its updates, and no version garbage survives.
TEST_F(IsolationLitmusTest, DeadlockAbortsExactlyOneVictim) {
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  options.verify_rollback_integrity = true;  // victim leaves no pending rows
  auto manager = OpenManager(options);
  ASSERT_OK_AND_ASSIGN(server::Session * t1, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session * t2, manager->CreateSession());
  ASSERT_OK(t1->Execute("create table a (id int, v int)"));
  ASSERT_OK(t1->Execute("create table b (id int, v int)"));
  ASSERT_OK(t1->Execute("create index on a (id)"));
  ASSERT_OK(t1->Execute("create index on b (id)"));
  ASSERT_OK(t1->Execute("insert into a values (1, 0)"));
  ASSERT_OK(t1->Execute("insert into b values (1, 0)"));
  LockManager* lm = manager->engine().db().lock_manager();
  ASSERT_NE(lm, nullptr);

  test::Schedule s;
  s.BlockAt("storage.update.post");
  s.Spawn("t1", [&] {
    return t1->Execute("update a set v = 10 where id = 1; "
                       "update b set v = 10 where id = 1");
  });
  s.Spawn("t2", [&] {
    return t2->Execute("update b set v = 20 where id = 1; "
                       "update a set v = 20 where id = 1");
  });
  // Both applied their first update: T1 holds X on a's row, T2 on b's.
  s.WaitBlocked("storage.update.post", 2);
  s.BlockAt("lock.wait.a");
  s.BlockAt("lock.wait.b");
  s.Release("storage.update.post");
  // Each second update runs into the other's lock and parks at its
  // table's wait site (the failpoint fires before any wait edge exists).
  s.WaitBlocked("lock.wait.b");  // T1 wants b
  s.WaitBlocked("lock.wait.a");  // T2 wants a

  // Release T2 first: it records T2->T1 (no cycle yet) and enters a REAL
  // cv wait — the lock manager's barrier sees it parked.
  s.Release("lock.wait.a");
  lm->WaitForWaiters(1);
  // Release T1: its edge T1->T2 closes the cycle, so T1 — the requester
  // whose wait would deadlock — is chosen as victim and aborts.
  s.Release("lock.wait.b");

  Status st1 = s.Join("t1");
  EXPECT_EQ(st1.code(), StatusCode::kDeadlock) << st1;
  ASSERT_OK(s.Join("t2"));
  EXPECT_EQ(lm->deadlocks(), 1u) << "exactly one victim";

  // The victim's first update (a.v = 10) must be structurally undone.
  EXPECT_EQ(ScalarInt(t2->Query("select v from a where id = 1")), 20);
  EXPECT_EQ(ScalarInt(t2->Query("select v from b where id = 1")), 20);
  EXPECT_GT(t2->last_receipt().commit_lsn, 0u);
  ASSERT_OK(manager->engine().CheckInvariants());
}

// --- W/W 4: a lock-holding writer and the checkpoint wall -----------------
// T1 parks at rules.commit.pre holding record locks AND the scheduler's
// shared admission; a checkpoint then queues on the exclusive side. The
// wall must order the checkpoint strictly AFTER the in-flight writer —
// never interleave with it, never deadlock against its record locks.
// Expected table: both finish, the checkpoint covers T1's commit
// (commits_since_checkpoint == 0, every superseded version collected),
// and a restart recovers T1's update from the snapshot.
TEST_F(IsolationLitmusTest, LockHolderVsCheckpointWall) {
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  auto manager = OpenManager(options);
  ASSERT_OK_AND_ASSIGN(server::Session * t1, manager->CreateSession());
  ASSERT_OK(t1->Execute("create table t (id int, v int)"));
  ASSERT_OK(t1->Execute("create index on t (id)"));
  ASSERT_OK(t1->Execute("insert into t values (1, 1)"));

  test::Schedule s;
  s.BlockAt("rules.commit.pre");
  s.Spawn("t1", [&] {
    return t1->Execute("update t set v = 2 where id = 1");
  });
  s.WaitBlocked("rules.commit.pre");

  // Queues behind T1's shared admission; must not complete before it.
  s.Spawn("ckpt", [&] {
    return manager->scheduler().WithExclusive(
        [&] { return manager->engine().Checkpoint(); });
  });

  s.Release("rules.commit.pre");
  ASSERT_OK(s.Join("t1"));
  ASSERT_OK(s.Join("ckpt"));

  EXPECT_EQ(manager->engine().wal()->commits_since_checkpoint(), 0u)
      << "the wall must order the checkpoint after the in-flight commit";
  EXPECT_EQ(manager->engine().db().VersionCount(), 0u)
      << "nothing pinned: the checkpoint collects every superseded version";

  manager.reset();
  auto reopened = OpenManager(options);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(ScalarInt(reopened->engine().Query("select v from t where id = 1")),
            2);
}

// --- W/W 5: rule-action writes take the transaction's locks ---------------
// T1's insert fires a rule whose ACTION inserts into audit; T1 parks at
// rules.commit.pre AFTER the fixpoint, so the audit row exists only as
// T1's uncommitted, X-locked write. T2's scan-update of audit must park
// in a lock wait (the barrier proves rule-action writes are locked by the
// ENCLOSING transaction, not auto-committed) and, once T1 commits, must
// see the rule-written row. Expected table: audit = {1 + 10}.
TEST_F(IsolationLitmusTest, RuleActionWritesInheritTransactionLocks) {
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  auto manager = OpenManager(options);
  ASSERT_OK_AND_ASSIGN(server::Session * t1, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session * t2, manager->CreateSession());
  ASSERT_OK(t1->Execute("create table t (id int)"));
  ASSERT_OK(t1->Execute("create table audit (n int)"));
  ASSERT_OK(t1->Execute(
      "create rule audit_ins when inserted into t "
      "then insert into audit (select count(*) from inserted t)"));

  test::Schedule s;
  s.BlockAt("rules.commit.pre");
  s.Spawn("t1", [&] { return t1->Execute("insert into t values (1)"); });
  s.WaitBlocked("rules.commit.pre");

  s.BlockAt("lock.wait.audit");
  s.Spawn("t2", [&] {
    // Unindexed scan-update: needs table X on audit, which conflicts
    // with the IX the rule's action took inside T1.
    return t2->Execute("update audit set n = n + 10");
  });
  // T2 is provably blocked on the lock T1's RULE ACTION acquired.
  s.WaitBlocked("lock.wait.audit");

  s.Release("rules.commit.pre");
  ASSERT_OK(s.Join("t1"));
  s.Release("lock.wait.audit");
  ASSERT_OK(s.Join("t2"));

  EXPECT_EQ(ScalarInt(t1->Query("select count(*) from audit")), 1);
  EXPECT_EQ(ScalarInt(t1->Query("select n from audit")), 11)
      << "T2 must update the row T1's rule action wrote and committed";
  EXPECT_LT(t1->last_receipt().commit_lsn, t2->last_receipt().commit_lsn);
}

}  // namespace
}  // namespace sopr
