// Concurrent session front-end (docs/CONCURRENCY.md): SessionManager,
// Session, and the CommitScheduler's admission / fatal-state semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "concurrency/schedule.h"
#include "server/session_manager.h"
#include "test_util.h"
#include "wal/wal_writer.h"

namespace sopr {
namespace server {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sopr_session_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

class SessionManagerTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Instance().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  std::unique_ptr<SessionManager> OpenInMemory() {
    auto opened = SessionManager::Open(RuleEngineOptions());
    EXPECT_TRUE(opened.ok()) << opened.status();
    return opened.ok() ? std::move(opened).value() : nullptr;
  }
};

int64_t ScalarInt(Session* session, const std::string& sql) {
  auto result = session->Query(sql);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok() || result.value().rows.size() != 1) return -1;
  return result.value().rows[0].at(0).AsInt();
}

TEST_F(SessionManagerTest, SessionLifecycle) {
  std::unique_ptr<SessionManager> manager = OpenInMemory();
  ASSERT_NE(manager, nullptr);
  ASSERT_OK_AND_ASSIGN(Session * a, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(Session * b, manager->CreateSession());
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(manager->num_sessions(), 2u);
  const uint64_t a_id = a->id();  // `a` dangles once closed
  ASSERT_OK(manager->CloseSession(a_id));
  EXPECT_EQ(manager->num_sessions(), 1u);
  EXPECT_FALSE(manager->CloseSession(a_id).ok()) << "already closed";
}

TEST_F(SessionManagerTest, SessionLimit) {
  std::unique_ptr<SessionManager> manager = OpenInMemory();
  ASSERT_NE(manager, nullptr);
  manager->set_max_sessions(2);
  ASSERT_OK(manager->CreateSession().status());
  ASSERT_OK_AND_ASSIGN(Session * second, manager->CreateSession());
  auto third = manager->CreateSession();
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  ASSERT_OK(manager->CloseSession(second->id()));
  EXPECT_OK(manager->CreateSession().status());
}

TEST_F(SessionManagerTest, DdlAndDmlAndQueries) {
  std::unique_ptr<SessionManager> manager = OpenInMemory();
  ASSERT_NE(manager, nullptr);
  ASSERT_OK_AND_ASSIGN(Session * s, manager->CreateSession());
  ASSERT_OK(s->Execute("create table emp (id int, salary double)"));
  ASSERT_OK(s->Execute("insert into emp values (1, 100); "
                       "insert into emp values (2, 200)"));
  EXPECT_EQ(s->commits(), 1u) << "one block = one transaction";
  EXPECT_EQ(ScalarInt(s, "select count(*) from emp"), 2);
  // DDL and DML cannot share a script: which transaction would the DML
  // belong to?
  EXPECT_FALSE(
      s->Execute("create table t2 (x int); insert into t2 values (1)").ok());
}

TEST_F(SessionManagerTest, RollbackRuleSurfacesAsRolledBack) {
  std::unique_ptr<SessionManager> manager = OpenInMemory();
  ASSERT_NE(manager, nullptr);
  ASSERT_OK_AND_ASSIGN(Session * s, manager->CreateSession());
  ASSERT_OK(s->Execute("create table emp (id int, salary double)"));
  ASSERT_OK(s->Execute(
      "create rule positive when inserted into emp "
      "if exists (select * from inserted emp where salary < 0) "
      "then rollback"));
  Status st = s->Execute("insert into emp values (1, -5)");
  EXPECT_EQ(st.code(), StatusCode::kRolledBack) << st;
  EXPECT_EQ(s->aborts(), 1u);
  EXPECT_EQ(ScalarInt(s, "select count(*) from emp"), 0);
}

TEST_F(SessionManagerTest, SubmitFailpointRejectsWork) {
  std::unique_ptr<SessionManager> manager = OpenInMemory();
  ASSERT_NE(manager, nullptr);
  ASSERT_OK_AND_ASSIGN(Session * s, manager->CreateSession());
  ASSERT_OK(s->Execute("create table emp (id int)"));
  FailpointRegistry::Instance().Arm(
      "server.submit.pre", {FailpointRegistry::Mode::kOnce});
  EXPECT_FALSE(s->Execute("insert into emp values (1)").ok());
  ASSERT_OK(s->Execute("insert into emp values (1)"));
  FailpointRegistry::Instance().Arm(
      "server.session.create", {FailpointRegistry::Mode::kOnce});
  EXPECT_FALSE(manager->CreateSession().ok());
}

TEST_F(SessionManagerTest, ConcurrentSessionsSerializeCorrectly) {
  std::unique_ptr<SessionManager> manager = OpenInMemory();
  ASSERT_NE(manager, nullptr);
  ASSERT_OK_AND_ASSIGN(Session * setup, manager->CreateSession());
  ASSERT_OK(setup->Execute("create table counter (owner int, n int)"));
  ASSERT_OK(setup->Execute("create table audit (owner int)"));
  // Every insert into counter is audited — rule work rides inside each
  // session's transaction, so the audit count must match exactly.
  ASSERT_OK(setup->Execute(
      "create rule audit_ins when inserted into counter "
      "then insert into audit (select owner from inserted counter)"));

  constexpr int kSessions = 6;
  constexpr int kTxns = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      auto session = manager->CreateSession();
      if (!session.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int j = 0; j < kTxns; ++j) {
        Status st = session.value()->Execute(
            "insert into counter values (" + std::to_string(i) + ", " +
            std::to_string(j) + ")");
        if (!st.ok()) failures.fetch_add(1);
        // Interleave reads (shared lock) with the writes.
        auto read = session.value()->Query(
            "select count(*) from counter where owner = " +
            std::to_string(i));
        if (!read.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ScalarInt(setup, "select count(*) from counter"),
            kSessions * kTxns);
  EXPECT_EQ(ScalarInt(setup, "select count(*) from audit"),
            kSessions * kTxns);
  EXPECT_EQ(manager->scheduler().committed(),
            static_cast<uint64_t>(kSessions * kTxns));
}

TEST_F(SessionManagerTest, DdlDuringConcurrentTraffic) {
  std::unique_ptr<SessionManager> manager = OpenInMemory();
  ASSERT_NE(manager, nullptr);
  ASSERT_OK_AND_ASSIGN(Session * setup, manager->CreateSession());
  ASSERT_OK(setup->Execute("create table emp (id int)"));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> inserted{0};
  std::vector<std::thread> writers;
  for (int i = 0; i < 3; ++i) {
    writers.emplace_back([&, i] {
      auto session = manager->CreateSession();
      if (!session.ok()) {
        failures.fetch_add(1);
        return;
      }
      int j = 0;
      while (!stop.load()) {
        if (session.value()
                ->Execute("insert into emp values (" +
                          std::to_string(i * 100000 + j++) + ")")
                .ok()) {
          inserted.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }
  // DDL (new tables, a new rule, an index) lands mid-traffic through the
  // same exclusive section — with traffic provably flowing both before
  // and after it (a single-core scheduler can otherwise run this whole
  // block before any writer gets a slice).
  auto wait_for_inserts = [&](int target) {
    while (inserted.load() < target) std::this_thread::yield();
  };
  wait_for_inserts(10);
  ASSERT_OK_AND_ASSIGN(Session * ddl, manager->CreateSession());
  ASSERT_OK(ddl->Execute("create table audit (id int)"));
  ASSERT_OK(ddl->Execute(
      "create rule audit_ins when inserted into emp "
      "then insert into audit (select id from inserted emp)"));
  wait_for_inserts(inserted.load() + 10);
  ASSERT_OK(ddl->Execute("create index on emp (id)"));
  wait_for_inserts(inserted.load() + 10);
  stop.store(true);
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Rows inserted after the rule existed were audited; the index agrees
  // with a full scan.
  const int64_t total = ScalarInt(setup, "select count(*) from emp");
  const int64_t audited = ScalarInt(setup, "select count(*) from audit");
  EXPECT_GE(total, audited);
  EXPECT_GT(total, 0);
  EXPECT_GT(audited, 0) << "inserts after the rule landed must be audited";
}

// After a lost durability point the scheduler goes fatal: writes are
// refused with the recorded failure, reads keep working.
TEST_F(SessionManagerTest, FatalAfterPoisonFailsFastButStillReads) {
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  auto opened = SessionManager::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::unique_ptr<SessionManager> manager = std::move(opened).value();
  ASSERT_OK_AND_ASSIGN(Session * s, manager->CreateSession());
  ASSERT_OK(s->Execute("create table emp (id int)"));
  ASSERT_OK(s->Execute("insert into emp values (1)"));

  FailpointRegistry::Instance().Arm(
      "wal.sync", {FailpointRegistry::Mode::kAlways});
  Status st = s->Execute("insert into emp values (2)");
  ASSERT_FALSE(st.ok());
  FailpointRegistry::Instance().DisarmAll();

  // Fail-fast: later writes are refused BEFORE touching the engine...
  Status refused = s->Execute("insert into emp values (3)");
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("server halted"), std::string::npos)
      << refused;
  EXPECT_FALSE(manager->scheduler().fatal().ok());
  // ...and DDL too.
  EXPECT_FALSE(s->Execute("create table t2 (x int)").ok());
  // Reads still serve the intact in-memory state.
  EXPECT_EQ(ScalarInt(s, "select count(*) from emp"), 2);

  // A restart recovers to the durable prefix: only the first insert.
  manager.reset();
  auto reopened = SessionManager::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_OK_AND_ASSIGN(Session * r, reopened.value()->CreateSession());
  EXPECT_EQ(ScalarInt(r, "select count(*) from emp"), 1);
}

// --- Execute is a pipeline of one ------------------------------------------
// A single script must give the same outcome — status, per-session
// counters, receipt — through Execute and through ExecutePipelined.

struct EntryOutcome {
  StatusCode code = StatusCode::kOk;
  std::string message;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t statements = 0;
  CommitReceipt receipt;
  uint64_t setup_lsn = 0;  // last_receipt().commit_lsn before the script
};

struct EntryCase {
  const char* name;
  const char* script;
  enum class Before { kNothing, kKill, kBusy } before;
  StatusCode expected;
  bool commits;  // the script commits a new write transaction
};

enum class Entry { kExecute, kPipelined };

EntryOutcome RunEntryCase(const EntryCase& c, Entry entry) {
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  options.wal_fsync = WalFsyncPolicy::kOff;
  EntryOutcome out;
  {
    auto opened = SessionManager::Open(options);
    EXPECT_TRUE(opened.ok()) << opened.status();
    if (!opened.ok()) return out;
    std::unique_ptr<SessionManager> manager = std::move(opened).value();
    auto created = manager->CreateSession();
    EXPECT_TRUE(created.ok()) << created.status();
    if (!created.ok()) return out;
    Session* s = created.value();
    for (const char* sql :
         {"create table emp (id int, salary double)",
          "create rule positive when inserted into emp "
          "if exists (select * from inserted emp where salary < 0) "
          "then rollback",
          "insert into emp values (1, 10)"}) {
      EXPECT_OK(s->Execute(sql));
    }
    out.setup_lsn = s->last_receipt().commit_lsn;

    auto run = [&] {
      return entry == Entry::kExecute
                 ? s->Execute(c.script)
                 : s->ExecutePipelined({c.script})[0].status;
    };
    Status st;
    switch (c.before) {
      case EntryCase::Before::kNothing:
        st = run();
        break;
      case EntryCase::Before::kKill:
        s->Cancel("killed by the case table");
        st = run();
        break;
      case EntryCase::Before::kBusy: {
        // A statement parked in flight on the same session.
        test::Schedule schedule;
        schedule.BlockAt("rules.commit.pre");
        schedule.Spawn("busy", [&] {
          return s->Execute("insert into emp values (9, 90)");
        });
        schedule.WaitBlocked("rules.commit.pre");
        st = run();
        schedule.Release("rules.commit.pre");
        EXPECT_OK(schedule.Join("busy"));
        out.setup_lsn = s->last_receipt().commit_lsn;  // the busy commit
        break;
      }
    }
    out.code = st.code();
    out.message = st.message();
    out.commits = s->commits();
    out.aborts = s->aborts();
    out.statements = s->statements();
    out.receipt = s->last_receipt();
  }
  std::filesystem::remove_all(options.wal_dir);
  return out;
}

TEST_F(SessionManagerTest, ExecuteMatchesAPipelineOfOne) {
  using Before = EntryCase::Before;
  const EntryCase cases[] = {
      {"dml commit", "insert into emp values (2, 20); update emp set "
       "salary = salary + 1", Before::kNothing, StatusCode::kOk, true},
      {"rule rollback", "insert into emp values (3, -5)", Before::kNothing,
       StatusCode::kRolledBack, false},
      {"ddl", "create table t2 (x int)", Before::kNothing, StatusCode::kOk,
       false},
      {"mixed ddl/dml", "insert into emp values (4, 40); create table t3 "
       "(x int)", Before::kNothing, StatusCode::kInvalidArgument, false},
      {"parse error", "insert into emp valuez (5, 50)", Before::kNothing,
       StatusCode::kParseError, false},
      {"read-only script", "select * from emp; select count(*) from emp",
       Before::kNothing, StatusCode::kOk, false},
      {"killed session", "insert into emp values (6, 60)", Before::kKill,
       StatusCode::kCancelled, false},
      {"second in-flight statement", "insert into emp values (7, 70)",
       Before::kBusy, StatusCode::kOverloaded, false},
  };
  for (const EntryCase& c : cases) {
    SCOPED_TRACE(c.name);
    const EntryOutcome a = RunEntryCase(c, Entry::kExecute);
    const EntryOutcome b = RunEntryCase(c, Entry::kPipelined);
    EXPECT_EQ(a.code, c.expected) << a.message;
    EXPECT_EQ(a.receipt.commit_lsn > a.setup_lsn, c.commits);
    EXPECT_EQ(a.code, b.code);
    EXPECT_EQ(a.message, b.message);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.aborts, b.aborts);
    EXPECT_EQ(a.statements, b.statements);
    EXPECT_EQ(a.receipt.commit_lsn, b.receipt.commit_lsn);
    EXPECT_EQ(a.receipt.first_handle, b.receipt.first_handle);
  }
}

}  // namespace
}  // namespace server
}  // namespace sopr
