// Commit-time version GC (docs/CONCURRENCY.md "Pruning, checkpoints,
// recovery"): under the CommitScheduler the prune floor is the published
// visible LSN, which lags a commit's own LSN, so each commit queues the
// chains it leaves holding versions and a later commit prunes them once
// the floor has passed. These tests pin the bound that gives — retained
// versions stay within the in-flight transactions plus one lagging
// commit's rows, with no checkpoint — and that a pinned snapshot, even one
// racing the committers inside pin acquisition, still reads its state.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "concurrency/schedule.h"
#include "server/session_manager.h"
#include "test_util.h"

namespace sopr {
namespace {

/// An in-memory server: no WAL directory, so nothing ever checkpoints.
std::unique_ptr<server::SessionManager> OpenInMemory() {
  auto opened = server::SessionManager::Open(RuleEngineOptions{});
  EXPECT_TRUE(opened.ok()) << opened.status();
  return opened.ok() ? std::move(opened).value() : nullptr;
}

int64_t ScalarInt(const Result<QueryResult>& result) {
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok() || result.value().rows.size() != 1) return -1;
  return result.value().rows[0].at(0).AsInt();
}

std::string Transfer(int from, int to) {
  return "update acct set bal = bal - 1 where id = " + std::to_string(from) +
         "; update acct set bal = bal + 1 where id = " + std::to_string(to);
}

/// `rows` accounts with balance 100 each, indexed on id, in one commit.
void LoadAccounts(server::Session* session, int rows) {
  ASSERT_OK(session->Execute("create table acct (id int, bal int)"));
  ASSERT_OK(session->Execute("create index on acct (id)"));
  std::string insert = "insert into acct values (0, 100)";
  for (int i = 1; i < rows; ++i) {
    insert += ", (" + std::to_string(i) + ", 100)";
  }
  ASSERT_OK(session->Execute(insert));
}

class VersionGcTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Instance().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

// With one session nothing is in flight between statements, so the bound
// is one lagging commit's rows: the commit that supersedes a version
// stamps it at its own LSN, above the floor it read, and the next commit
// prunes it. A deleted row is never written again, so only a later
// commit's drain of the queue can prune its version.
TEST_F(VersionGcTest, InMemoryServerRetentionStaysBounded) {
  auto manager = OpenInMemory();
  ASSERT_NE(manager, nullptr);
  ASSERT_OK_AND_ASSIGN(server::Session * session, manager->CreateSession());
  const Database& db = manager->engine().db();
  ASSERT_OK(session->Execute("create table t (id int, v int)"));
  ASSERT_OK(session->Execute("create index on t (id)"));

  constexpr int kRows = 1000;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_OK(session->Execute("insert into t values (" + std::to_string(i) +
                               ", " + std::to_string(i) + ")"));
  }
  EXPECT_EQ(db.VersionCount(), 0u) << "inserts supersede nothing";
  EXPECT_EQ(db.PruneQueueLength(), 0u) << "inserts leave no chain to queue";

  for (int i = 0; i < kRows; ++i) {
    ASSERT_OK(session->Execute("delete from t where id = " +
                               std::to_string(i)));
  }
  EXPECT_LE(db.VersionCount(), 1u)
      << "only the last delete's version may wait for the floor";
  EXPECT_LE(db.PruneQueueLength(), 1u);
  EXPECT_EQ(ScalarInt(session->Query("select count(*) from t")), 0);

  LoadAccounts(session, 16);
  for (int k = 0; k < 200; ++k) {
    ASSERT_OK(session->Execute(Transfer(k % 16, (k * 7 + 3) % 16)));
  }
  EXPECT_LE(db.VersionCount(), 2u)
      << "only the last transfer's two versions may wait for the floor";
  EXPECT_LE(db.PruneQueueLength(), 1u);
  EXPECT_EQ(ScalarInt(session->Query("select sum(bal) from acct")), 1600);
  EXPECT_EQ(ScalarInt(session->Query("select bal from acct where id = 3")),
            ScalarInt(manager->engine().Query(
                "select bal from acct where id = 3")));
}

// A pin held across 200 transfers reads the pre-transfer balances and
// nothing newer; meanwhile each touched row keeps only the version the pin
// sees (plus the lagging commit's). Once the pin is released, the next
// commit re-prunes the pin-held chains: no checkpoint is needed.
TEST_F(VersionGcTest, PinHeldAcrossTransfersThenReleased) {
  auto manager = OpenInMemory();
  ASSERT_NE(manager, nullptr);
  ASSERT_OK_AND_ASSIGN(server::Session * writer, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session * reader, manager->CreateSession());
  const Database& db = manager->engine().db();
  constexpr int kAccounts = 16;
  LoadAccounts(writer, kAccounts);

  {
    ASSERT_OK_AND_ASSIGN(server::Session::Snapshot pin,
                         reader->PinSnapshot());
    for (int k = 0; k < 200; ++k) {
      ASSERT_OK(writer->Execute(Transfer(k % kAccounts,
                                         (k * 5 + 1) % kAccounts)));
      if (k % 50 == 49) {
        ASSERT_OK_AND_ASSIGN(
            QueryResult rows,
            reader->QueryAt(pin, "select id, bal from acct"));
        ASSERT_EQ(rows.rows.size(), static_cast<size_t>(kAccounts));
        for (const Row& row : rows.rows) {
          EXPECT_EQ(row.at(1).AsInt(), 100) << "account " << row.at(0).AsInt();
        }
        // The indexed point read at the pin walks the retained chains.
        EXPECT_EQ(ScalarInt(reader->QueryAt(
                      pin, "select bal from acct where id = 2")),
                  100);
      }
    }
    EXPECT_LE(db.VersionCount(), static_cast<size_t>(kAccounts) + 2)
        << "one pinned version per row plus the lagging commit's";
    EXPECT_GE(db.VersionCount(), static_cast<size_t>(kAccounts))
        << "every row was written, so the pin keeps one version of each";
  }
  ASSERT_OK(writer->Execute(Transfer(0, 1)));
  EXPECT_LE(db.VersionCount(), 2u)
      << "the first commit after the release prunes what the pin kept";
  EXPECT_EQ(ScalarInt(reader->Query("select sum(bal) from acct")),
            100 * kAccounts);
}

// The reader is parked INSIDE pin acquisition (server.pin.acquire fires
// under the registry mutex, before the visible-LSN load) while a
// committer runs: its floor collection cannot take the mutex, so it
// prunes nothing and queues its chains. Once the pin lands (on the
// published head), later commits drain the queue with the pin in the
// registry, and the pinned read still returns the state it pinned.
TEST_F(VersionGcTest, PinParkedInAcquireWhileCommittersDrain) {
  auto manager = OpenInMemory();
  ASSERT_NE(manager, nullptr);
  ASSERT_OK_AND_ASSIGN(server::Session * writer, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session * reader, manager->CreateSession());
  const Database& db = manager->engine().db();
  ASSERT_OK(writer->Execute("create table t (id int, v int)"));
  ASSERT_OK(writer->Execute("create index on t (id)"));
  ASSERT_OK(writer->Execute("insert into t values (1, 1), (2, 1)"));
  ASSERT_OK(writer->Execute("update t set v = 2 where id = 1"));
  ASSERT_EQ(db.PruneQueueLength(), 1u);

  server::Session::Snapshot pin;
  test::Schedule s;
  s.BlockAt("server.pin.acquire");
  s.Spawn("reader", [&]() -> Status {
    SOPR_ASSIGN_OR_RETURN(pin, reader->PinSnapshot());
    return Status::OK();
  });
  s.WaitBlocked("server.pin.acquire");

  s.Spawn("committer", [&] {
    return writer->Execute("update t set v = 3 where id = 1; "
                           "update t set v = 3 where id = 2");
  });
  ASSERT_OK(s.Join("committer"));
  EXPECT_EQ(db.PruneQueueLength(), 2u)
      << "a committer that cannot collect the pin set must not prune";
  EXPECT_EQ(db.VersionCount(), 3u);

  s.Release("server.pin.acquire");
  ASSERT_OK(s.Join("reader"));
  ASSERT_TRUE(pin.pinned());
  EXPECT_EQ(pin.lsn(), manager->engine().last_commit_lsn());

  for (int v = 4; v <= 8; ++v) {
    ASSERT_OK(writer->Execute("update t set v = " + std::to_string(v) +
                              " where id = 1; update t set v = " +
                              std::to_string(v) + " where id = 2"));
    EXPECT_EQ(ScalarInt(reader->QueryAt(pin, "select v from t where id = 1")),
              3);
    EXPECT_EQ(ScalarInt(reader->QueryAt(
                  pin, "select sum(v) from t where id = 1 or id = 2")),
              6);
  }
  EXPECT_LE(db.VersionCount(), 4u)
      << "two pinned versions plus the lagging commit's two";
  pin.Reset();
  ASSERT_OK(writer->Execute("update t set v = 9 where id = 1"));
  EXPECT_LE(db.VersionCount(), 1u);
}

// Concurrent writers and pinning readers: every snapshot sees the
// conserved total and agrees between its scan and its indexed point
// reads while committers drain each other's queue entries. Once the
// writers stop, one more commit brings retention back to its own rows.
TEST_F(VersionGcTest, ConcurrentTransfersAndSnapshotReaders) {
  auto manager = OpenInMemory();
  ASSERT_NE(manager, nullptr);
  ASSERT_OK_AND_ASSIGN(server::Session * loader, manager->CreateSession());
  constexpr int kAccounts = 32;
  LoadAccounts(loader, kAccounts);

  constexpr int kWriters = 2;
  constexpr int kTransfersEach = 150;
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  std::vector<Status> results(kWriters + 1, Status::OK());
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto session = manager->CreateSession();
      if (!session.ok()) {
        results[w] = session.status();
      } else {
        for (int k = 0; k < kTransfersEach && results[w].ok(); ++k) {
          // Each writer owns half of the accounts: no lock conflicts.
          const int base = w * (kAccounts / kWriters);
          const int span = kAccounts / kWriters;
          results[w] = session.value()->Execute(
              Transfer(base + k % span, base + (k * 3 + 1) % span));
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    auto session = manager->CreateSession();
    if (!session.ok()) {
      results[kWriters] = session.status();
      return;
    }
    server::Session* reader = session.value();
    while (writers_left.load() > 0 && results[kWriters].ok()) {
      auto pin = reader->PinSnapshot();
      if (!pin.ok()) {
        results[kWriters] = pin.status();
        return;
      }
      auto rows = reader->QueryAt(pin.value(), "select id, bal from acct");
      if (!rows.ok()) {
        results[kWriters] = rows.status();
        return;
      }
      int64_t total = 0;
      for (const Row& row : rows.value().rows) total += row.at(1).AsInt();
      const int probe = static_cast<int>(rows.value().rows.size()) / 2;
      auto point = reader->QueryAt(
          pin.value(), "select bal from acct where id = " +
                           std::to_string(rows.value().rows[probe]
                                              .at(0)
                                              .AsInt()));
      if (total != 100 * kAccounts) {
        results[kWriters] = Status::Internal("snapshot total " +
                                             std::to_string(total));
      } else if (!point.ok() || point.value().rows.size() != 1 ||
                 point.value().rows[0].at(0) !=
                     rows.value().rows[probe].at(1)) {
        results[kWriters] =
            Status::Internal("indexed snapshot read disagrees with scan");
      }
    }
  });
  for (std::thread& t : threads) t.join();
  for (const Status& status : results) ASSERT_OK(status);

  ASSERT_OK(loader->Execute(Transfer(0, kAccounts - 1)));
  EXPECT_LE(manager->engine().db().VersionCount(), 2u);
  EXPECT_EQ(ScalarInt(loader->Query("select sum(bal) from acct")),
            100 * kAccounts);
}

// perfbench loads its start state in 2,000-row inserts. Those commits
// leave no chain, so they must queue nothing: queuing every touched
// handle would add to the load's cost. Updates under the server's
// lagging floor do queue.
TEST_F(VersionGcTest, InsertOnlyCommitQueuesNothing) {
  auto manager = OpenInMemory();
  ASSERT_NE(manager, nullptr);
  ASSERT_OK_AND_ASSIGN(server::Session * session, manager->CreateSession());
  ASSERT_OK(session->Execute("create table t (id int, v int)"));
  std::string insert = "insert into t values (0, 0)";
  for (int i = 1; i < 2000; ++i) {
    insert += ", (" + std::to_string(i) + ", 0)";
  }
  ASSERT_OK(session->Execute(insert));
  EXPECT_EQ(manager->engine().db().PruneQueueLength(), 0u);
  EXPECT_EQ(manager->engine().db().VersionCount(), 0u);
  ASSERT_OK(session->Execute("update t set v = 1 where id < 10"));
  EXPECT_EQ(manager->engine().db().PruneQueueLength(), 1u);
  EXPECT_EQ(manager->engine().db().VersionCount(), 10u);
}

}  // namespace
}  // namespace sopr
