// Conflict-oracle property suite (ISSUE 5): N writer threads hammer the
// same keyed table with randomized, conflicting two-row update blocks
// under record-level write locking. Strict 2PL holds every lock to the
// fixpoint's commit, so the record conflict order must equal the
// commit-LSN order — which makes a SERIAL replay of exactly the committed
// blocks, in commit-LSN order, the ground truth. The workload is
// update-only (no handle allocation after the seed), so the final state
// must match the oracle on the EXACT Database::Checksum — handles, heaps,
// indexes and all, not just logically.
//
// A production rule rides every transaction: "when updated accts.bal"
// bumps a stats counter once per FIXPOINT. Each block updates two rows in
// two statements; per Definition 2.1 the block's transitions compose into
// one net transition before rules are considered, so the rule fires once
// per committed block — stats.n equal to the commit count is direct
// evidence the composition holds across interleaved fixpoints (a
// per-statement firing would leave 2x).
//
// Also here: the bounded-version-chain property — commit-time incremental
// pruning keeps a hot row's chain short even while a long-pinned snapshot
// reader holds an old LSN alive.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "engine/engine.h"
#include "server/session_manager.h"
#include "storage/lock_manager.h"
#include "test_util.h"

namespace sopr {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sopr_lockprop_XXXXXX";
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

constexpr int kWriters = 4;
constexpr int kTxnsPerWriter = 40;
constexpr int kKeys = 8;  // few keys -> real conflicts and inversions

const char* kSchema[] = {
    "create table accts (id int, bal int)",
    "create index on accts (id)",
    "create table stats (n int)",
    // Fires once per committed fixpoint whose net transition updates
    // accts.bal — the stats counter therefore counts BLOCKS, not
    // statements (Definition 2.1 composition).
    "create rule touch when updated accts.bal "
    "then update stats set n = n + 1",
};

std::string SeedSql() {
  std::string sql = "insert into stats values (0)";
  for (int id = 0; id < kKeys; ++id) {
    sql += "; insert into accts values (" + std::to_string(id) + ", 0)";
  }
  return sql;
}

struct Committed {
  uint64_t lsn = 0;
  std::string sql;
  int delta = 0;  // sum of this block's bal increments
};

/// Two updates against distinct keys in RANDOM order: the lock-order
/// inversions this produces are what drives real deadlocks, whose victims
/// must vanish without a trace.
std::string MakeBlock(std::mt19937* rng, int* delta) {
  const int i = static_cast<int>((*rng)() % kKeys);
  int j = static_cast<int>((*rng)() % (kKeys - 1));
  if (j >= i) ++j;  // distinct
  const int k1 = 1 + static_cast<int>((*rng)() % 5);
  const int k2 = 1 + static_cast<int>((*rng)() % 5);
  *delta = k1 + k2;
  return "update accts set bal = bal + " + std::to_string(k1) +
         " where id = " + std::to_string(i) +
         "; update accts set bal = bal + " + std::to_string(k2) +
         " where id = " + std::to_string(j);
}

TEST(LockPropertyTest, InterleavedWritersMatchSerialReplayInCommitLsnOrder) {
  FailpointRegistry::Instance().DisarmAll();
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  options.verify_rollback_integrity = true;  // victims leave no garbage
  auto opened = server::SessionManager::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::unique_ptr<server::SessionManager> manager = std::move(opened).value();
  ASSERT_TRUE(manager->engine().concurrent_writers());

  ASSERT_OK_AND_ASSIGN(server::Session * setup, manager->CreateSession());
  for (const char* ddl : kSchema) ASSERT_OK(setup->Execute(ddl));
  ASSERT_OK(setup->Execute(SeedSql()));

  std::mutex merge_mu;
  std::vector<Committed> committed;
  std::atomic<int> deadlock_aborts{0};
  std::atomic<bool> unexpected_failure{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto session = manager->CreateSession();
      if (!session.ok()) {
        unexpected_failure.store(true);
        return;
      }
      std::mt19937 rng(1299709u * (w + 1));
      std::vector<Committed> mine;
      for (int t = 0; t < kTxnsPerWriter; ++t) {
        int delta = 0;
        const std::string block = MakeBlock(&rng, &delta);
        Status st = session.value()->Execute(block);
        if (st.ok()) {
          mine.push_back(Committed{session.value()->last_receipt().commit_lsn,
                                   block, delta});
        } else if (st.code() == StatusCode::kDeadlock) {
          // The only legal failure in a chaos-free run: a lock-cycle
          // victim. Rolled back whole; simply not replayed.
          deadlock_aborts.fetch_add(1);
        } else {
          unexpected_failure.store(true);
        }
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      committed.insert(committed.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : writers) t.join();

  ASSERT_FALSE(unexpected_failure.load());
  ASSERT_OK(manager->scheduler().fatal());
  ASSERT_OK(manager->engine().CheckInvariants());
  EXPECT_EQ(committed.size() + static_cast<size_t>(deadlock_aborts.load()),
            static_cast<size_t>(kWriters) * kTxnsPerWriter);
  ASSERT_EQ(
      manager->engine().db().lock_manager()->deadlocks(),
      static_cast<uint64_t>(deadlock_aborts.load()))
      << "every detected deadlock must surface as exactly one kDeadlock";

  // Commit LSNs are the claimed serialization order: totally ordered.
  std::sort(
      committed.begin(), committed.end(),
      [](const Committed& a, const Committed& b) { return a.lsn < b.lsn; });
  for (size_t k = 1; k < committed.size(); ++k) {
    ASSERT_LT(committed[k - 1].lsn, committed[k].lsn);
  }

  // Definition 2.1 across interleaved fixpoints: one rule firing per
  // committed block, never per statement, never for a victim.
  EXPECT_EQ(ScalarInt(setup->Query("select n from stats")),
            static_cast<int64_t>(committed.size()));
  int64_t expected_sum = 0;
  for (const Committed& txn : committed) expected_sum += txn.delta;
  EXPECT_EQ(ScalarInt(setup->Query("select sum(bal) from accts")),
            expected_sum);

  // The oracle: a serial engine replaying exactly the committed blocks in
  // commit-LSN order. Update-only after the seed, so even tuple-handle
  // assignment agrees — the checksums must match EXACTLY.
  const uint64_t live_checksum = manager->engine().db().Checksum();
  Engine oracle((RuleEngineOptions()));
  for (const char* ddl : kSchema) ASSERT_OK(oracle.Execute(ddl));
  ASSERT_OK(oracle.Execute(SeedSql()));
  for (const Committed& txn : committed) {
    Status replayed = oracle.Execute(txn.sql);
    ASSERT_TRUE(replayed.ok()) << txn.sql << " -> " << replayed;
  }
  EXPECT_EQ(oracle.db().Checksum(), live_checksum)
      << "interleaved execution diverged from its commit-LSN serialization";
}

// --- Bounded version chains under a long-pinned reader --------------------
// A hot writer updates ONE row many times while a reader keeps an early
// snapshot pinned for the whole run. Commit-time incremental pruning must
// keep the chain at O(pins), not O(updates): each commit retires the
// versions no pin and no future pin can read. The pinned read stays exact
// throughout, and an explicit checkpoint collects everything once the pin
// is gone.
TEST(LockPropertyTest, HotRowChainStaysBoundedUnderPinnedReader) {
  FailpointRegistry::Instance().DisarmAll();
  RuleEngineOptions options;
  options.wal_dir = MakeTempDir();
  auto opened = server::SessionManager::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::unique_ptr<server::SessionManager> manager = std::move(opened).value();

  ASSERT_OK_AND_ASSIGN(server::Session * writer, manager->CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session * reader, manager->CreateSession());
  ASSERT_OK(writer->Execute("create table t (id int, v int)"));
  ASSERT_OK(writer->Execute("create index on t (id)"));
  ASSERT_OK(writer->Execute("insert into t values (1, 0)"));

  constexpr int kUpdates = 200;
  {
    ASSERT_OK_AND_ASSIGN(server::Session::Snapshot pin,
                         reader->PinSnapshot());
    for (int k = 1; k <= kUpdates; ++k) {
      ASSERT_OK(writer->Execute("update t set v = " + std::to_string(k) +
                                " where id = 1"));
      // The long-pinned snapshot keeps reading its version of the row.
      if (k % 50 == 0) {
        EXPECT_EQ(ScalarInt(reader->QueryAt(pin,
                                            "select v from t where id = 1")),
                  0);
      }
    }
    EXPECT_EQ(ScalarInt(writer->Query("select v from t where id = 1")),
              kUpdates);
    // The bound: one version covering the pin plus the freshest
    // superseded one (its end-LSN is the head, which the floor only
    // reaches after the NEXT commit publishes) — not 200.
    EXPECT_LE(manager->engine().db().VersionCount(), 3u)
        << "incremental pruning must bound the chain at O(pins)";
    EXPECT_GE(manager->engine().db().VersionCount(), 1u)
        << "the pinned snapshot's version must survive every prune";
  }
  // Pin released: a checkpoint prunes to the head and collects the rest.
  ASSERT_OK(manager->scheduler().WithExclusive(
      [&] { return manager->engine().Checkpoint(); }));
  EXPECT_EQ(manager->engine().db().VersionCount(), 0u);
}

}  // namespace
}  // namespace sopr
