// Restart recovery: an Engine::Open on a WAL directory must rebuild
// exactly the committed state — catalog, heaps, indexes, rule set — and
// refuse to guess when the log is damaged anywhere but its tail.

#include "wal/recovery.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "common/failpoint.h"
#include "engine/engine.h"
#include "server/session_manager.h"
#include "test_util.h"
#include "wal/wal_format.h"
#include "wal/wal_writer.h"

namespace sopr {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sopr_recovery_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

RuleEngineOptions DurableOptions(const std::string& dir) {
  RuleEngineOptions options;
  options.wal_dir = dir;
  options.wal_fsync = WalFsyncPolicy::kOff;  // unit tests never kill -9
  return options;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Instance().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

TEST_F(RecoveryTest, FreshDirectoryAndEmptyLog) {
  std::string dir = MakeTempDir();
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    EXPECT_TRUE(engine->durable());
  }
  // Zero transactions ever ran; reopening the now-existing empty log must
  // be byte-for-byte boring.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(DurableOptions(dir)));
  EXPECT_TRUE(engine->durable());
  EXPECT_TRUE(engine->db().catalog().TableNames().empty());
}

TEST_F(RecoveryTest, EmptyWalDirMeansInMemory) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(RuleEngineOptions{}));
  EXPECT_FALSE(engine->durable());
  ASSERT_OK(engine->Execute("create table t (a int)"));
}

TEST_F(RecoveryTest, DdlOnlyRestart) {
  std::string dir = MakeTempDir();
  uint64_t checksum = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    ASSERT_OK(engine->Execute("create index on emp (dept_no)"));
    checksum = engine->StateChecksum();
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(DurableOptions(dir)));
  EXPECT_EQ(engine->StateChecksum(), checksum);
  ASSERT_OK_AND_ASSIGN(const Table* emp, engine->db().GetTable("emp"));
  EXPECT_EQ(emp->num_indexes(), 1u);
}

TEST_F(RecoveryTest, CommittedDataSurvivesRestart) {
  std::string dir = MakeTempDir();
  uint64_t checksum = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    LoadOrgChart(engine.get());
    ASSERT_OK(engine->Execute(
        "update emp set salary = 91000 where name = 'Jane'"));
    ASSERT_OK(engine->Execute("delete from emp where name = 'Bill'"));
    checksum = engine->StateChecksum();
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(DurableOptions(dir)));
  EXPECT_EQ(engine->StateChecksum(), checksum);
  EXPECT_OK(engine->CheckInvariants());
  EXPECT_EQ(QueryScalar(engine.get(),
                        "select salary from emp where name = 'Jane'"),
            Value::Double(91000));
  EXPECT_EQ(QueryScalar(engine.get(), "select count(*) from emp"),
            Value::Int(5));
}

TEST_F(RecoveryTest, RolledBackTransactionLeavesNoTrace) {
  std::string dir = MakeTempDir();
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    LoadOrgChart(engine.get());
    ASSERT_OK(engine->Begin());
    ASSERT_OK(engine->Run("insert into emp values ('Eve', 99, 1.0, 0)"));
    ASSERT_OK(engine->Rollback());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(DurableOptions(dir)));
  EXPECT_EQ(QueryScalar(engine.get(), "select count(*) from emp"),
            Value::Int(6));
}

TEST_F(RecoveryTest, RulesReplayAndFireAfterRestart) {
  std::string dir = MakeTempDir();
  uint64_t checksum = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    LoadOrgChart(engine.get());
    ASSERT_OK(engine->Execute(
        "create rule cascade when deleted from dept "
        "then delete from emp where dept_no in "
        "(select dept_no from deleted dept)"));
    ASSERT_OK(engine->Execute(
        "create rule off when inserted into dept then delete from dept "
        "where dept_no = -1"));
    ASSERT_OK(engine->Execute("deactivate rule off"));
    ASSERT_OK(engine->Execute("create rule priority cascade before off"));
    // The rule already fired once pre-restart; its effects are logged as
    // plain mutations.
    ASSERT_OK(engine->Execute("delete from dept where dept_no = 2"));
    checksum = engine->StateChecksum();
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(DurableOptions(dir)));
  EXPECT_EQ(engine->StateChecksum(), checksum);
  EXPECT_EQ(engine->rules().num_rules(), 2u);
  EXPECT_TRUE(engine->rules().priorities().Higher("cascade", "off"));
  ASSERT_OK_AND_ASSIGN(bool off_enabled, engine->rules().IsRuleEnabled("off"));
  EXPECT_FALSE(off_enabled);
  // Recovery replayed the pre-restart firing's effect exactly once.
  EXPECT_EQ(QueryScalar(engine.get(),
                        "select count(*) from emp where dept_no = 2"),
            Value::Int(0));
  // And the recovered rule fires on a fresh post-restart transition.
  ASSERT_OK(engine->Execute("delete from dept where dept_no = 3"));
  EXPECT_EQ(QueryScalar(engine.get(),
                        "select count(*) from emp where dept_no = 3"),
            Value::Int(0));
}

TEST_F(RecoveryTest, TornTailIsTruncatedAndCommittedPrefixKept) {
  std::string dir = MakeTempDir();
  uint64_t checksum = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    LoadOrgChart(engine.get());
    checksum = engine->StateChecksum();
  }
  // Fake an interrupted append: a header claiming more payload than the
  // file holds.
  const std::string log_path = wal::WalWriter::LogPath(dir);
  std::string bytes = ReadFileBytes(log_path);
  const uint64_t committed = bytes.size();
  bytes += std::string("\x40\x00\x00\x00", 4);  // len = 64
  bytes += "torn";
  WriteFileBytes(log_path, bytes);

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(DurableOptions(dir)));
  EXPECT_EQ(engine->StateChecksum(), checksum);
  // The tail is gone from disk, not just skipped.
  EXPECT_EQ(ReadFileBytes(log_path).size(), committed);
}

TEST_F(RecoveryTest, MidLogCorruptionIsAHardError) {
  std::string dir = MakeTempDir();
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    LoadOrgChart(engine.get());
  }
  const std::string log_path = wal::WalWriter::LogPath(dir);
  std::string bytes = ReadFileBytes(log_path);
  const uint64_t original_size = bytes.size();
  ASSERT_GT(bytes.size(), wal::kHeaderSize + 1);
  bytes[wal::kHeaderSize] ^= 0x01;  // first record's payload, data after
  WriteFileBytes(log_path, bytes);

  Result<std::unique_ptr<Engine>> reopened =
      Engine::Open(DurableOptions(dir));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  // No silent truncation: the damaged log is left for forensics.
  EXPECT_EQ(ReadFileBytes(log_path).size(), original_size);
}

TEST_F(RecoveryTest, CheckpointBoundsReplayAndTailReplays) {
  std::string dir = MakeTempDir();
  uint64_t checksum = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    LoadOrgChart(engine.get());
    ASSERT_OK(engine->Execute(
        "create rule cascade when deleted from dept "
        "then delete from emp where dept_no in "
        "(select dept_no from deleted dept)"));
    ASSERT_OK(engine->Checkpoint());
    // Post-checkpoint tail: must replay on top of the snapshot.
    ASSERT_OK(engine->Execute("insert into emp values ('Zed', 70, 100.0, 1)"));
    ASSERT_OK(engine->Execute("delete from dept where dept_no = 3"));
    checksum = engine->StateChecksum();
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(DurableOptions(dir)));
  EXPECT_EQ(engine->StateChecksum(), checksum);
  EXPECT_EQ(QueryScalar(engine.get(),
                        "select count(*) from emp where name = 'Zed'"),
            Value::Int(1));
  EXPECT_EQ(QueryScalar(engine.get(),
                        "select count(*) from emp where dept_no = 3"),
            Value::Int(0));
  // And the snapshot bounded replay: the main log starts after it.
  ASSERT_OK_AND_ASSIGN(wal::ScanResult log_scan,
                       wal::ScanLogFile(wal::WalWriter::LogPath(dir)));
  EXPECT_LE(log_scan.records.size(), 8u);  // two small txns, not the world
}

TEST_F(RecoveryTest, CheckpointInterruptedBeforeTruncateIsIdempotent) {
  std::string dir = MakeTempDir();
  uint64_t checksum = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    LoadOrgChart(engine.get());
    // The snapshot installs but the old log is never truncated: recovery
    // must skip the stale records (lsn <= covers_lsn) instead of applying
    // them twice on top of the snapshot.
    FailpointRegistry::Trigger once;
    once.mode = FailpointRegistry::Mode::kOnce;
    FailpointRegistry::Instance().Arm("wal.checkpoint.truncate", once);
    EXPECT_FALSE(engine->Checkpoint().ok());
    checksum = engine->StateChecksum();
  }
  ASSERT_OK_AND_ASSIGN(wal::ScanResult stale_log,
                       wal::ScanLogFile(wal::WalWriter::LogPath(dir)));
  ASSERT_FALSE(stale_log.records.empty());  // the untruncated old log

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(DurableOptions(dir)));
  EXPECT_EQ(engine->StateChecksum(), checksum);
  EXPECT_EQ(QueryScalar(engine.get(), "select count(*) from emp"),
            Value::Int(6));
}

TEST_F(RecoveryTest, LeftoverSnapshotTmpIsDiscarded) {
  std::string dir = MakeTempDir();
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
  }
  // An interrupted checkpoint that never renamed into place.
  WriteFileBytes(wal::WalWriter::SnapshotTmpPath(dir), "half a snapshot");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(DurableOptions(dir)));
  std::ifstream tmp(wal::WalWriter::SnapshotTmpPath(dir));
  EXPECT_FALSE(tmp.good());
}

TEST_F(RecoveryTest, DamagedSnapshotIsAHardError) {
  std::string dir = MakeTempDir();
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    LoadOrgChart(engine.get());
    ASSERT_OK(engine->Checkpoint());
  }
  const std::string snap_path = wal::WalWriter::SnapshotPath(dir);
  std::string bytes = ReadFileBytes(snap_path);
  bytes[wal::kHeaderSize] ^= 0x01;
  WriteFileBytes(snap_path, bytes);

  Result<std::unique_ptr<Engine>> reopened =
      Engine::Open(DurableOptions(dir));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(RecoveryTest, TupleHandlesNeverCollideAcrossRestarts) {
  std::string dir = MakeTempDir();
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    ASSERT_OK(engine->Execute("create table t (a int)"));
    ASSERT_OK(engine->Execute("insert into t values (1)"));
  }
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    ASSERT_OK(engine->Execute("insert into t values (2)"));
    EXPECT_EQ(QueryScalar(engine.get(), "select count(*) from t"),
              Value::Int(2));
  }
  // A handle collision would surface here as a redo conflict (DataLoss).
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(DurableOptions(dir)));
  EXPECT_EQ(QueryScalar(engine.get(), "select count(*) from t"),
            Value::Int(2));
  EXPECT_EQ(QueryScalar(engine.get(), "select sum(a) from t"), Value::Int(3));
}

TEST_F(RecoveryTest, FailedRecoveryIsRepeatable) {
  std::string dir = MakeTempDir();
  uint64_t checksum = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    LoadOrgChart(engine.get());
    checksum = engine->StateChecksum();
  }
  // Recovery dies mid-replay (e.g. the process crashes again); the log
  // was not modified, so the next attempt succeeds in full.
  FailpointRegistry::Trigger nth;
  nth.mode = FailpointRegistry::Mode::kNth;
  nth.n = 3;
  FailpointRegistry::Instance().Arm("wal.recover.replay", nth);
  EXPECT_FALSE(Engine::Open(DurableOptions(dir)).ok());
  FailpointRegistry::Instance().DisarmAll();

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(DurableOptions(dir)));
  EXPECT_EQ(engine->StateChecksum(), checksum);
}

TEST_F(RecoveryTest, AutomaticCheckpointInterval) {
  std::string dir = MakeTempDir();
  RuleEngineOptions options = DurableOptions(dir);
  options.wal_checkpoint_interval = 2;
  uint64_t checksum = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(options));
    ASSERT_OK(engine->Execute("create table t (a int)"));
    for (int i = 0; i < 5; ++i) {
      ASSERT_OK(engine->Execute("insert into t values (" +
                                std::to_string(i) + ")"));
    }
    checksum = engine->StateChecksum();
  }
  // The interval fired at least once: a snapshot exists.
  std::ifstream snap(wal::WalWriter::SnapshotPath(dir));
  EXPECT_TRUE(snap.good());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine, Engine::Open(options));
  EXPECT_EQ(engine->StateChecksum(), checksum);
  EXPECT_EQ(QueryScalar(engine.get(), "select count(*) from t"),
            Value::Int(5));
}

// --- Satellite: the state digest actually covers catalog and rule set ---

TEST_F(RecoveryTest, ChecksumCoversCatalogNotJustRows) {
  Engine a;
  Engine b;
  ASSERT_OK(a.Execute("create table t (a int)"));
  ASSERT_OK(b.Execute("create table t (a string)"));  // same name, no rows
  EXPECT_NE(a.StateChecksum(), b.StateChecksum());
  ASSERT_OK(b.Execute("drop table t"));
  ASSERT_OK(b.Execute("create table t (a int)"));
  EXPECT_EQ(a.StateChecksum(), b.StateChecksum());
  // Indexes are catalog state too.
  ASSERT_OK(a.Execute("create index on t (a)"));
  EXPECT_NE(a.StateChecksum(), b.StateChecksum());
}

TEST_F(RecoveryTest, ChecksumCoversRuleSetAndActivation) {
  Engine a;
  Engine b;
  for (Engine* e : {&a, &b}) {
    ASSERT_OK(e->Execute("create table t (a int)"));
    ASSERT_OK(e->Execute(
        "create rule watch when inserted into t then delete from t "
        "where a = -1"));
  }
  EXPECT_EQ(a.StateChecksum(), b.StateChecksum());
  ASSERT_OK(a.Execute("deactivate rule watch"));
  EXPECT_NE(a.StateChecksum(), b.StateChecksum());
  ASSERT_OK(a.Execute("activate rule watch"));
  EXPECT_EQ(a.StateChecksum(), b.StateChecksum());
  ASSERT_OK(a.Execute("drop rule watch"));
  EXPECT_NE(a.StateChecksum(), b.StateChecksum());
}

TEST_F(RecoveryTest, InvariantsCatchCatalogHeapDisagreement) {
  Engine engine;
  ASSERT_OK(engine.Execute("create table t (a int)"));
  EXPECT_OK(engine.CheckInvariants());
}

// --- Incremental resume + read-only bootstrap (docs/REPLICATION.md) ---

TEST_F(RecoveryTest, RecoveryStatsExposeTheIncrementalResumePoint) {
  std::string dir = MakeTempDir();
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    LoadOrgChart(engine.get());
  }
  ASSERT_OK_AND_ASSIGN(wal::ScanResult scan,
                       wal::ScanLogFile(wal::WalWriter::LogPath(dir)));
  ASSERT_EQ(scan.end, wal::ScanEnd::kClean);
  ASSERT_FALSE(scan.records.empty());

  Engine replica;
  ASSERT_OK_AND_ASSIGN(wal::RecoveryStats stats,
                       wal::RecoverDatabase(dir, &replica));
  // The resume point continues exactly where the full scan ended: a
  // tailer starting there with the stats' LSN seed reads nothing old.
  EXPECT_EQ(stats.resume_offset, scan.valid_bytes);
  EXPECT_EQ(stats.resume_lsn, scan.records.back().lsn);
  EXPECT_EQ(stats.applied_lsn, scan.records.back().lsn);
  EXPECT_EQ(stats.next_lsn, scan.records.back().lsn + 1);

  wal::ScanOptions opts;
  opts.start_offset = stats.resume_offset;
  opts.last_lsn = stats.resume_lsn;
  ASSERT_OK_AND_ASSIGN(wal::ScanResult resumed,
                       wal::ScanLogFile(wal::WalWriter::LogPath(dir), opts));
  EXPECT_TRUE(resumed.records.empty());
  EXPECT_EQ(resumed.end, wal::ScanEnd::kClean);
}

TEST_F(RecoveryTest, ReadOnlyRecoveryLeavesTheTornTailOnDisk) {
  // Follower bootstrap must not clean up after a LIVE primary: same torn
  // tail as TornTailIsTruncatedAndCommittedPrefixKept, but the read-only
  // recovery leaves every byte in place and instead reports the resume
  // point just before the tail.
  std::string dir = MakeTempDir();
  uint64_t checksum = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    LoadOrgChart(engine.get());
    checksum = engine->StateChecksum();
  }
  const std::string log_path = wal::WalWriter::LogPath(dir);
  std::string bytes = ReadFileBytes(log_path);
  const uint64_t committed = bytes.size();
  bytes += std::string("\x40\x00\x00\x00", 4);  // len = 64
  bytes += "torn";
  WriteFileBytes(log_path, bytes);

  Engine replica;
  wal::RecoverOptions opts;
  opts.read_only = true;
  ASSERT_OK_AND_ASSIGN(wal::RecoveryStats stats,
                       wal::RecoverDatabase(dir, &replica, opts));
  EXPECT_EQ(replica.StateChecksum(), checksum);
  EXPECT_EQ(stats.resume_offset, committed);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  EXPECT_EQ(ReadFileBytes(log_path).size(), bytes.size())
      << "read-only recovery must not truncate the primary's log";
}

TEST_F(RecoveryTest, ThroughLsnBehindTheCheckpointNamesItsCoversLsn) {
  std::string dir = MakeTempDir();
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    CreatePaperSchema(engine.get());
    LoadOrgChart(engine.get());
    ASSERT_OK(engine->Checkpoint());
  }
  ASSERT_OK_AND_ASSIGN(wal::ScanResult snap,
                       wal::ScanLogFile(wal::WalWriter::SnapshotPath(dir)));
  ASSERT_FALSE(snap.records.empty());
  const uint64_t covers = snap.records.front().covers_lsn;
  ASSERT_GT(covers, 1u);

  Engine replica;
  wal::RecoverOptions opts;
  opts.through_lsn = covers - 1;  // a prefix the log no longer holds
  Result<wal::RecoveryStats> bounded =
      wal::RecoverDatabase(dir, &replica, opts);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kInvalidArgument);
  // The message must name the covering checkpoint's covers_lsn so the
  // caller can bootstrap from the snapshot instead of guessing.
  EXPECT_NE(bounded.status().message().find(
                "covers_lsn is " + std::to_string(covers)),
            std::string::npos)
      << bounded.status();
  EXPECT_NE(bounded.status().message().find("bootstrap from the checkpoint"),
            std::string::npos)
      << bounded.status();
}

// Recovery stamps the checkpoint snapshot at its covers_lsn and each tail
// group at its COMMIT LSN, and each of those commits prunes what it
// superseded: the recovered engine carries no version state, and a
// snapshot pin reads the recovered rows. Redo application undo-logs past
// the undo budget — the log already made those mutations durable — so a
// snapshot and a group larger than max_undo_records both replay into an
// engine whose budget is armed.
TEST_F(RecoveryTest, RecoveryLeavesNoVersionState) {
  std::string dir = MakeTempDir();
  uint64_t checksum = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                         Engine::Open(DurableOptions(dir)));
    ASSERT_OK(engine->Execute("create table t (id int, v int)"));
    std::string insert = "insert into t values (0, 0)";
    for (int i = 1; i < 8; ++i) {
      insert += "; insert into t values (" + std::to_string(i) + ", " +
                std::to_string(i) + ")";
    }
    ASSERT_OK(engine->Execute(insert));
    ASSERT_OK(engine->Checkpoint());
    // Tail groups over the snapshot: an 8-row update, a delete, an insert.
    ASSERT_OK(engine->Execute("update t set v = v + 10"));
    ASSERT_OK(engine->Execute("delete from t where id = 7"));
    ASSERT_OK(engine->Execute("insert into t values (8, 18)"));
    checksum = engine->StateChecksum();
  }

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Engine> engine,
                       Engine::Open(DurableOptions(dir)));
  EXPECT_EQ(engine->StateChecksum(), checksum);
  EXPECT_EQ(engine->db().VersionCount(), 0u);
  EXPECT_EQ(engine->db().PruneQueueLength(), 0u);
  ASSERT_OK_AND_ASSIGN(const Table* t, engine->db().GetTable("t"));
  EXPECT_EQ(t->size(), 8u);
  for (const auto& [handle, entry] : t->rows()) {
    EXPECT_TRUE(engine->db().VerifyNoPending("t", handle)) << handle;
  }
  server::SessionManager manager(std::move(engine));
  ASSERT_OK_AND_ASSIGN(server::Session * session, manager.CreateSession());
  ASSERT_OK_AND_ASSIGN(server::Session::Snapshot pin, session->PinSnapshot());
  ASSERT_OK_AND_ASSIGN(QueryResult sum,
                       session->QueryAt(pin, "select sum(v) from t"));
  ASSERT_EQ(sum.rows.size(), 1u);
  EXPECT_EQ(sum.rows[0].at(0), Value::Int(21 + 70 + 18));

  // The same log into an engine whose undo budget (4 records) is armed.
  RuleEngineOptions budgeted;
  budgeted.max_undo_records = 4;
  Engine replica(budgeted);
  ASSERT_OK(replica.Execute("create table other (a int)"));
  ASSERT_OK(replica.Execute("insert into other values (1)"));
  ASSERT_OK_AND_ASSIGN(wal::RecoveryStats stats,
                       wal::RecoverDatabase(dir, &replica));
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(QueryScalar(&replica, "select sum(v) from t"),
            Value::Int(21 + 70 + 18));
  EXPECT_EQ(replica.db().VersionCount(), 0u);
}

}  // namespace
}  // namespace sopr
