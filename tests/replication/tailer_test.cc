// WalTailer unit suite: incremental tailing of a growing wal.log —
// resume offsets, torn-tail retry classification, rotation detection —
// plus the incremental-scan contract (a resumed scan must equal a full
// scan) and the shared backoff helper's determinism and bounds.

#include "replication/wal_tailer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/retry.h"
#include "test_util.h"
#include "wal/wal_format.h"
#include "wal/wal_writer.h"

namespace sopr {
namespace replication {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sopr_tailer_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void AppendFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void TruncateFile(const std::string& path, uint64_t size) {
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size)), 0) << path;
}

/// One committed group: BEGIN + COMMIT (the tailer never interprets
/// bodies, so redo records add nothing to these tests).
std::string EncodeGroup(uint64_t first_lsn, uint64_t txn) {
  std::string bytes;
  wal::AppendRecord(&bytes, wal::WalRecord::Begin(first_lsn, txn));
  wal::AppendRecord(&bytes, wal::WalRecord::Commit(first_lsn + 1, txn, 1));
  return bytes;
}

std::string EncodeDdl(uint64_t lsn, const std::string& sql) {
  std::string bytes;
  wal::AppendRecord(&bytes, wal::WalRecord::Ddl(lsn, sql));
  return bytes;
}

class TailerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Instance().DisarmAll();
    dir_ = MakeTempDir();
    log_ = wal::WalWriter::LogPath(dir_);
  }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  std::string dir_;
  std::string log_;
};

TEST_F(TailerTest, MissingLogIsIdleNotAnError) {
  WalTailer tailer(dir_, 0, 0);
  ASSERT_OK_AND_ASSIGN(TailBatch batch, tailer.Poll());
  EXPECT_EQ(batch.outcome, TailOutcome::kIdle);
  EXPECT_TRUE(batch.records.empty());
  EXPECT_EQ(tailer.bytes_read(), 0u);
}

TEST_F(TailerTest, DeliversRecordsIncrementallyWithoutRereading) {
  const std::string group1 = EncodeGroup(1, 1);
  AppendFileBytes(log_, group1);

  WalTailer tailer(dir_, 0, 0);
  ASSERT_OK_AND_ASSIGN(TailBatch batch, tailer.Poll());
  EXPECT_EQ(batch.outcome, TailOutcome::kProgress);
  ASSERT_EQ(batch.records.size(), 2u);
  EXPECT_EQ(batch.records[0].lsn, 1u);
  EXPECT_EQ(batch.records[1].lsn, 2u);
  EXPECT_EQ(batch.records[0].offset, 0u);
  EXPECT_EQ(tailer.offset(), group1.size());
  EXPECT_EQ(tailer.last_lsn(), 2u);
  EXPECT_EQ(batch.lag_bytes, 0u);

  // Nothing new: idle, and no bytes re-read.
  const uint64_t read_after_first = tailer.bytes_read();
  ASSERT_OK_AND_ASSIGN(batch, tailer.Poll());
  EXPECT_EQ(batch.outcome, TailOutcome::kIdle);
  EXPECT_EQ(tailer.bytes_read(), read_after_first);

  // The primary appends: only the new bytes are read, the new records'
  // offsets are absolute, and LSN continuity holds across the seam.
  const std::string group2 = EncodeGroup(3, 2);
  AppendFileBytes(log_, group2);
  ASSERT_OK_AND_ASSIGN(batch, tailer.Poll());
  EXPECT_EQ(batch.outcome, TailOutcome::kProgress);
  ASSERT_EQ(batch.records.size(), 2u);
  EXPECT_EQ(batch.records[0].lsn, 3u);
  EXPECT_EQ(batch.records[0].offset, group1.size());
  EXPECT_EQ(tailer.bytes_read(), read_after_first + group2.size());
  EXPECT_EQ(tailer.offset(), group1.size() + group2.size());
}

TEST_F(TailerTest, TornTailIsRetryableThenPickedUpWithoutRescan) {
  const std::string group1 = EncodeGroup(1, 1);
  const std::string group2 = EncodeGroup(3, 2);
  // 10 bytes cuts inside group 2's first record (8-byte header + a sliver
  // of payload), so no record of group 2 is deliverable yet.
  const size_t torn = 10;
  // Group 1 complete, group 2 only half-written (primary mid-write).
  AppendFileBytes(log_, group1);
  AppendFileBytes(log_, group2.substr(0, torn));

  WalTailer tailer(dir_, 0, 0);
  ASSERT_OK_AND_ASSIGN(TailBatch batch, tailer.Poll());
  // The complete prefix is delivered; the torn bytes are reported as lag,
  // classified retryable — NOT as corruption or data loss.
  EXPECT_EQ(batch.outcome, TailOutcome::kProgress);
  ASSERT_EQ(batch.records.size(), 2u);
  EXPECT_EQ(tailer.offset(), group1.size());
  EXPECT_EQ(batch.lag_bytes, torn);

  // Still torn: poll says retry-later, no records, no duplicated groups.
  ASSERT_OK_AND_ASSIGN(batch, tailer.Poll());
  EXPECT_EQ(batch.outcome, TailOutcome::kRetryLater);
  EXPECT_TRUE(batch.records.empty());
  EXPECT_FALSE(batch.detail.empty());

  // The primary finishes its write: the completed group arrives, exactly
  // once, and the tailer never re-read group 1 — total bytes read are
  // group1 + the torn fragment (twice: poll 1 and poll 2) + the full
  // group2 on poll 3, never 2x group1.
  AppendFileBytes(log_, group2.substr(torn));
  ASSERT_OK_AND_ASSIGN(batch, tailer.Poll());
  EXPECT_EQ(batch.outcome, TailOutcome::kProgress);
  ASSERT_EQ(batch.records.size(), 2u);
  EXPECT_EQ(batch.records[0].lsn, 3u);
  EXPECT_EQ(batch.records[1].lsn, 4u);
  EXPECT_EQ(batch.lag_bytes, 0u);
  EXPECT_EQ(tailer.offset(), group1.size() + group2.size());
  EXPECT_EQ(tailer.bytes_read(),
            group1.size() + torn + torn + group2.size());
}

TEST_F(TailerTest, ShrunkenLogIsRotation) {
  AppendFileBytes(log_, EncodeGroup(1, 1));
  WalTailer tailer(dir_, 0, 0);
  ASSERT_OK_AND_ASSIGN(TailBatch batch, tailer.Poll());
  ASSERT_EQ(batch.outcome, TailOutcome::kProgress);

  // A checkpoint truncated the log (StartNewLog): size < resume offset.
  TruncateFile(log_, 0);
  ASSERT_OK_AND_ASSIGN(batch, tailer.Poll());
  EXPECT_EQ(batch.outcome, TailOutcome::kRotated);

  // Re-anchored at the top of the fresh log, tailing resumes — and the
  // LSN seed still enforces monotonicity across the rotation.
  AppendFileBytes(log_, EncodeGroup(3, 2));
  tailer.Reposition(0, 2);
  ASSERT_OK_AND_ASSIGN(batch, tailer.Poll());
  EXPECT_EQ(batch.outcome, TailOutcome::kProgress);
  ASSERT_EQ(batch.records.size(), 2u);
  EXPECT_EQ(batch.records[0].lsn, 3u);
}

TEST_F(TailerTest, MidLogCorruptionIsDataLoss) {
  std::string bytes = EncodeGroup(1, 1) + EncodeGroup(3, 2);
  bytes[12] ^= 0x40;  // damage group 1's payload, valid data after it
  AppendFileBytes(log_, bytes);
  WalTailer tailer(dir_, 0, 0);
  Result<TailBatch> polled = tailer.Poll();
  ASSERT_FALSE(polled.ok());
  EXPECT_EQ(polled.status().code(), StatusCode::kDataLoss);
}

TEST_F(TailerTest, LsnRegressionAcrossSeamIsCaught) {
  // A stale tailer whose seed LSN is beyond the records it reads (the
  // "log was rotated underneath us at the same offset" shape) must not
  // silently deliver old LSNs again.
  AppendFileBytes(log_, EncodeGroup(5, 3));
  WalTailer tailer(dir_, 0, 100);
  Result<TailBatch> polled = tailer.Poll();
  ASSERT_FALSE(polled.ok());
  EXPECT_EQ(polled.status().code(), StatusCode::kDataLoss);
}

TEST_F(TailerTest, ReadFailpointSurfacesAsUnavailable) {
  AppendFileBytes(log_, EncodeGroup(1, 1));
  FailpointRegistry::Trigger trigger;
  trigger.mode = FailpointRegistry::Mode::kOnce;
  trigger.code = StatusCode::kUnavailable;
  FailpointRegistry::Instance().Arm("repl.tail.read", trigger);

  WalTailer tailer(dir_, 0, 0);
  Result<TailBatch> polled = tailer.Poll();
  ASSERT_FALSE(polled.ok());
  EXPECT_EQ(polled.status().code(), StatusCode::kUnavailable);
  // Retry succeeds and nothing was consumed by the failed attempt.
  ASSERT_OK_AND_ASSIGN(TailBatch batch, tailer.Poll());
  EXPECT_EQ(batch.outcome, TailOutcome::kProgress);
  EXPECT_EQ(batch.records.size(), 2u);
}

// --- Incremental-scan contract (wal/wal_format.h ScanOptions) ---

TEST_F(TailerTest, ResumedScanEqualsFullScan) {
  // Any split point that lands on a record boundary must make
  // (prefix scan) + (resumed scan) equal the full scan, record for
  // record, offset for offset.
  std::string bytes;
  bytes += EncodeDdl(1, "create table t (a int)");
  bytes += EncodeGroup(2, 1);
  bytes += EncodeGroup(4, 2);
  bytes += EncodeDdl(6, "create table u (b int)");
  AppendFileBytes(log_, bytes);

  ASSERT_OK_AND_ASSIGN(wal::ScanResult full, wal::ScanLogFile(log_));
  ASSERT_EQ(full.end, wal::ScanEnd::kClean);
  ASSERT_EQ(full.records.size(), 6u);

  for (size_t split = 1; split < full.records.size(); ++split) {
    SCOPED_TRACE("split=" + std::to_string(split));
    const uint64_t boundary = split < full.records.size()
                                  ? full.records[split].offset
                                  : full.valid_bytes;
    wal::ScanResult prefix =
        wal::ScanLogImage(std::string_view(bytes).substr(0, boundary));
    ASSERT_EQ(prefix.records.size(), split);

    wal::ScanOptions opts;
    opts.start_offset = prefix.valid_bytes;
    opts.last_lsn = prefix.records.back().lsn;
    ASSERT_OK_AND_ASSIGN(wal::ScanResult rest,
                         wal::ScanLogFile(log_, opts));
    ASSERT_EQ(prefix.records.size() + rest.records.size(),
              full.records.size());
    EXPECT_EQ(rest.valid_bytes, full.valid_bytes);
    EXPECT_EQ(rest.end, wal::ScanEnd::kClean);
    for (size_t i = 0; i < rest.records.size(); ++i) {
      const wal::WalRecord& got = rest.records[i];
      const wal::WalRecord& want = full.records[split + i];
      EXPECT_EQ(got.lsn, want.lsn);
      EXPECT_EQ(got.type, want.type);
      EXPECT_EQ(got.offset, want.offset);
      EXPECT_EQ(got.txn_id, want.txn_id);
      EXPECT_EQ(got.sql, want.sql);
    }
  }
}

TEST_F(TailerTest, ScanOffsetPastEofIsInvalidArgument) {
  AppendFileBytes(log_, EncodeGroup(1, 1));
  wal::ScanOptions opts;
  opts.start_offset = 1u << 20;
  Result<wal::ScanResult> scanned = wal::ScanLogFile(log_, opts);
  ASSERT_FALSE(scanned.ok());
  EXPECT_EQ(scanned.status().code(), StatusCode::kInvalidArgument);
}

// --- Backoff (common/retry.h) ---

TEST(BackoffTest, DeterministicBoundedAndMonotoneToTheCap) {
  RetryPolicy policy;
  policy.initial_delay = std::chrono::microseconds(100);
  policy.max_delay = std::chrono::microseconds(1600);
  policy.multiplier = 2.0;
  policy.jitter = 0.25;
  policy.max_attempts = 0;

  Backoff a(policy, /*seed=*/7);
  Backoff b(policy, /*seed=*/7);
  std::vector<int64_t> delays;
  for (int i = 0; i < 12; ++i) {
    auto da = a.NextDelay();
    auto db = b.NextDelay();
    EXPECT_EQ(da.count(), db.count()) << "same seed must be deterministic";
    delays.push_back(da.count());
    // Every delay stays inside the jitter envelope of the capped base.
    const double base = std::min<double>(100.0 * (1 << i), 1600.0);
    EXPECT_GE(da.count(), static_cast<int64_t>(base * 0.75) - 1);
    EXPECT_LE(da.count(), static_cast<int64_t>(base * 1.25) + 1);
  }
  // Late delays hover at the cap — exponential growth stopped.
  EXPECT_LE(delays.back(), 2000);
  EXPECT_GE(delays.back(), 1200);

  a.Reset();
  EXPECT_EQ(a.attempts(), 0u);
  auto first_again = a.NextDelay();
  EXPECT_GE(first_again.count(), 74);
  EXPECT_LE(first_again.count(), 126);
}

TEST(BackoffTest, MaxAttemptsBoundsShouldRetry) {
  RetryPolicy policy;
  policy.initial_delay = std::chrono::microseconds(1);
  policy.max_delay = std::chrono::microseconds(2);
  policy.max_attempts = 3;
  Backoff backoff(policy);
  int retries = 0;
  while (backoff.ShouldRetry()) {
    backoff.NextDelay();
    ++retries;
    ASSERT_LE(retries, 10);
  }
  EXPECT_EQ(retries, 3);
}

}  // namespace
}  // namespace replication
}  // namespace sopr
