#ifndef SOPR_WAL_WAL_WRITER_H_
#define SOPR_WAL_WAL_WRITER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/redo_sink.h"
#include "wal/wal_format.h"
#include "wal/wal_options.h"

namespace sopr {
namespace wal {

/// One transaction's claim on the group-commit pipeline. Produced by
/// WalWriter::StageCommitTxn, resolved by whichever thread leads the
/// cohort that writes and syncs the batch. All fields are guarded by the
/// writer's internal mutex until `done` is set (after which they are
/// immutable).
struct CommitTicket {
  bool done = false;
  Status status;
  uint64_t last_lsn = 0;  // the batch's COMMIT record LSN
};
using CommitTicketPtr = std::shared_ptr<CommitTicket>;

/// Counters for the group-commit pipeline (docs/CONCURRENCY.md). A
/// "cohort" is one leader round: one contiguous file write and at most
/// one fsync covering every batch staged at the time the leader drained
/// the queue.
struct GroupCommitStats {
  uint64_t cohorts = 0;         // leader rounds
  uint64_t batches = 0;         // transaction batches written via cohorts
  uint64_t largest_cohort = 0;  // max batches in one round
  /// cohort_size_hist[n] = rounds that carried n batches; sizes above 16
  /// land in the last bucket. Index 0 is unused.
  std::array<uint64_t, 17> cohort_size_hist{};
};

/// Group-commit WAL writer. Redo records for the current transaction are
/// buffered in memory and written as ONE contiguous BEGIN + redo* + COMMIT
/// batch when the transaction commits; an aborted transaction writes
/// nothing. Consequences:
///   - the durable log never contains records of an uncommitted
///     transaction except as a truncatable torn tail of the final batch;
///   - partial rollback (RollbackTo a mid-transaction mark) simply drops
///     the matching buffer suffix — undone work never reaches disk;
///   - recovery replays committed transactions only and never re-fires
///     rules: rule-generated mutations were logged like any other.
///
/// Commit is split into two phases so concurrent sessions can amortize
/// the fsync (the classic group-commit optimization):
///   1. StageCommitTxn encodes the batch and deposits it on a shared
///      queue, returning a CommitTicket. The caller's in-memory commit
///      happens here, inside the front-end's writer section.
///   2. AwaitDurable blocks until the ticket resolves. The first waiter
///      that finds the queue non-empty and no leader active becomes the
///      cohort leader: it drains the whole queue, writes every staged
///      batch with one contiguous write, fsyncs ONCE, and wakes all
///      followers. Transactions that stage while a leader is mid-fsync
///      form the next cohort.
/// CommitTxn (stage + await back-to-back) keeps the old single-session
/// behavior: a cohort of one, written and synced inline.
///
/// DDL records are logical (the statement's SQL text) and are written
/// immediately — the engine executes DDL outside rule transactions. DDL,
/// checkpoints, and log truncation first Flush() the staged queue so
/// records always land in LSN order.
///
/// After an fsync failure the writer poisons itself: every later append
/// fails with the sticky error. Post-EIO page-cache state is unknowable,
/// so pretending later syncs succeed would be a lie (the "fsync-gate"
/// lesson). A failed batch *write* for a cohort of one is recovered from
/// instead: the torn tail is truncated back to the last durable size and
/// the writer stays usable (the single caller still holds its undo and
/// rolls back). A failed write for a cohort of SEVERAL batches poisons
/// too: the staging sessions already committed in memory and cannot be
/// individually rolled back, so the in-memory and durable states have
/// diverged for good.
///
/// Thread safety: the transaction-lifecycle half (BeginTxn, redo
/// buffering, AbortTxn, StageCommitTxn) operates on PER-THREAD state —
/// each thread buffers its own transaction, so concurrent writer
/// sessions stage independent batches (record-level locking keeps their
/// row sets disjoint). LSN assignment inside StageCommitTxn must still
/// be externally serialized against other stagers (the rule engine's
/// commit mutex) so file order equals LSN order. AwaitDurable, Flush,
/// and the accessors are safe from any thread.
class WalWriter : public RedoSink {
 public:
  explicit WalWriter(WalFsyncPolicy policy) : policy_(policy) {}
  ~WalWriter() override;

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (creating if absent) `dir`/wal.log for appending. `next_lsn`
  /// and `next_txn_id` continue the sequences found by recovery; both are
  /// 1 on a fresh directory. The existing file must already be scanned
  /// and truncated clean by recovery — its current size is taken as the
  /// durable watermark.
  Status Open(const std::string& dir, uint64_t next_lsn,
              uint64_t next_txn_id);
  /// Drains any staged batches (best effort), then closes the file.
  void Close();

  /// --- Transaction lifecycle (driven by the rule engine) ---
  void BeginTxn();
  /// Drops all buffered redo. Nothing was written, so there is nothing to
  /// undo on disk.
  void AbortTxn();
  /// Single-session commit: StageCommitTxn + AwaitDurable. The batch is
  /// written and synced per policy before this returns. On error the
  /// transaction is NOT durable and the caller must roll it back.
  Status CommitTxn(TupleHandle next_handle);
  bool in_txn() const;

  /// --- Group-commit pipeline ---
  /// Encodes the buffered batch (BEGIN + redo* + COMMIT carrying
  /// `next_handle`) and deposits it on the staging queue. Returns a null
  /// ticket for a read-only transaction (empty buffer — nothing to make
  /// durable). On failure the transaction state is left intact so the
  /// caller can abort. Must run inside the front-end's serialized commit
  /// section.
  Result<CommitTicketPtr> StageCommitTxn(TupleHandle next_handle);
  /// Blocks until `ticket`'s cohort has been written and synced, leading
  /// the cohort if no other thread is. Null tickets (read-only) return OK
  /// immediately. Safe from any thread, with no engine lock held.
  Status AwaitDurable(const CommitTicketPtr& ticket);
  /// Drains the staging queue completely (leading cohorts as needed).
  /// Returns the poison status if the writer is poisoned; individual
  /// batch failures are reported on their tickets, not here.
  Status Flush();

  /// --- RedoSink ---
  Status RedoInsert(UndoLog::Mark pos, std::string_view table,
                    TupleHandle handle, const Row& after) override;
  Status RedoDelete(UndoLog::Mark pos, std::string_view table,
                    TupleHandle handle, const Row& before) override;
  Status RedoUpdate(UndoLog::Mark pos, std::string_view table,
                    TupleHandle handle, const Row& before,
                    const Row& after) override;
  void RedoDiscardAfter(UndoLog::Mark mark) override;

  /// Logs a DDL statement (schema or rule catalog change) and syncs per
  /// policy. The statement has already been applied in memory; its
  /// durability point is this call returning OK. Must not be called with
  /// buffered DML (DDL never executes inside a rule transaction). Flushes
  /// the staged queue first so the record lands in LSN order.
  Status AppendDdl(std::string_view sql);

  /// --- Checkpoint support ---
  uint64_t AllocateLsn() {
    return next_lsn_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t next_lsn() const { return next_lsn_.load(std::memory_order_relaxed); }
  /// Last LSN actually durable in the main log (0 if none).
  uint64_t durable_lsn() const;
  uint64_t commits_since_checkpoint() const;
  /// Truncates the main log to empty after a snapshot covering it has
  /// been installed. LSNs keep counting — they never reset. The caller
  /// (checkpoint writer) must have Flush()ed already — it needs the
  /// drained durable_lsn for the snapshot's covers_lsn anyway.
  Status StartNewLog();

  WalFsyncPolicy policy() const { return policy_; }
  const std::string& dir() const { return dir_; }
  /// Sticky failure after a lost fsync (OK while the writer is usable).
  Status poison_status() const;
  GroupCommitStats group_stats() const;

  /// Syncs `path`'s bytes to stable storage per `policy` (no-op for
  /// kOff). Exposed for the checkpoint writer.
  static Status SyncFile(const std::string& path, WalFsyncPolicy policy,
                         const char* failpoint_site);
  static Status SyncDir(const std::string& dir, WalFsyncPolicy policy);

  static std::string LogPath(const std::string& dir);
  static std::string SnapshotPath(const std::string& dir);
  static std::string SnapshotTmpPath(const std::string& dir);

 private:
  struct Pending {
    UndoLog::Mark pos;  // undo-log index; RedoDiscardAfter key
    WalRecord rec;      // lsn assigned at commit time
  };
  /// One encoded transaction batch waiting for a cohort leader.
  struct StagedBatch {
    std::string bytes;
    uint64_t last_lsn = 0;
    CommitTicketPtr ticket;
  };

  /// One thread's in-flight transaction: its id and buffered redo.
  struct TxnBuf {
    bool in_txn = false;
    uint64_t txn_id = 0;
    std::vector<Pending> buffer;
  };
  /// The calling thread's buffer for THIS writer (created on demand).
  TxnBuf& tls() const;
  /// Drops the calling thread's slot (transaction over).
  void DropTls() const;

  Status BufferRedo(UndoLog::Mark pos, WalRecord rec);
  /// Writes `bytes` at `offset` (split in two for the wal.write.mid
  /// torn-write site). On failure truncates the file back to `offset`;
  /// *poison is set when even that fails (tail unknowable — the caller
  /// must poison the writer). Pure file I/O — no writer bookkeeping;
  /// called without the mutex.
  Status WriteAt(uint64_t offset, const std::string& bytes, Status* poison);
  /// fsync guarded by the `failpoint_site` then wal.sync sites; a real or
  /// injected wal.sync failure poisons the writer. Called without the
  /// mutex.
  Status SyncSelf(const char* failpoint_site);
  /// Leads one cohort: drains the whole staging queue, writes it as one
  /// contiguous extent, syncs once, resolves every ticket. Expects
  /// `*lock` held and no leader active; temporarily releases the lock for
  /// file I/O and reacquires before returning.
  void LeadCohortLocked(std::unique_lock<std::mutex>* lock);
  Status CheckUsableLocked() const;

  const WalFsyncPolicy policy_;
  std::string dir_;  // set at Open
  int fd_ = -1;      // set at Open/Close only (quiesced transitions)

  // LSN / txn-id sequences: fetch_add from the serialized commit section
  // and the checkpoint writer; read anywhere.
  std::atomic<uint64_t> next_lsn_{1};
  std::atomic<uint64_t> next_txn_id_{1};

  // Group-commit state, guarded by mu_.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t durable_size_ = 0;  // bytes of wal.log known well-formed
  uint64_t durable_lsn_ = 0;
  uint64_t commits_since_checkpoint_ = 0;
  std::vector<StagedBatch> staged_;
  bool leader_active_ = false;
  Status poisoned_ = Status::OK();
  GroupCommitStats stats_;
};

}  // namespace wal
}  // namespace sopr

#endif  // SOPR_WAL_WAL_WRITER_H_
