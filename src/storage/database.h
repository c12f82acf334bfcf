#ifndef SOPR_STORAGE_DATABASE_H_
#define SOPR_STORAGE_DATABASE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "storage/lock_manager.h"
#include "storage/mvcc.h"
#include "storage/redo_sink.h"
#include "storage/table.h"
#include "storage/tuple_handle.h"
#include "storage/undo_log.h"

namespace sopr {

/// A relational database state: catalog + versioned heap tables +
/// transaction-scope undo log. This is the substrate the paper assumes
/// ("multiple users, concurrent processing, and failures are all
/// transparent", §2.1): mutations are applied immediately, can be rolled
/// back to any earlier mark within the current transaction, and become
/// visible to snapshot readers at their commit LSN.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const Catalog& catalog() const { return catalog_; }

  /// DDL: creates the table (schema-checked by the catalog).
  Status CreateTable(TableSchema schema);
  Status DropTable(std::string_view name);

  Result<Table*> GetTable(std::string_view name);
  Result<const Table*> GetTable(std::string_view name) const;

  /// DML primitives. Each validates against the schema, applies the
  /// mutation, assigns/uses handles, and appends an undo record.
  Result<TupleHandle> InsertRow(std::string_view table, Row row);
  Status DeleteRow(std::string_view table, TupleHandle handle);
  Status UpdateRow(std::string_view table, TupleHandle handle, Row new_row);

  /// Number of handles ever allocated (monotonic, never reused).
  TupleHandle last_handle() const {
    return next_handle_.load(std::memory_order_acquire) - 1;
  }
  TupleHandle next_handle() const {
    return next_handle_.load(std::memory_order_acquire);
  }

  /// Attaches (or detaches, with nullptr) a redo sink. Once attached,
  /// every applied mutation emits a physical redo record; a mutation whose
  /// redo cannot be buffered is reverted and fails, exactly like one whose
  /// undo cannot be logged.
  void set_wal(RedoSink* wal) { wal_ = wal; }

  /// --- Recovery-only redo application ---
  /// Applies a logged mutation verbatim: failpoints suppressed, no redo
  /// emitted, before-images validated against the heap (a mismatch is
  /// kDataLoss — the log and the recovered state have diverged), and
  /// next_handle bumped past any handle seen. The mutation is undo-logged
  /// past the undo budget, so the caller's CommitAll stamps it; an insert
  /// given a committed `begin` (a checkpoint snapshot's row, at its
  /// covers_lsn) is stamped already and is not logged.
  Status ApplyRedoInsert(std::string_view table, TupleHandle handle,
                         Row after, uint64_t begin = kPendingLsn);
  Status ApplyRedoDelete(std::string_view table, TupleHandle handle,
                         const Row& before);
  Status ApplyRedoUpdate(std::string_view table, TupleHandle handle,
                         const Row& before, Row after);

  /// Ensures next_handle >= `h` (recovery restores the counter from
  /// COMMIT / snapshot records so handles stay never-reused across
  /// restarts).
  void BumpNextHandle(TupleHandle h) {
    uint64_t cur = next_handle_.load(std::memory_order_relaxed);
    while (h > cur && !next_handle_.compare_exchange_weak(
                          cur, h, std::memory_order_acq_rel)) {
    }
  }

  /// --- Transaction support ---
  ///
  /// Without write locking (or without a bound transaction) the
  /// transaction-scoped APIs below use one database-wide undo log. With
  /// write locking enabled (EnableWriteLocking) a caller binds a
  /// per-transaction context to ITS THREAD via BeginTxn/EndTxn; every
  /// transaction-scoped API below (UndoMark, RollbackTo, CommitAll,
  /// undo_log_size, the budget, and the mutation paths' undo appends)
  /// then routes to the calling thread's context, so concurrent writers
  /// never share undo state. Mutations additionally take record X locks
  /// (table IX) for the bound transaction; strict two-phase — EndTxn is
  /// the single release point, after commit or full rollback.

  /// Binds a fresh transaction context to the calling thread (requires
  /// EnableWriteLocking; no-op otherwise). Must be paired with EndTxn.
  void BeginTxn();
  /// Releases every lock the thread's transaction holds and unbinds its
  /// context. Safe to call when none is bound.
  void EndTxn();
  /// True when the calling thread has a bound transaction context.
  bool InTxn() const;
  /// The bound transaction's lock-manager id (0 when unbound).
  uint64_t txn_id() const;

  /// Current undo-log position; rolling back to it undoes everything
  /// logged afterwards.
  UndoLog::Mark UndoMark() const { return active_undo().mark(); }

  /// Reverses all mutations logged after `mark` (most recent first) and
  /// truncates the log. Tuple handles consumed meanwhile stay consumed —
  /// handles are never reused even across rollback.
  Status RollbackTo(UndoLog::Mark mark);

  /// Commit point: stamps every version this transaction wrote (the rows
  /// its undo log names) to `commit_lsn`, prunes what no snapshot can
  /// see any more — of its own chains and of the chains earlier commits
  /// left queued — and forgets the undo information (the paper's model
  /// has no post-commit rollback). Callers with a WAL pass the COMMIT
  /// record's LSN; callers without one pass 0 and get a synthetic
  /// monotonically increasing LSN.
  void CommitAll(uint64_t commit_lsn = 0);

  /// Queued (commit LSN, table, handles) entries: chains a commit left
  /// holding versions because the prune floor had not reached its LSN,
  /// waiting for a later commit to prune them (see CommitAll).
  size_t PruneQueueLength() const;

  size_t undo_log_size() const { return active_undo().size(); }

  // --- Record-level write locking (docs/CONCURRENCY.md) -------------------

  /// Creates the lock manager; from then on, threads that BeginTxn get
  /// per-record strict-2PL write locking. Threads without a bound
  /// transaction (recovery, DDL under the scheduler's exclusive wall)
  /// bypass locking entirely.
  void EnableWriteLocking();
  LockManager* lock_manager() const { return locks_.get(); }

  /// Lock seams the query layer calls before reading the write-side
  /// head. All are no-ops unless locking is on AND the calling thread
  /// has a bound transaction (snapshot readers never lock).
  Status LockForScan(std::string_view table) const;        // table S
  Status LockForWriteScan(std::string_view table) const;   // table X
  Status LockRecordForRead(std::string_view table, TupleHandle h) const;
  Status LockRecordForWrite(std::string_view table, TupleHandle h) const;

  /// Commit-time pruning floor (docs/CONCURRENCY.md): CommitAll prunes
  /// version chains against the currently pinned snapshots plus a floor
  /// below which no future pin can read. Set, the floor is this provider
  /// (the scheduler's published visible LSN — any future pin gets an
  /// LSN >= it), which lags the commit's own LSN, so each commit queues
  /// the chains it leaves holding versions for the next commit to prune.
  /// Unset (default), it is the commit's own LSN and nothing is queued:
  /// a reader must pin an LSN before the commit that supersedes what it
  /// reads.
  void set_incremental_prune_floor(std::function<uint64_t()> floor) {
    prune_floor_ = std::move(floor);
  }

  /// True iff no kPendingLsn sentinel remains on `handle` in `table`
  /// (post-abort structural integrity; see Table::VerifyNoPending).
  bool VerifyNoPending(std::string_view table, TupleHandle handle) const;

  /// The (table, handle) pairs the calling thread's transaction has
  /// mutated so far, read from its undo log (may contain duplicates).
  /// Capture BEFORE RollbackTo — rollback truncates the log.
  std::vector<std::pair<std::string, TupleHandle>> TouchedRows() const;

  // --- Versions -----------------------------------------------------------

  /// LSN of the most recent commit (0 before the first one). This is the
  /// newest meaningful snapshot point.
  uint64_t last_commit_lsn() const {
    return last_commit_lsn_.load(std::memory_order_acquire);
  }

  /// Readers pin the snapshots they are using so checkpoint pruning
  /// keeps the versions those snapshots can see.
  SnapshotRegistry& snapshots() const { return snapshots_; }
  SnapshotRegistry::Pin PinSnapshot(uint64_t lsn) const {
    return snapshots_.Acquire(lsn);
  }

  /// Drops version state invisible to every snapshot at or after `floor`
  /// across all tables; returns versions discarded.
  size_t PruneVersions(uint64_t floor);

  /// Total superseded row versions retained across all tables.
  size_t VersionCount() const;

  /// Caps undo-log growth (0 = unlimited); a mutation that would exceed
  /// the budget fails with kResourceExhausted and is NOT applied. The log
  /// is cleared at commit, so the budget is effectively per-transaction.
  void set_undo_budget(size_t records) {
    active_undo().set_record_budget(records);
  }
  size_t undo_budget() const { return active_undo().record_budget(); }

  /// Order-independent digest over the catalog (table names, column
  /// names/types, index structure) and all table heaps and index
  /// contents. Two databases with identical logical state produce the
  /// same checksum; a schema difference, heap/index divergence, or a
  /// lost/phantom row changes it. O(total rows). Recovery certifies a
  /// restart by comparing this against the pre-crash committed value.
  uint64_t Checksum() const;

  /// Handle-insensitive variant: digests the catalog plus the multiset
  /// of row VALUES per table, ignoring tuple handles and index entries
  /// (whose contents embed handles). Two states that differ only in
  /// handle assignment — e.g. a concurrent run vs its serial replay,
  /// where interleaved inserts drew from the shared counter in a
  /// different order — compare equal; any difference in actual row data
  /// does not.
  uint64_t LogicalChecksum() const;

  /// Verifies physical invariants: the catalog and the heap agree on the
  /// set of tables, and every indexed table's index agrees exactly with
  /// its heap (each non-NULL key maps its handle; no stale entries).
  /// Returns kInternal describing the first violation.
  Status CheckInvariants() const;

 private:
  /// Per-transaction mutable state, bound to one thread between
  /// BeginTxn and EndTxn. Each concurrent writer gets its own undo log;
  /// the lock manager id doubles as the wait-for-graph node.
  struct TxnContext {
    uint64_t txn_id = 0;
    UndoLog undo;
  };
  /// The calling thread's (database -> context) bindings.
  static std::vector<std::pair<const Database*, std::unique_ptr<TxnContext>>>&
  TlsContexts();
  /// The calling thread's bound context for THIS database, or nullptr.
  TxnContext* txn_ctx() const;
  /// The undo log transaction-scoped APIs operate on: the bound
  /// context's when one exists, the database-wide legacy log otherwise.
  UndoLog& active_undo() const;
  /// Record-X acquisition for the bound transaction (no-op when
  /// unbound / locking off). Every mutation path calls this before
  /// touching the heap.
  Status LockMutation(std::string_view table, TupleHandle handle) const;

  /// Tripwire for the concurrent front-end (docs/CONCURRENCY.md): counts
  /// threads currently inside a mutation or rollback entry point. The
  /// commit scheduler must admit one writer at a time — unless the
  /// writers carry bound locking transactions, which serialize through
  /// the lock manager instead; if two ever overlap otherwise, the
  /// mutation fails kInternal instead of silently racing on heaps and
  /// the undo log. Reads are not counted — the front-end's shared lock
  /// covers them.
  struct MutationScope {
    explicit MutationScope(std::atomic<int>* active) : active(active) {
      exclusive = active->fetch_add(1, std::memory_order_acq_rel) == 0;
    }
    ~MutationScope() { active->fetch_sub(1, std::memory_order_acq_rel); }
    MutationScope(const MutationScope&) = delete;
    MutationScope& operator=(const MutationScope&) = delete;
    std::atomic<int>* active;
    bool exclusive;
  };
  static Status ConcurrentMutationError();

  Catalog catalog_;
  std::map<std::string, Table> tables_;  // key: lowercased name
  /// Mutable because active_undo() is const (it is reached from const
  /// transaction-scoped accessors like UndoMark).
  mutable UndoLog undo_;
  RedoSink* wal_ = nullptr;  // not owned; null when durability is off
  std::atomic<TupleHandle> next_handle_{1};
  std::atomic<int> active_mutators_{0};

  /// Null until EnableWriteLocking().
  std::unique_ptr<LockManager> locks_;
  std::atomic<uint64_t> next_txn_id_{1};
  /// Commit-time prune floor provider; unset = each commit's own LSN.
  std::function<uint64_t()> prune_floor_;

  /// Chains one commit left holding versions.
  struct PruneEntry {
    uint64_t lsn = 0;
    std::string table;  // lowercased
    std::vector<TupleHandle> handles;
  };
  /// Prunes every queued entry at or below `view.floor`, moving the
  /// chains a pin still holds to pin_held_, and re-prunes pin_held_ once
  /// a pin was released since the last look. Caller holds gc_mu_.
  void DrainPruneQueue(const SnapshotRegistry::PruneView& view);
  /// Guards the three members below. CommitAll callers are serialized
  /// already (the rule engine's commit mutex, the follower's exclusive
  /// apply); the mutex makes PruneQueueLength safe from any thread.
  mutable std::mutex gc_mu_;
  /// Ascending commit LSN (commits are serialized).
  std::deque<PruneEntry> prune_queue_;
  /// Per table, the handles whose chains only a live pin keeps.
  std::map<std::string, std::set<TupleHandle>> pin_held_;
  /// SnapshotRegistry::PruneView::releases when pin_held_ was last
  /// re-pruned.
  uint64_t pin_releases_seen_ = 0;

  std::atomic<uint64_t> last_commit_lsn_{0};
  mutable SnapshotRegistry snapshots_;
};

}  // namespace sopr

#endif  // SOPR_STORAGE_DATABASE_H_
