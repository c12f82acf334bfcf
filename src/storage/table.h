#ifndef SOPR_STORAGE_TABLE_H_
#define SOPR_STORAGE_TABLE_H_

#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/index.h"
#include "storage/mvcc.h"
#include "storage/tuple_handle.h"
#include "types/row.h"

namespace sopr {

/// The read point of Table::Scan / ProbeEq that stands for the
/// write-side head: every live heap row, uncommitted writes included. As
/// an LSN it sees exactly that (every live row begins at or below it, no
/// superseded version ends above it), but head reads never walk chains.
inline constexpr uint64_t kHeadLsn = kPendingLsn;

/// Heap storage for one table: handle → row. Duplicate rows are allowed
/// (they have distinct handles, per the paper's model). Iteration order is
/// ascending handle, i.e. insertion order, which keeps traces deterministic.
///
/// MVCC (docs/CONCURRENCY.md): after EnableMvcc(), every mutation also
/// maintains per-tuple version state under a per-table latch —
///   - live_begin: the commit LSN from which the current heap row is
///     visible (absent = 0, i.e. visible to every snapshot; kPendingLsn
///     while the writing transaction is in flight);
///   - per-handle chains of superseded RowVersions, each ending at the
///     LSN of the commit that superseded it.
/// Scan / ProbeEq read either the write-side head or the state as of a
/// snapshot LSN under the shared side of the latch, concurrent with
/// writers (who take the exclusive side only for the short heap +
/// version critical section). The unlatched accessors (rows(), Get) read
/// the write-side head and rely on the caller's locking.
class Table {
 public:
  explicit Table(TableSchema schema) : schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const TableSchema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }

  /// Adds a row under a caller-supplied handle (the Database allocates
  /// handles so they are unique across tables). Row must already be
  /// schema-checked by the caller.
  Status Insert(TupleHandle handle, Row row);

  /// Removes the row; fails if the handle is absent.
  Status Erase(TupleHandle handle);

  /// Replaces the row in place; fails if the handle is absent.
  Status Replace(TupleHandle handle, Row row);

  bool Contains(TupleHandle handle) const { return rows_.count(handle) > 0; }

  /// Fails with ExecutionError if the handle is absent.
  Result<const Row*> Get(TupleHandle handle) const;

  /// Ordered (handle, row) view for scans.
  const std::map<TupleHandle, Row>& rows() const { return rows_; }

  // --- Latched head accessors (concurrent writers) ------------------------
  // rows()/Get() read the write-side head unlatched and rely on the
  // caller's locking; with record-level locking two writers mutate the
  // same table concurrently, so readers of the head must copy out under
  // the shared side of the MVCC latch (the same latch every mutation
  // takes exclusive). All three degrade to plain unlatched reads with
  // MVCC off.

  /// Copy-out Get: the row under `handle`, ExecutionError if absent.
  Result<Row> GetCopy(TupleHandle handle) const;

  /// Batched GetCopy: copies the rows under `handles` (in order) under
  /// one shared-latch acquisition instead of one per row — the
  /// vectorized transition-table materialization path. Fails on the
  /// first absent handle with GetCopy's error.
  Status GetCopyBatch(const std::vector<TupleHandle>& handles,
                      std::vector<Row>* out) const;

  /// Builds an equality index on `column` (idempotent: a second request
  /// on the same column is a no-op). Existing rows are indexed
  /// immediately; subsequent mutations maintain it.
  Status CreateIndex(size_t column);

  /// The index on `column`, or nullptr.
  const ColumnIndex* GetIndex(size_t column) const;

  size_t num_indexes() const { return indexes_.size(); }

  // --- MVCC ---------------------------------------------------------------

  /// Turns on version tracking (idempotent). Existing rows get no
  /// explicit version entry: absent means begin_lsn 0, visible to every
  /// snapshot — which is exactly right for recovered or pre-existing
  /// state.
  void EnableMvcc();
  bool mvcc_enabled() const { return mvcc_ != nullptr; }

  /// Structural undoes of the three mutations, used by Database rollback
  /// so version state reverts in lockstep with the heap (a plain inverse
  /// mutation would instead record the rollback as new history). With
  /// MVCC off they degrade to Erase / Insert / Replace.
  Status RollbackInsert(TupleHandle handle);
  Status RollbackDelete(TupleHandle handle, Row old_row);
  Status RollbackUpdate(TupleHandle handle, Row old_row);

  /// Commit point for `handle`: rewrites every kPendingLsn sentinel this
  /// transaction left on its version state to `commit_lsn`. Idempotent
  /// per (handle, commit). No-op with MVCC off.
  void StampVersions(TupleHandle handle, uint64_t commit_lsn);

  /// Appends every row visible at read point `at` (kHeadLsn or a
  /// snapshot LSN) to `rows`, its handle to the parallel `handles`, in
  /// ascending handle order. A head read copies the heap alone; only a
  /// snapshot read consults version state.
  void Scan(uint64_t at, std::vector<Row>* rows,
            std::vector<TupleHandle>* handles) const;

  /// Scan narrowed to rows whose `column` (probably) equals `value`. With
  /// an equality index on `column`, live rows come from the index and, at
  /// a snapshot, superseded versions from a chain scan; without one this
  /// is Scan. May return a superset (callers re-apply their predicate);
  /// never misses a matching row. At the head, a non-null `lock` is
  /// called on each index candidate outside the latch before any row is
  /// read; a candidate gone by then is skipped, and the first failed
  /// lock is returned. Snapshot probes take no lock.
  Status ProbeEq(uint64_t at, size_t column, const Value& value,
                 const std::function<Status(TupleHandle)>& lock,
                 std::vector<Row>* rows,
                 std::vector<TupleHandle>* handles) const;

  /// Discards version state no snapshot at or after `floor` can see:
  /// superseded versions with end_lsn <= floor and live_begin entries
  /// with begin_lsn <= floor (the default 0 takes over). Returns the
  /// number of row versions dropped.
  size_t PruneVersions(uint64_t floor);

  /// Incremental per-handle prune (commit-time, docs/CONCURRENCY.md):
  /// drops every superseded version of `handle` that no currently pinned
  /// snapshot (`pins`, ascending) and no future pin (which gets an LSN
  /// >= `floor`) can see — keep [begin, end) iff some pin falls inside
  /// it or end > floor; pending versions always survive. Also retires
  /// the live_begin entry when every present and future pin sees the
  /// live row anyway. Returns versions dropped.
  size_t PruneChainPinned(TupleHandle handle,
                          const std::vector<uint64_t>& pins, uint64_t floor);

  /// True iff `handle` carries no kPendingLsn sentinel — i.e. no
  /// in-flight transaction state. After an abort's structural rollback
  /// this must hold for every handle the transaction touched (the
  /// aborter held X locks, so nobody else could have left one).
  bool VerifyNoPending(TupleHandle handle) const;

  /// Superseded row versions currently retained (0 with MVCC off).
  size_t version_count() const;

 private:
  struct MvccState {
    mutable std::shared_mutex mu;
    /// Commit LSN from which the live heap row is visible; absent = 0.
    std::map<TupleHandle, uint64_t> live_begin;
    /// Superseded versions per handle, oldest first. Interval [begin,
    /// end) of consecutive entries (plus the live row) are disjoint, so
    /// at most one version of a handle is visible at any snapshot.
    std::map<TupleHandle, std::vector<RowVersion>> chains;
  };

  /// The version of `handle` visible at `lsn` among superseded entries,
  /// or nullptr. Caller holds mvcc_->mu.
  static const Row* VisibleChainRow(const std::vector<RowVersion>& chain,
                                    uint64_t lsn);
  /// True when the live heap row of `handle` is visible at `lsn`.
  /// Caller holds mvcc_->mu.
  bool LiveVisibleLocked(TupleHandle handle, uint64_t lsn) const;
  /// The shared side of the MVCC latch; disengaged with MVCC off.
  std::shared_lock<std::shared_mutex> ReadLatch() const;
  /// Scan with the latch already held (shared or not needed).
  void ScanLatched(uint64_t at, std::vector<Row>* rows,
                   std::vector<TupleHandle>* handles) const;

  TableSchema schema_;
  std::map<TupleHandle, Row> rows_;
  std::vector<ColumnIndex> indexes_;
  /// Null until EnableMvcc(); behind a pointer because Table is movable
  /// and a shared_mutex is not.
  std::unique_ptr<MvccState> mvcc_;
};

}  // namespace sopr

#endif  // SOPR_STORAGE_TABLE_H_
