#ifndef SOPR_STORAGE_TABLE_H_
#define SOPR_STORAGE_TABLE_H_

#include <functional>
#include <map>
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

/// A heap entry: the live row and the commit LSN from which it is
/// visible (kPendingLsn while the writing transaction is in flight).
struct HeapEntry {
  Row row;
  uint64_t begin = kPendingLsn;
};

/// Heap storage for one table: handle → row. Duplicate rows are allowed
/// (they have distinct handles, per the paper's model). Iteration order is
/// ascending handle, i.e. insertion order, which keeps traces deterministic.
///
/// Storage is versioned (docs/CONCURRENCY.md "MVCC snapshot reads"):
///   - each heap entry carries its row's begin LSN;
///   - per-handle chains hold superseded RowVersions, each ending at the
///     LSN of the commit that superseded it (kPendingLsn until then).
/// Every mutation takes the exclusive side of a per-table latch for the
/// short heap + version critical section; Scan / ProbeEq read either the
/// write-side head or the state as of a snapshot LSN under the shared
/// side, concurrent with writers. The unlatched accessors (rows(), Get)
/// read the write-side head and rely on the caller's locking.
class Table {
 public:
  explicit Table(TableSchema schema) : schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }

  /// Adds a row under a caller-supplied handle (the Database allocates
  /// handles so they are unique across tables). Row must already be
  /// schema-checked by the caller. The row begins at `begin`; by default
  /// it is pending: invisible to every snapshot until Commit stamps it.
  Status Insert(TupleHandle handle, Row row, uint64_t begin = kPendingLsn);

  /// Removes the row, keeping its image as a pending version; fails
  /// (ExecutionError) if the handle is absent.
  Status Erase(TupleHandle handle);

  /// Replaces the row in place, keeping the old image as a pending
  /// version; fails (ExecutionError) if the handle is absent.
  Status Replace(TupleHandle handle, Row row);

  bool Contains(TupleHandle handle) const { return rows_.count(handle) > 0; }

  /// Fails with ExecutionError if the handle is absent.
  Result<const Row*> Get(TupleHandle handle) const;

  /// Ordered (handle, entry) view for scans.
  const std::map<TupleHandle, HeapEntry>& rows() const { return rows_; }

  // --- Latched head accessors (concurrent writers) ------------------------
  // rows()/Get() read the write-side head unlatched and rely on the
  // caller's locking; with record-level locking two writers mutate the
  // same table concurrently, so readers of the head copy out under the
  // shared side of the latch every mutation takes exclusive.

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

  // --- Versions -----------------------------------------------------------

  /// Structural undoes of the three mutations, used by Database rollback
  /// so version state reverts in lockstep with the heap (a plain inverse
  /// mutation would instead record the rollback as new history). The
  /// before-image of a delete or update comes back from the pending
  /// version the mutation pushed.
  Status RollbackInsert(TupleHandle handle);
  Status RollbackDelete(TupleHandle handle);
  Status RollbackUpdate(TupleHandle handle);

  /// Commit point for the handles one transaction touched (a repeated
  /// handle is a no-op), under one exclusive latch: rewrites every
  /// kPendingLsn sentinel the transaction left on their version state
  /// to `commit_lsn`, then prunes their chains as Prune does. Appends to
  /// `retained` each handle whose chain still holds a version.
  void Commit(const std::vector<TupleHandle>& handles, uint64_t commit_lsn,
              const std::vector<uint64_t>& pins, uint64_t floor,
              std::vector<TupleHandle>* retained);

  /// Prune-only pass over the chains of `handles` (absent ones are
  /// skipped), under one exclusive latch: drops every superseded version
  /// that no pinned snapshot (`pins`, ascending) and no future pin (which
  /// gets an LSN >= `floor`) can see — keep [begin, end) iff some pin
  /// falls inside it or end > floor. Never stamps: another transaction
  /// may hold pending versions on these handles, and a pending end
  /// exceeds every floor. Appends to `pin_held` each handle whose chain
  /// still holds a version ending at or below `floor`, i.e. one that
  /// only a live pin keeps.
  void Prune(const std::vector<TupleHandle>& handles,
             const std::vector<uint64_t>& pins, uint64_t floor,
             std::vector<TupleHandle>* pin_held);

  /// Appends every row visible at read point `at` (kHeadLsn or a
  /// snapshot LSN) to `rows`, its handle to the parallel `handles`, in
  /// ascending handle order. A head read copies the heap alone; only a
  /// snapshot read consults the version chains.
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

  /// Discards superseded versions no snapshot at or after `floor` can
  /// see (end_lsn <= floor). Returns the number of row versions dropped.
  size_t PruneVersions(uint64_t floor);

  /// True iff `handle` carries no kPendingLsn sentinel — i.e. no
  /// in-flight transaction state. After an abort's structural rollback
  /// this must hold for every handle the transaction touched (the
  /// aborter held X locks, so nobody else could have left one).
  bool VerifyNoPending(TupleHandle handle) const;

  /// Superseded row versions currently retained.
  size_t version_count() const;

 private:
  /// The version of `handle` visible at `lsn` among superseded entries,
  /// or nullptr. Caller holds mu_.
  static const Row* VisibleChainRow(const std::vector<RowVersion>& chain,
                                    uint64_t lsn);
  /// Pops the pending version a delete or update of `handle` pushed;
  /// `what` names the undone mutation in the error. Caller holds mu_.
  Result<RowVersion> PopPendingVersion(TupleHandle handle, const char* what);
  using Chains = std::map<TupleHandle, std::vector<RowVersion>>;
  /// Prune's keep rule applied to one chain, erasing it once empty;
  /// returns the chain, or chains_.end() if it emptied. Caller holds mu_
  /// exclusive.
  Chains::iterator PruneChain(Chains::iterator chain_it,
                              const std::vector<uint64_t>& pins,
                              uint64_t floor);
  /// Scan with the latch already held.
  void ScanLatched(uint64_t at, std::vector<Row>* rows,
                   std::vector<TupleHandle>* handles) const;

  TableSchema schema_;
  std::map<TupleHandle, HeapEntry> rows_;
  std::vector<ColumnIndex> indexes_;
  mutable std::shared_mutex mu_;
  /// Superseded versions per handle, oldest first. The intervals [begin,
  /// end) of consecutive entries (plus the live row) are disjoint, so at
  /// most one version of a handle is visible at any snapshot.
  Chains chains_;
};

}  // namespace sopr

#endif  // SOPR_STORAGE_TABLE_H_
