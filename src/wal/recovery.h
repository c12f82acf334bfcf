#ifndef SOPR_WAL_RECOVERY_H_
#define SOPR_WAL_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace sopr {

class Engine;

namespace wal {

struct WalRecord;

/// What recovery found and did (surfaced for logging and tests).
struct RecoveryStats {
  uint64_t next_lsn = 1;     // continue the LSN sequence from here
  uint64_t next_txn_id = 1;  // continue the transaction-id sequence
  uint64_t committed_txns = 0;   // transaction groups replayed
  uint64_t replayed_records = 0;  // physical redo records applied
  uint64_t ddl_records = 0;       // logical DDL statements re-executed
  uint64_t discarded_txns = 0;    // uncommitted (torn-tail) groups dropped
  uint64_t truncated_bytes = 0;   // torn tail removed from wal.log
  bool snapshot_loaded = false;
  /// covers_lsn of the loaded checkpoint snapshot (0 when none): log
  /// records at or below it are already baked into the snapshot.
  uint64_t covers_lsn = 0;
  /// Incremental resume point (docs/REPLICATION.md): a tailer continuing
  /// this recovery scans wal.log from `resume_offset` with the scanner's
  /// LSN-monotonicity check seeded at `resume_lsn`, and skips any group
  /// or DDL record whose LSN is <= `applied_lsn` (already applied here).
  /// The offset points at the earliest still-open (uncommitted) group if
  /// one exists — re-scanning from there rebuilds its buffered records —
  /// otherwise at the end of the last well-formed record.
  uint64_t resume_offset = 0;
  uint64_t resume_lsn = 0;
  uint64_t applied_lsn = 0;
};

/// Rebuilds `engine`'s state (catalog, heaps, indexes, rule set) from the
/// WAL directory: loads the snapshot if one is installed, then replays
/// the main log's committed transactions in LSN order.
///
/// Contract (docs/DURABILITY.md):
///   - `engine` must be empty and must NOT yet have a WAL attached —
///     replay applies physical redo directly and re-executes DDL, and
///     neither may be re-logged.
///   - Rules are never re-fired: the log already contains every
///     rule-generated mutation of each committed transaction.
///   - A torn tail (an interrupted final write) is truncated off wal.log
///     and its uncommitted group discarded. Damage anywhere BEFORE the
///     tail — a checksum mismatch or structural error with more data
///     after it — is kDataLoss: recovery refuses to guess and never
///     silently truncates committed history. A damaged snapshot is
///     always kDataLoss (snapshots are installed atomically; there is no
///     legitimate torn state).
///   - After replay the recovered state is certified with
///     Database::CheckInvariants(); the crash harness additionally
///     compares Engine::StateChecksum() against its committed-prefix
///     oracle.
///
/// Replay bounds. Default: everything committed.
struct RecoverOptions {
  /// When non-zero, stop replaying at the first record whose LSN exceeds
  /// this — a transaction counts iff its COMMIT record's LSN is within
  /// the bound, which reconstructs exactly the state an MVCC snapshot at
  /// that LSN sees (snapshot_property_test relies on this). The log file
  /// itself is untouched. An installed checkpoint snapshot covering LSNs
  /// beyond the bound makes the prefix unreachable: kInvalidArgument
  /// naming the snapshot's covers_lsn (bootstrap from the checkpoint
  /// first — the replication Follower does).
  uint64_t through_lsn = 0;
  /// Follower bootstrap mode (docs/REPLICATION.md): the WAL directory
  /// belongs to a live primary, so recovery must leave it untouched — no
  /// snapshot.tmp unlink, no torn-tail truncation (the tail is the
  /// primary's in-flight write; it is simply not replayed). The stats'
  /// resume point lets the caller tail the log from where replay ended.
  bool read_only = false;
};

/// A missing directory or empty log recovers to an empty engine. The
/// returned stats carry the LSN/txn-id watermarks the WalWriter must
/// continue from.
Result<RecoveryStats> RecoverDatabase(const std::string& dir,
                                      Engine* engine);
Result<RecoveryStats> RecoverDatabase(const std::string& dir, Engine* engine,
                                      const RecoverOptions& opts);

/// Incremental committed-group replay — the machinery RecoverDatabase
/// and the replication Follower share. Feed scanned WAL records in log
/// order (recovery feeds one whole scan; a tailer feeds records as they
/// become durable, across many polls); each transaction group is applied
/// the moment its COMMIT record arrives and its versions are stamped at
/// that record's LSN (Database::CommitAll), DDL records apply immediately.
/// Rules are never re-fired: the log already contains every
/// rule-generated mutation.
///
/// Idempotence: groups/DDL whose LSN is <= the highest LSN already
/// applied (seeded via Options::applied_lsn, self-advancing afterwards)
/// are consumed but not re-applied, so a tailer that re-feeds records
/// after a transient failure cannot double-apply. ResetOpen() forgets
/// buffered open groups so such a re-feed can rebuild them.
class GroupReplayer {
 public:
  struct Options {
    /// Records at or below this LSN are baked into the bootstrap
    /// snapshot and skipped.
    uint64_t covers_lsn = 0;
    /// Non-zero: Feed returns false (stop) for records beyond this LSN.
    uint64_t through_lsn = 0;
    /// Groups/DDL with LSN <= this were applied by a previous replay.
    uint64_t applied_lsn = 0;
    /// Wraps the application of one committed group (ddl=false) or one
    /// DDL record (ddl=true); default invokes apply() directly. The
    /// Follower injects its scheduler's writer/schema locks here.
    std::function<Status(bool ddl, const std::function<Status()>& apply)>
        around;
    /// Called after a group or DDL record applied; `lsn` is the COMMIT
    /// (or DDL) record's LSN — the Follower publishes it as replayed_lsn.
    std::function<void(uint64_t lsn)> applied;
  };

  GroupReplayer(Engine* engine, Options options);

  /// Consumes one record. Returns false when the record lies beyond
  /// through_lsn (nothing consumed; the caller stops feeding).
  Result<bool> Feed(const WalRecord& rec, RecoveryStats* stats);

  /// Drops buffered uncommitted groups (their COMMIT is lost to a torn
  /// tail), counting them in stats->discarded_txns.
  void DiscardOpen(RecoveryStats* stats);

  /// Forgets buffered open groups WITHOUT counting them as discarded: a
  /// tailer calls this after a failed poll, then re-feeds from
  /// resume_offset() to rebuild them.
  void ResetOpen();

  bool HasOpen() const { return !open_txns_.empty(); }

  /// Resume point covering buffered open groups: where a rescan must
  /// restart (earliest open group's BEGIN record, else `end_of_feed`)
  /// and the LSN seed for the scanner at that offset.
  uint64_t resume_offset(uint64_t end_of_feed) const;
  uint64_t resume_lsn(uint64_t last_fed_lsn) const;

  uint64_t max_lsn() const { return max_lsn_; }
  uint64_t max_txn_id() const { return max_txn_id_; }
  /// Highest group/DDL LSN applied (the idempotence watermark).
  uint64_t applied_lsn() const { return applied_lsn_; }

 private:
  struct OpenGroup {
    std::vector<WalRecord> redo;
    uint64_t begin_offset = 0;  // file offset of the BEGIN record
    uint64_t prev_lsn = 0;      // last LSN consumed before the BEGIN
  };

  Status Apply(bool ddl, uint64_t lsn,
               const std::function<Status()>& apply_fn);

  Engine* engine_;
  Options opts_;
  std::map<uint64_t, OpenGroup> open_txns_;
  uint64_t max_lsn_ = 0;
  uint64_t max_txn_id_ = 0;
  uint64_t applied_lsn_ = 0;
};

}  // namespace wal
}  // namespace sopr

#endif  // SOPR_WAL_RECOVERY_H_
