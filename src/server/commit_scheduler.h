#ifndef SOPR_SERVER_COMMIT_SCHEDULER_H_
#define SOPR_SERVER_COMMIT_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "server/admission.h"
#include "storage/mvcc.h"

namespace sopr {
namespace server {

/// Receipt a session gets back for a committed block.
struct CommitReceipt {
  /// LSN of the batch's COMMIT record; 0 for a read-only block or an
  /// in-memory engine.
  uint64_t commit_lsn = 0;
  /// db.next_handle() when the transaction entered the critical section
  /// (before any of its statements ran). Lets a serial-replay oracle
  /// reproduce handle assignment exactly — handles consumed by aborted
  /// transactions in between are skipped by bumping to this value.
  uint64_t first_handle = 0;
};

/// The ticketed executor in front of the shared Engine
/// (docs/CONCURRENCY.md). The engine runs with record-level write
/// locking (Engine::EnableConcurrentWriters) over its versioned storage,
/// and a transaction moves through:
///
///   parse (caller's thread, no lock)
///     -> shared state_mu_: apply block + rule fixpoint + stage WAL batch
///     -> no lock:          await group-commit durability
///
/// Writers are admitted on the SHARED side of state_mu_: record/table
/// locks serialize conflicting rows while disjoint-row transactions
/// overlap end-to-end, and the rule engine's commit mutex keeps LSN
/// assignment and version stamping in one order. The section ends at
/// StageCommitTxn, so the durability wait overlaps later transactions'
/// apply phases — that overlap is what lets the WAL's cohort leader
/// batch several commits into one fsync. Reads run against pinned MVCC
/// snapshots and never take state_mu_. The exclusive side is the wall
/// reserved for DDL, checkpoints, WithExclusive, replica apply and
/// Explain (which must not observe in-flight writers' uncommitted rows).
/// §4 semantics per transaction hold as if transactions ran one at a
/// time: strict two-phase locking holds every lock until the
/// transaction's whole fixpoint commits or aborts, so the record
/// conflict order equals the commit-LSN order and the final state equals
/// a serial replay in commit-LSN order.
///
/// Failure domain: if AwaitDurable fails, the transaction is already
/// committed in memory and later transactions may have built on it, so
/// there is no per-transaction undo. The scheduler records the failure
/// as FATAL: every later write is refused with the sticky status (reads
/// still work — in-memory state is intact). Restarting the engine
/// recovers to the durable prefix. An INTERRUPTED wait is different:
/// kCancelled/kTimeout means the session gave up waiting while the batch
/// remains staged for a later cohort leader — the commit outcome is
/// unknown to that caller only, the server stays healthy, and the fatal
/// latch is NOT tripped (docs/OVERLOAD.md).
class CommitScheduler {
 public:
  explicit CommitScheduler(Engine* engine)
      : engine_(engine), visible_lsn_(engine->last_commit_lsn()) {
    // Commit-time incremental pruning: each committed transaction trims
    // its own touched version chains down to the published visible LSN
    // and the currently pinned snapshots. Any pin acquired later reads
    // the visible LSN inside the registry's critical section, so it can
    // only pin at or above this floor (see PinSnapshot).
    engine_->db().set_incremental_prune_floor(
        [this] { return visible_lsn(); });
  }
  CommitScheduler(const CommitScheduler&) = delete;
  CommitScheduler& operator=(const CommitScheduler&) = delete;

  /// One DML operation block = one transaction (parse upstream). Blocks
  /// until the transaction is durable per the engine's fsync policy.
  Result<ExecutionTrace> ExecuteBlock(const std::vector<StmtPtr>& stmts,
                                      CommitReceipt* receipt = nullptr);

  // --- Pipelined commit (src/net/, docs/NETWORK.md) ---

  /// A transaction that is committed in memory and staged on the WAL but
  /// whose durability confirmation is still pending. Produced by
  /// ExecuteBlockStaged, resolved by AwaitCommit. Move-only; carries the
  /// writer-admission slot, which is released only when the commit is
  /// awaited (the slot is the unit of writer work the server agreed to
  /// carry, durability wait included). Destroying an unawaited
  /// StagedCommit releases the slot WITHOUT resolving counters — callers
  /// must AwaitCommit every staged transaction on the success path.
  class StagedCommit {
   public:
    StagedCommit() = default;
    StagedCommit(StagedCommit&&) = default;
    StagedCommit& operator=(StagedCommit&&) = default;
    /// True between a successful ExecuteBlockStaged and its AwaitCommit.
    bool pending() const { return pending_; }

   private:
    friend class CommitScheduler;
    AdmissionController::Slot slot_;
    std::shared_ptr<wal::CommitTicket> ticket_;
    CommitReceipt receipt_;
    bool rolled_back_ = false;
    bool pending_ = false;
  };

  /// The stage half of ExecuteBlock: admission, apply + rule fixpoint,
  /// WAL staging, snapshot publication — everything EXCEPT the
  /// durability wait, which moves to AwaitCommit. Between the two the
  /// transaction is committed in memory (visible to snapshot readers and
  /// to later transactions) but not yet durable. A pipelining caller
  /// stages a run of transactions back-to-back and then awaits them in
  /// order: the first AwaitCommit's cohort leader writes and fsyncs every
  /// batch staged meanwhile, so the whole run rides one (or few)
  /// group-commit cohorts — the wire-level amplification of the PR 3
  /// cohort win. `slot`: a pre-acquired admission slot (TryAdmit); when
  /// empty, this call runs normal blocking admission. On a non-OK trace
  /// nothing is pending and the abort is counted here.
  Result<ExecutionTrace> ExecuteBlockStaged(
      const std::vector<StmtPtr>& stmts, StagedCommit* staged,
      AdmissionController::Slot slot = AdmissionController::Slot());

  /// The await half: blocks until the staged transaction's cohort is
  /// durable, resolves the commit/abort counters, fills `receipt`
  /// (commit_lsn from the WAL ticket), runs the interval checkpoint, and
  /// releases the admission slot. Same failure domain as ExecuteBlock:
  /// kCancelled/kTimeout = interrupted (outcome unknown to this caller
  /// only, counted committed, server healthy); any other failure latches
  /// the sticky fatal state.
  Status AwaitCommit(StagedCommit* staged, CommitReceipt* receipt = nullptr);

  /// An all-DDL script, applied and logged under the exclusive lock
  /// (drains the group-commit queue so records stay in LSN order).
  Status ExecuteDdl(std::vector<StmtPtr> stmts);

  // --- MVCC snapshot reads (docs/CONCURRENCY.md) ---

  /// Newest published snapshot point: advances monotonically inside the
  /// writer section after a transaction's versions are stamped, so a
  /// snapshot at this LSN can never see a torn transaction.
  uint64_t visible_lsn() const {
    return visible_lsn_.load(std::memory_order_acquire);
  }

  /// Pins the current visible LSN against checkpoint pruning, atomically
  /// with respect to a concurrent checkpoint's prune-floor computation
  /// (the LSN load and the registry insert share one critical section of
  /// the registry mutex). The pin is a data-plane pin only — it does not
  /// block DDL; use QueryAt, which takes the schema lock per query.
  SnapshotRegistry::Pin PinSnapshot();

  /// Runs `stmt` against the pinned snapshot without touching state_mu_
  /// (readers never block writers). Takes the schema lock shared for the
  /// duration of the query.
  Result<QueryResult> QueryAt(const SnapshotRegistry::Pin& pin,
                              const SelectStmt& stmt);

  /// One-shot snapshot read: pin the current visible LSN, query, unpin.
  Result<QueryResult> QuerySnapshot(const SelectStmt& stmt);

  /// Explains a select under the exclusive lock: the analysis reads
  /// live tables, so it must not observe in-flight writers' rows.
  Result<std::string> Explain(const std::string& sql);

  /// Runs `fn` with the exclusive lock held (maintenance wall between
  /// transactions — explicit checkpoints etc.).
  Status WithExclusive(const std::function<Status()>& fn);

  // --- Read-only replica mode (src/replication/, docs/REPLICATION.md) ---

  /// Puts the scheduler in front of a replication follower's engine:
  /// ExecuteBlock and ExecuteDdl refuse with kReadOnlyReplica (writes
  /// belong on the primary), while every read path keeps working. The
  /// follower applies replicated groups through ApplyReplicated and
  /// publishes their LSNs with PublishReplicaLsn, so snapshot readers
  /// pin the same visible-LSN machinery primary sessions use.
  void EnterReplicaMode() { replica_.store(true, std::memory_order_release); }
  bool replica() const { return replica_.load(std::memory_order_acquire); }

  /// Runs `fn` (the follower's application of one committed group or one
  /// DDL record) under the writer-exclusive lock — and, for DDL, the
  /// schema lock — so replica apply observes exactly the locking
  /// discipline primary writers do: snapshot readers never see a
  /// half-applied catalog, and Explain never sees a half-applied group.
  Status ApplyReplicated(bool ddl, const std::function<Status()>& fn);

  /// CAS-max publication of the follower's replayed LSN as the visible
  /// snapshot head (the replica-mode analogue of the publication point
  /// in ExecuteBlock).
  void PublishReplicaLsn(uint64_t lsn);

  /// Sticky fatal status (OK while the server accepts writes).
  Status fatal() const;

  /// Writer admission control (docs/OVERLOAD.md): every ExecuteBlock
  /// passes through it before touching state_mu_; reads and DDL do not.
  /// Tighten its options to get real shedding under overload.
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }

  uint64_t committed() const {
    return committed_.load(std::memory_order_relaxed);
  }
  uint64_t aborted() const { return aborted_.load(std::memory_order_relaxed); }

  Engine* engine() { return engine_; }

 private:
  Status CheckFatal() const;
  void RecordFatal(const Status& failure);
  /// Checkpoints under the exclusive lock when the configured commit
  /// interval has accumulated (the scheduler-side MaybeCheckpoint).
  Status MaybeCheckpoint();

  Engine* engine_;
  /// Writers shared; DDL, checkpoints, Explain and replica apply
  /// exclusive. Never held across fsync: the durability wait happens
  /// after release.
  std::shared_mutex state_mu_;
  /// Excludes DDL from snapshot reads: snapshots version rows, not the
  /// catalog. DDL takes it exclusive (after state_mu_ — fixed order);
  /// snapshot readers take only this one, shared, so no deadlock cycle
  /// with writers is possible.
  std::shared_mutex schema_mu_;
  /// Published snapshot head. Written only inside the writer section
  /// AFTER the committing transaction stamped its versions — even when
  /// the block fails after an inner commit, so it never lags
  /// last_commit_lsn once the section is released; the release store
  /// pairs with the acquire load in visible_lsn().
  std::atomic<uint64_t> visible_lsn_;
  mutable std::mutex fatal_mu_;
  Status fatal_;
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<bool> replica_{false};
  AdmissionController admission_;
};

}  // namespace server
}  // namespace sopr

#endif  // SOPR_SERVER_COMMIT_SCHEDULER_H_
