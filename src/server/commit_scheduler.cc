#include "server/commit_scheduler.h"

#include "common/failpoint.h"
#include "engine/explain.h"
#include "wal/wal_writer.h"

namespace sopr {
namespace server {

Status CommitScheduler::CheckFatal() const {
  std::lock_guard<std::mutex> lock(fatal_mu_);
  return fatal_;
}

Status CommitScheduler::fatal() const { return CheckFatal(); }

void CommitScheduler::RecordFatal(const Status& failure) {
  std::lock_guard<std::mutex> lock(fatal_mu_);
  if (!fatal_.ok()) return;  // keep the first failure
  fatal_ = Status(failure.code(),
                  "server halted after a lost commit durability point "
                  "(restart to recover to the durable prefix): " +
                      failure.message());
}

Result<ExecutionTrace> CommitScheduler::ExecuteBlock(
    const std::vector<StmtPtr>& stmts, CommitReceipt* receipt) {
  // Stage + await back-to-back: the single-statement path is a pipeline
  // of one. The writer section still ends at WAL staging, so the
  // durability wait below overlaps the next transaction's apply.
  StagedCommit staged;
  Result<ExecutionTrace> trace = ExecuteBlockStaged(stmts, &staged);
  if (!trace.ok()) return trace;
  SOPR_RETURN_NOT_OK(AwaitCommit(&staged, receipt));
  return trace;
}

Result<ExecutionTrace> CommitScheduler::ExecuteBlockStaged(
    const std::vector<StmtPtr>& stmts, StagedCommit* staged,
    AdmissionController::Slot slot) {
  SOPR_FAILPOINT_RETURN("server.submit.pre");
  if (replica()) {
    return Status::ReadOnlyReplica(
        "this node is a read-only replication follower; send writes to "
        "the primary (or promote this follower first)");
  }
  SOPR_RETURN_NOT_OK(CheckFatal());

  // Writer admission (docs/OVERLOAD.md): bounded in-flight writers plus a
  // bounded, deadline-shedded queue. The slot is held across the whole
  // block INCLUDING the durability wait — it is the unit of writer work
  // the server agreed to carry. Reads never pass through here, so when
  // writer admission saturates the snapshot-read path keeps serving.
  // Pipelined callers pre-acquire their slot with TryAdmit (never queue
  // while holding staged commits — their own unreleased slots could be
  // what they are queueing for).
  if (!slot.admitted()) {
    SOPR_ASSIGN_OR_RETURN(slot, admission_.Admit());
  }

  std::shared_ptr<wal::CommitTicket> ticket;
  CommitReceipt local;
  Result<ExecutionTrace> trace = [&]() -> Result<ExecutionTrace> {
    // Shared admission: conflicting rows serialize on their record
    // locks, disjoint writers overlap, and the exclusive side stays the
    // wall for DDL / checkpoints / Explain.
    std::shared_lock<std::shared_mutex> shared(state_mu_);
    // Re-check under the lock: a concurrent writer may have gone fatal
    // while this transaction queued for admission.
    SOPR_RETURN_NOT_OK(CheckFatal());
    local.first_handle = engine_->db().next_handle();
    auto result = engine_->ExecuteStaged(stmts, &ticket);
    // Publication point: the commit's versions are stamped (CommitAll
    // ran inside ExecuteStaged), so its LSN may now become visible to
    // snapshot readers. Monotonic via CAS-max — with shared admission
    // several committers publish concurrently, and the engine's commit
    // mutex guarantees any LSN <= last_commit_lsn is fully stamped.
    // Published UNCONDITIONALLY: a block can fail after an
    // inner commit already ran (e.g. the operation block committed and a
    // deferred-rule chain aborted later) — that commit is committed,
    // stamped state regardless of the block's final status, and leaving
    // visible_lsn_ behind last_commit_lsn would let a checkpoint in that
    // window prune above every snapshot subsequently pinned at the stale
    // LSN. last_commit_lsn only moves in CommitAll, so on a clean abort
    // (rolled back to S0) this store is a no-op.
    uint64_t head = engine_->last_commit_lsn();
    uint64_t seen = visible_lsn_.load(std::memory_order_relaxed);
    while (head > seen &&
           !visible_lsn_.compare_exchange_weak(seen, head,
                                               std::memory_order_release,
                                               std::memory_order_relaxed)) {
    }
    return result;
  }();
  if (!trace.ok()) {
    aborted_.fetch_add(1, std::memory_order_relaxed);
    return trace;
  }

  staged->slot_ = std::move(slot);
  staged->ticket_ = std::move(ticket);
  staged->receipt_ = local;
  staged->rolled_back_ = trace.value().rolled_back;
  staged->pending_ = true;
  return trace;
}

Status CommitScheduler::AwaitCommit(StagedCommit* staged,
                                    CommitReceipt* receipt) {
  if (!staged->pending_) {
    return Status::InvalidArgument("AwaitCommit: nothing staged");
  }
  staged->pending_ = false;
  // Release the admission slot when this resolves, success or not.
  AdmissionController::Slot slot = std::move(staged->slot_);

  // Durability wait with NO lock held: the next transaction's apply phase
  // overlaps this fsync, and the WAL's cohort leader syncs once for every
  // batch staged meanwhile.
  Status durable = engine_->AwaitDurable(staged->ticket_);
  if (!durable.ok()) {
    if (durable.code() == StatusCode::kCancelled ||
        durable.code() == StatusCode::kTimeout) {
      // INTERRUPTED, not failed: the session's kill/deadline fired while
      // waiting for the fsync confirmation. The batch remains staged and
      // a later cohort leader will make it durable — the commit outcome
      // is unknown to this caller only, so the server must NOT latch
      // fatal. Counted as committed: the transaction did commit in
      // memory; only the confirmation was abandoned.
      committed_.fetch_add(1, std::memory_order_relaxed);
      return durable;
    }
    // Committed in memory, not durable, no per-transaction undo possible
    // (see class comment): the whole server stops accepting writes.
    aborted_.fetch_add(1, std::memory_order_relaxed);
    RecordFatal(durable);
    return durable;
  }
  // A rolled-back transaction (a rule's rollback action fired) returns
  // an OK trace but committed nothing.
  if (staged->rolled_back_) {
    aborted_.fetch_add(1, std::memory_order_relaxed);
  } else {
    committed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (receipt != nullptr) {
    staged->receipt_.commit_lsn =
        staged->ticket_ != nullptr ? staged->ticket_->last_lsn : 0;
    *receipt = staged->receipt_;
  }
  SOPR_RETURN_NOT_OK(MaybeCheckpoint());
  return Status::OK();
}

Status CommitScheduler::ExecuteDdl(std::vector<StmtPtr> stmts) {
  SOPR_FAILPOINT_RETURN("server.submit.pre");
  if (replica()) {
    return Status::ReadOnlyReplica(
        "this node is a read-only replication follower; send DDL to the "
        "primary (or promote this follower first)");
  }
  SOPR_RETURN_NOT_OK(CheckFatal());
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  // Snapshot readers hold schema_mu_ shared for the duration of a query;
  // DDL must not change the catalog under them. Fixed acquisition order
  // state_mu_ -> schema_mu_ (readers take only schema_mu_).
  std::unique_lock<std::shared_mutex> schema_lock(schema_mu_);
  SOPR_RETURN_NOT_OK(CheckFatal());
  // AppendDdl flushes the group queue itself; no batch can be staged
  // meanwhile: staging holds state_mu_ shared, which this lock excludes.
  return engine_->ExecuteDdlScript(stmts);
}

SnapshotRegistry::Pin CommitScheduler::PinSnapshot() {
  // The visible-LSN load and the registry insert form ONE critical
  // section of the registry mutex — the same mutex a checkpoint holds
  // while computing its prune floor (wal/checkpoint.cc). A plain
  // load-then-Acquire would leave a window where the floor computation
  // sees no pins, prunes to last_commit_lsn, and the late-registered pin
  // then reads a state whose superseded versions are already gone.
  // Ordering argument for the other interleaving: the floor is computed
  // with state_mu_ held, after every prior commit published its head, so
  // a pin registered after the floor computation loads a visible LSN >=
  // the floor (the publish / state_mu_ / registry-mutex chain carries
  // the newer value to this thread).
  return engine_->db().snapshots().AcquireCurrent([this] {
    // Sync point for the pin-vs-checkpoint litmus schedule; a pin cannot
    // fail, so an armed failure trigger is deliberately swallowed.
    (void)SOPR_FAILPOINT("server.pin.acquire");
    return visible_lsn();
  });
}

Result<QueryResult> CommitScheduler::QueryAt(const SnapshotRegistry::Pin& pin,
                                             const SelectStmt& stmt) {
  // Only the schema lock, shared — never state_mu_: this is the path
  // where readers do not block writers (and vice versa).
  std::shared_lock<std::shared_mutex> schema_lock(schema_mu_);
  return engine_->QueryAtSnapshot(stmt, pin.lsn());
}

Result<QueryResult> CommitScheduler::QuerySnapshot(const SelectStmt& stmt) {
  SnapshotRegistry::Pin pin = PinSnapshot();
  return QueryAt(pin, stmt);
}

Result<std::string> CommitScheduler::Explain(const std::string& sql) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return ExplainSelect(engine_, sql);
}

Status CommitScheduler::WithExclusive(const std::function<Status()>& fn) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return fn();
}

Status CommitScheduler::ApplyReplicated(bool ddl,
                                        const std::function<Status()>& fn) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (!ddl) return fn();
  // Fixed acquisition order state_mu_ -> schema_mu_, as in ExecuteDdl:
  // snapshot readers hold schema_mu_ shared for the duration of a query
  // and must never observe a half-applied catalog change.
  std::unique_lock<std::shared_mutex> schema_lock(schema_mu_);
  return fn();
}

void CommitScheduler::PublishReplicaLsn(uint64_t lsn) {
  uint64_t seen = visible_lsn_.load(std::memory_order_relaxed);
  while (lsn > seen &&
         !visible_lsn_.compare_exchange_weak(seen, lsn,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
  }
}

Status CommitScheduler::MaybeCheckpoint() {
  if (!engine_->durable()) return Status::OK();
  const uint64_t interval =
      engine_->rules().options().wal_checkpoint_interval;
  if (interval == 0) return Status::OK();
  // Cheap pre-check without the exclusive lock; the vast majority of
  // commits are nowhere near the interval.
  if (engine_->wal()->commits_since_checkpoint() < interval) {
    return Status::OK();
  }
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  // Re-check under the lock: a concurrent committer may have already
  // taken the checkpoint this interval asked for.
  if (engine_->wal()->commits_since_checkpoint() < interval) {
    return Status::OK();
  }
  Status ok = engine_->Checkpoint();
  if (!ok.ok()) {
    // The triggering transaction COMMITTED; only the snapshot failed.
    return Status(ok.code(),
                  "post-commit checkpoint failed (the transaction itself "
                  "is durable): " +
                      ok.message());
  }
  return Status::OK();
}

}  // namespace server
}  // namespace sopr
