#ifndef SOPR_ENGINE_ENGINE_H_
#define SOPR_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/executor.h"
#include "rules/rule_engine.h"
#include "sql/parser.h"
#include "storage/database.h"

namespace sopr {

namespace wal {
class DirLock;
class WalWriter;
struct CommitTicket;
}  // namespace wal

/// Top-level facade: a single-user relational database with the paper's
/// set-oriented production rules, driven by SQL text.
///
/// Usage:
///   Engine engine;
///   engine.Execute("create table emp (name string, emp_no int, "
///                  "salary double, dept_no int)");
///   engine.Execute("create rule r1 when deleted from dept then ...");
///   engine.Execute("insert into emp values ('Jane', 1, 50000, 2)");
///   auto result = engine.Query("select * from emp");
///
/// Every call to Execute with DML runs as one transaction: the statements
/// form a single externally-generated operation block, after which rules
/// are processed to quiescence and the transaction commits (§4). DDL
/// (create table / create rule / priorities / drop rule) executes
/// immediately and is not transactional.
///
/// The plain constructor builds a purely in-memory engine. For a durable
/// one use Open() with options.wal_dir set: it surfaces SOPR_FAILPOINTS
/// parse errors, runs crash recovery on the directory, and attaches a
/// write-ahead log so every later commit and DDL statement is logged
/// (docs/DURABILITY.md).
class Engine {
 public:
  explicit Engine(RuleEngineOptions options = {});
  ~Engine();

  /// Factory with durability. Recovery rebuilds catalog, data, and rules
  /// from options.wal_dir (created if missing; empty wal_dir = in-memory
  /// engine, still validating the failpoint environment). The effective
  /// fsync policy is options.wal_fsync unless SOPR_WAL_FSYNC=
  /// off|commit|always overrides it.
  static Result<std::unique_ptr<Engine>> Open(RuleEngineOptions options);

  /// Executes DDL or a DML operation block. Returns
  /// StatusCode::kRolledBack if a rule's rollback action fired.
  Status Execute(const std::string& sql);

  /// Like Execute for DML, but returns the full execution trace (rule
  /// considerations, firings, retrieved result sets).
  Result<ExecutionTrace> ExecuteBlock(const std::string& sql);

  /// Runs a read-only query outside any transaction. Does not trigger
  /// rules (use ExecuteBlock with a select inside a transaction for the
  /// §5.1 select-triggering extension).
  Result<QueryResult> Query(const std::string& sql);

  // --- §5.3 explicit transaction control with rule triggering points ---
  Status Begin() { return rules_->Begin(); }
  /// Executes DML statements in the open transaction without processing
  /// rules.
  Status Run(const std::string& sql);
  /// Explicit rule triggering point.
  Result<ExecutionTrace> ProcessRules();
  /// Final rule processing + commit.
  Result<ExecutionTrace> Commit();
  Status Rollback() { return rules_->RollbackTransaction(); }
  bool in_transaction() const { return rules_->in_transaction(); }

  Database& db() { return *db_; }
  const Database& db() const { return *db_; }
  RuleEngine& rules() { return *rules_; }
  const RuleEngine& rules() const { return *rules_; }

  /// Convenience for tests/examples: number of rows currently in `table`.
  Result<size_t> TableSize(const std::string& table) const;

  // --- Concurrent front-end support (src/server/, docs/CONCURRENCY.md).
  // The Engine itself takes no scheduler locks: the CommitScheduler runs
  // ExecuteStaged under record locks (EnableConcurrentWriters), keeps
  // ExecuteDdlScript / Checkpoint exclusive, and runs QueryAtSnapshot
  // beside both.
  /// True if `stmt` is DDL (schema or rule catalog change) — the routing
  /// predicate sessions use to pick ExecuteDdlScript vs ExecuteStaged.
  static bool IsDdlStmt(const Stmt& stmt);
  /// Executes a parsed DML block as one transaction whose durable batch
  /// is STAGED on the WAL's group-commit queue instead of synced inline.
  /// *ticket receives the commit ticket (null when read-only or
  /// in-memory); the caller must AwaitDurable it after leaving the
  /// serialized section. Never checkpoints — the scheduler owns that.
  Result<ExecutionTrace> ExecuteStaged(
      const std::vector<StmtPtr>& stmts,
      std::shared_ptr<wal::CommitTicket>* ticket);
  /// Blocks until `ticket`'s group-commit cohort is durable (OK for null
  /// tickets and in-memory engines). Safe from any thread.
  Status AwaitDurable(const std::shared_ptr<wal::CommitTicket>& ticket);
  /// Applies a parsed all-DDL script (apply-then-log, like Execute's DDL
  /// path). Consumes create-rule statements from `stmts`.
  Status ExecuteDdlScript(std::vector<StmtPtr>& stmts);

  // --- Record-level write locking (docs/CONCURRENCY.md) ---
  /// Turns on record-level write locking so writer sessions touching
  /// disjoint rows can run concurrently (the CommitScheduler then admits
  /// writers under the shared side of its lock). Rollback of a
  /// lock-victim transaction is the storage's structural undo, and
  /// readers take the tables' version latches. Call before concurrent
  /// writers exist (the SessionManager does this).
  void EnableConcurrentWriters() {
    db_->EnableWriteLocking();
    // Bound every lock wait by the configured timeout (docs/OVERLOAD.md);
    // zero disables the per-wait bound.
    db_->lock_manager()->set_wait_timeout(
        std::chrono::duration_cast<std::chrono::microseconds>(
            rules_->options().lock_wait_timeout));
  }
  bool concurrent_writers() const { return db_->lock_manager() != nullptr; }
  /// LSN of the most recent commit — the newest snapshot point.
  uint64_t last_commit_lsn() const { return db_->last_commit_lsn(); }
  /// Runs an already-parsed select against the state as of snapshot
  /// `lsn`, entirely under the tables' shared version latches — safe
  /// concurrently with ExecuteStaged on another thread. Caller must hold
  /// the scheduler's schema lock (shared) to exclude DDL.
  Result<QueryResult> QueryAtSnapshot(const SelectStmt& stmt,
                                      uint64_t lsn) const;

  // --- Durability ---
  /// Takes ownership of an opened writer and routes redo/commit/DDL
  /// through it (used by Open(); exposed for tests that build the parts
  /// by hand). Passing nullptr detaches.
  void AttachWal(std::unique_ptr<wal::WalWriter> wal);
  /// Promotion seam (src/replication/): installs the WAL-directory lock
  /// and an opened writer on an engine built by follower replay, which
  /// ran without either (the primary held the lock). Also clears any
  /// incremental prune floor the follower's scheduler installed — the
  /// promoted engine's own front end sets a fresh one. After this call
  /// the engine is indistinguishable from one produced by Open().
  void AdoptDurability(std::unique_ptr<wal::DirLock> lock,
                       std::unique_ptr<wal::WalWriter> wal);
  bool durable() const { return wal_ != nullptr; }
  wal::WalWriter* wal() { return wal_.get(); }

  /// Writes a snapshot checkpoint now (see wal/checkpoint.h). Fails if no
  /// WAL is attached or a transaction is open.
  Status Checkpoint();

  /// Digest over the full recoverable state: database (catalog + heaps +
  /// indexes) combined with the rule set (definitions, activation,
  /// priorities). The crash harness compares this across restarts.
  uint64_t StateChecksum() const;
  /// Physical invariants of the underlying database (recovery
  /// certification re-runs this).
  Status CheckInvariants() const;

 private:
  Status ExecuteDdl(const Stmt& stmt);
  Result<ExecutionTrace> ExecuteBlockParsed(const std::vector<StmtPtr>& stmts);
  /// Appends a logical DDL record for an applied statement. A failure
  /// means "applied in memory but not durable" and is surfaced as such.
  Status LogDdl(const std::string& sql);
  /// Checkpoints when wal_checkpoint_interval commits have accumulated.
  Status MaybeCheckpoint();

  std::unique_ptr<Database> db_;
  std::unique_ptr<RuleEngine> rules_;
  // Declared before wal_ so the writer closes (draining staged commits)
  // while the directory lock is still held.
  std::unique_ptr<wal::DirLock> dir_lock_;  // null = in-memory engine
  std::unique_ptr<wal::WalWriter> wal_;     // null = in-memory engine
};

}  // namespace sopr

#endif  // SOPR_ENGINE_ENGINE_H_
