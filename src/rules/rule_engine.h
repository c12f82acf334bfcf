#ifndef SOPR_RULES_RULE_ENGINE_H_
#define SOPR_RULES_RULE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "query/executor.h"
#include "rules/rule.h"
#include "rules/selection.h"
#include "rules/trans_info.h"
#include "storage/database.h"
#include "wal/wal_options.h"

namespace sopr {

namespace wal {
class WalWriter;
struct CommitTicket;
}  // namespace wal

/// How composite transition information is maintained across rules.
enum class MaintenanceMode {
  /// The paper's Figure 1 algorithm: every rule's [ins, del, upd] is
  /// eagerly updated after every transition (modify-trans-info).
  kPerRule,
  /// The optimization the paper hints at ("substantial need and room for
  /// optimization"): transitions are appended to a shared log; each rule
  /// keeps only a start index and composes lazily (with an incremental
  /// cache) when it is actually considered.
  kSharedLog,
};

struct RuleEngineOptions {
  TieBreak tie_break = TieBreak::kCreationOrder;
  MaintenanceMode maintenance = MaintenanceMode::kPerRule;
  /// Runaway-cascade guard (the paper's footnote 7 suggests run-time
  /// detection); exceeding it aborts and rolls back the transaction.
  size_t max_rule_firings = 1000;
  /// Enable the §5.1 extension: selects contribute an S component and
  /// `selected` predicates/transition tables become live.
  bool track_selects = false;
  /// Query optimization (predicate pushdown + hash equijoins) for every
  /// statement executed through the rule system. Off = plain
  /// cross-product-then-filter (ablation benchmark B9).
  bool optimize_queries = true;
  /// Batch set-oriented execution (docs/EXECUTION.md): rule conditions,
  /// query filters, DML predicate scans, and transition ⋈ base joins
  /// evaluate chunk-at-a-time, with hot columns decomposed into typed
  /// arrays for the kernels of exec/kernels.h and an unordered
  /// build/probe hash join. Off = the row-at-a-time pipeline, kept alive
  /// as the differential oracle
  /// (tests/rules/vectorized_differential_test.cc).
  bool batch_execution = true;
  /// Build-side row cap for the batch hash join (0 = unlimited): a
  /// join whose build side exceeds it falls back to a nested-loop probe
  /// with a counted stat (exec::GlobalStats().hash_join_fallbacks)
  /// instead of growing the hash table without bound.
  size_t max_hash_build_rows = 1u << 20;
  /// Per-transaction wall-clock deadline (zero = none). Checked between
  /// operations and rule considerations; exceeding it aborts the
  /// transaction with kTimeout. Detached transactions get their own
  /// deadline window.
  std::chrono::milliseconds txn_deadline{0};
  /// Upper bound on any single lock wait once concurrent writers are
  /// enabled (zero = unbounded; docs/OVERLOAD.md). A waiter that exceeds
  /// it aborts with kLockTimeout and rolls back, so one stalled holder
  /// cannot wedge conflicting writers forever. Applied to the lock
  /// manager by Engine::EnableConcurrentWriters.
  std::chrono::milliseconds lock_wait_timeout{10000};
  /// Per-transaction undo-log record budget (0 = unlimited). A mutation
  /// that would exceed it fails with kResourceExhausted and the
  /// transaction aborts; rollback itself never needs new log space.
  size_t max_undo_records = 0;
  /// Failed detached-rule actions are retried this many times (each
  /// attempt is a fresh transaction) before landing in
  /// ExecutionTrace::detached_errors. Rollbacks requested by rules and
  /// the runaway-cascade guard are never retried.
  size_t detached_retries = 0;
  /// Sleep before retry k (1-based) is backoff * 2^(k-1), capped at 1s.
  std::chrono::milliseconds detached_retry_backoff{0};
  /// Paranoid mode: capture a state checksum at Begin and verify after
  /// every rollback that the restored state matches it exactly and that
  /// all indexes agree with their heaps. O(database) per transaction —
  /// meant for tests and chaos runs, not production hot paths.
  bool verify_rollback_integrity = false;
  /// Directory holding the write-ahead log (empty = durability off, the
  /// default: a purely in-memory engine). Use Engine::Open() to run
  /// recovery and attach the log; the plain Engine constructor ignores
  /// this field.
  std::string wal_dir;
  /// When the log is fsync'd (see WalFsyncPolicy). Overridable at run
  /// time via SOPR_WAL_FSYNC=off|commit|always.
  WalFsyncPolicy wal_fsync = WalFsyncPolicy::kCommit;
  /// Write a snapshot checkpoint (bounding recovery replay and letting
  /// the log truncate) after this many commits. 0 = only explicit
  /// Engine::Checkpoint() calls.
  uint64_t wal_checkpoint_interval = 0;
};

/// Executor knobs derived from rule-engine options — the single place
/// the mapping lives, so every Executor construction site agrees.
inline ExecOptions ExecOptionsFrom(const RuleEngineOptions& o) {
  return ExecOptions{o.optimize_queries, o.batch_execution,
                     o.max_hash_build_rows};
}

/// Footnote 8 of the paper: which point a rule's composite transition is
/// measured from. The main semantics resets a rule's trans-info when its
/// action executes; the alternative resets whenever the rule is *chosen
/// for consideration*, regardless of whether the condition held.
enum class ResetPolicy {
  kOnExecution,      // §4.2 default
  kOnConsideration,  // footnote 8 alternative
};

/// Environment handed to an external procedure (§5.2): it may query the
/// current state (with the triggering rule's transition tables in scope)
/// and run DML whose effects become part of the rule's transition.
class ProcedureContext {
 public:
  ProcedureContext(Executor* executor, TransInfo* accumulate,
                   const std::string& rule)
      : executor_(executor), accumulate_(accumulate), rule_(rule) {}

  /// Runs a select; transition tables of the invoking rule are visible.
  Result<QueryResult> Query(const std::string& sql);

  /// Runs insert/delete/update statements; their affected sets fold into
  /// the invoking rule's action transition (so they trigger other rules
  /// exactly like inline action operations).
  Status Execute(const std::string& sql);

  /// Name of the invoking rule.
  const std::string& rule() const { return rule_; }

 private:
  Executor* executor_;
  TransInfo* accumulate_;
  std::string rule_;
};

/// An external procedure callable from a rule action via `call <name>`.
using ProcedureFn = std::function<Status(ProcedureContext&)>;

/// One rule-condition evaluation, in order (for example traces).
struct Consideration {
  std::string rule;
  bool condition_held = false;
};

/// One executed rule action.
struct RuleFiring {
  std::string rule;
  /// Value-carrying effect of the action's transition (for traces).
  TransInfo effect;
  /// True when the action ran as a separate (detached) transaction.
  bool detached = false;
};

/// What happened during one transaction's rule processing.
struct ExecutionTrace {
  std::vector<Consideration> considered;
  std::vector<RuleFiring> firings;
  /// Result sets of top-level select operations (in the external block
  /// and in rule actions, in execution order).
  std::vector<QueryResult> retrieved;
  bool rolled_back = false;
  std::string rollback_rule;  // set when a rule's rollback action fired
  /// Errors from detached actions (their own transactions rolled back;
  /// the triggering transaction stayed committed).
  std::vector<std::string> detached_errors;
};

/// The production rule system of the paper: rule registry, priorities,
/// and the §4 execution semantics. A transaction is one external
/// operation block followed by rule processing to quiescence (or
/// rollback); the §5.3 extension exposes explicit Begin / RunOps /
/// ProcessRules / Commit for user-defined rule triggering points.
class RuleEngine {
 public:
  explicit RuleEngine(Database* db, RuleEngineOptions options = {});
  RuleEngine(const RuleEngine&) = delete;
  RuleEngine& operator=(const RuleEngine&) = delete;

  const RuleEngineOptions& options() const { return options_; }

  // --- Rule DDL (only between transactions) ---
  Status DefineRule(std::shared_ptr<const CreateRuleStmt> def);
  Status DropRule(const std::string& name);
  /// `create rule priority higher before lower`; both must exist and the
  /// pair must not create a cycle.
  Status AddPriority(const std::string& higher, const std::string& lower);
  /// Extension: temporarily deactivate/reactivate a rule.
  Status SetRuleEnabled(const std::string& name, bool enabled);
  Result<bool> IsRuleEnabled(const std::string& name) const;
  /// Footnote 8: per-rule choice of re-triggering semantics.
  Status SetResetPolicy(const std::string& name, ResetPolicy policy);
  /// §5.3: "the ability to specify that a rule's action should be
  /// executed in a separate transaction". A detached rule's action is
  /// queued when its condition holds and runs as its own transaction
  /// AFTER the triggering transaction commits; a failure or rollback in
  /// the detached action does not undo the triggering transaction.
  /// Rollback-action rules cannot be detached.
  Status SetDetached(const std::string& name, bool detached);
  /// §5.2: registers an external procedure callable via `call <name>` in
  /// rule actions. Fails on duplicate names.
  Status RegisterProcedure(const std::string& name, ProcedureFn fn);

  std::vector<std::string> RuleNames() const;
  Result<const Rule*> GetRule(const std::string& name) const;
  size_t num_rules() const { return rules_.size(); }
  const PriorityGraph& priorities() const { return priorities_; }

  // --- Transactions ---
  /// Convenience: Begin + RunOps + Commit as a single transaction.
  Result<ExecutionTrace> ExecuteBlock(const std::vector<const Stmt*>& ops);

  Status Begin();
  /// Executes operations of the external block, accumulating their
  /// composite effect; rules are not yet considered. Failure of any
  /// operation aborts (rolls back) the whole transaction.
  Status RunOps(const std::vector<const Stmt*>& ops,
                ExecutionTrace* trace = nullptr);
  /// §5.3 rule triggering point: the externally-generated transition so
  /// far is considered complete and rules are processed to quiescence.
  Status ProcessRules(ExecutionTrace* trace);
  /// Processes rules, then commits.
  Status Commit(ExecutionTrace* trace);
  /// Two-phase commit for the concurrent front-end (src/server/):
  /// processes rules and commits in memory, but only STAGES the durable
  /// batch on the WAL's group-commit queue. *staged receives the commit
  /// ticket (null for a read-only transaction or an in-memory engine);
  /// the caller must pass it to WalWriter::AwaitDurable AFTER leaving the
  /// serialized commit section — until the ticket resolves the
  /// transaction is committed in memory but not durable. Detached actions
  /// triggered by the transaction still commit inline, each as its own
  /// transaction.
  Status CommitStaged(ExecutionTrace* trace,
                      std::shared_ptr<wal::CommitTicket>* staged);
  /// ExecuteBlock with the final commit staged instead of synced inline.
  Result<ExecutionTrace> ExecuteBlockStaged(
      const std::vector<const Stmt*>& ops,
      std::shared_ptr<wal::CommitTicket>* staged);
  /// Aborts the transaction, undoing everything since Begin.
  Status RollbackTransaction();
  /// True when the CALLING THREAD has a transaction in progress.
  /// Transactions are thread-scoped (see the threading note below).
  bool in_transaction() const;

  /// Total rule firings across all transactions (for benchmarks).
  uint64_t total_firings() const {
    return total_firings_.load(std::memory_order_relaxed);
  }

  /// Attaches (or detaches, with nullptr) the write-ahead log. Begin /
  /// Commit / Abort notify the writer so each rule transaction maps to
  /// one durable group-commit batch; CommitTxn failure aborts the
  /// transaction (no durability → no commit).
  void set_wal(wal::WalWriter* wal) { wal_ = wal; }

  /// Order-independent digest over the rule set: names, full definitions
  /// (events, conditions, actions), activation state, detached flags,
  /// reset policies, and priority edges. Combined with
  /// Database::Checksum() by Engine::StateChecksum() to certify recovery.
  uint64_t RuleSetChecksum() const;

 private:
  // Threading model: the rule CATALOG (rules_, priorities_, procedures_)
  // is mutated only between transactions by the front-end's exclusive
  // sections, while TRANSACTION state lives in a per-thread TxnFrame —
  // each writer session runs its whole Begin..Commit fixpoint on one
  // thread, so concurrent writers never share scratch state. The only
  // cross-thread synchronization the engine itself adds is commit_mu_,
  // which serializes WAL LSN assignment + version stamping so that
  // commit-LSN order equals the stamping order.

  /// Catalog entry for one rule: definition plus the settings that
  /// persist across transactions. Per-transaction scratch lives in
  /// TxnFrame::scratch, parallel to rules_.
  struct RuleState {
    std::shared_ptr<Rule> rule;
    uint64_t creation_seq = 0;
    bool enabled = true;
    ResetPolicy reset_policy = ResetPolicy::kOnExecution;
    bool detached = false;
  };

  /// One rule's per-transaction composite-transition scratch.
  struct RuleScratch {
    // kPerRule mode: eagerly maintained composite info + its effect.
    TransInfo info;
    TransitionEffect effect;
    // kSharedLog mode: compose log[log_start..) lazily with a cache
    // (only used once the rule has fired; before that the frame's
    // global composite applies).
    size_t log_start = 0;
    TransInfo cached;
    TransitionEffect cached_effect;
    size_t cached_upto = 0;
    uint64_t last_considered = 0;
    bool considered_in_state = false;
  };

  /// A detached action waiting for the triggering transaction to commit:
  /// the rule (by catalog index — DDL cannot run mid-transaction, so
  /// indexes are stable) plus a snapshot of its transition tables at
  /// deferral time.
  struct DeferredFiring {
    size_t rule_index = 0;
    TransInfo info;
  };

  /// Everything one in-flight transaction needs, owned by the thread
  /// running it.
  struct TxnFrame {
    UndoLog::Mark start_mark = 0;
    std::chrono::steady_clock::time_point deadline_at{};
    bool has_deadline = false;
    /// This transaction's cancellation sources — the caller's ambient
    /// context (session kill, statement timeout) plus the txn deadline —
    /// installed thread-ambiently for the frame's whole Begin..Commit
    /// lifetime so lock waits, scans, and sleeps can observe it.
    /// `cancel` is declared before `cancel_scope`: the scope (which
    /// restores the outer ambient context) must die first.
    CancelContext cancel;
    std::unique_ptr<CancelScope> cancel_scope;
    uint64_t start_checksum = 0;
    TransInfo pending_block;
    std::vector<TransInfo> log;   // kSharedLog: transitions this txn
    TransInfo global_composite;   // kSharedLog: composition of all of log
    TransitionEffect global_effect;
    std::vector<DeferredFiring> deferred;
    size_t firings = 0;
    uint64_t consider_tick = 0;
    std::vector<RuleScratch> scratch;  // parallel to rules_
  };

  /// The calling thread's per-engine state: the current frame (null
  /// between transactions) plus the detached-cascade counters, which
  /// span the sequence of frames a deferred chain runs through.
  struct EngineTls {
    std::unique_ptr<TxnFrame> frame;
    size_t detached_depth = 0;
    size_t detached_runs = 0;
  };
  EngineTls& Tls() const;

  /// "No source rule" marker for PropagateTransition (external blocks).
  static constexpr size_t kNoSource = static_cast<size_t>(-1);

  RuleState* FindState(const std::string& name);
  const RuleState* FindState(const std::string& name) const;

  /// Composite info plus its projected effect for a rule. In kSharedLog
  /// mode, rules that have not fired this transaction all share one
  /// global composite (they would compose the identical log suffix), so
  /// idle rules cost O(1) per transition — the optimization the paper
  /// calls for in §4.3.
  struct InfoView {
    const TransInfo* info = nullptr;
    const TransitionEffect* effect = nullptr;
  };
  InfoView ViewFor(TxnFrame& frame, size_t index);

  /// Folds a completed transition into every rule's info. `source_index`
  /// is the rule whose action produced it (kNoSource for external
  /// transitions); per Figure 1 the source rule's info is *reset* to just
  /// this transition while all others compose.
  void PropagateTransition(TxnFrame& frame, const TransInfo& transition,
                           size_t source_index);

  /// The select-eligible-rule loop of Figure 1 plus action execution.
  Status RunRuleLoop(ExecutionTrace* trace);

  /// Executes one rule's action operations against `info`'s transition
  /// tables, folding affected sets into `out`.
  Status ExecuteAction(const Rule& rule, const TransInfo& info,
                       TransInfo* out, ExecutionTrace* trace);

  /// Runs one select or DML operation of an external block or a rule
  /// action, folding its affected set (and, with track_selects, the
  /// tuples a select read) into `out` and a select's result into `trace`.
  Status ExecuteOp(Executor& executor, const Stmt& op, TransInfo* out,
                   ExecutionTrace* trace);

  /// Runs queued detached actions, each as its own transaction.
  Status RunDeferred(std::vector<DeferredFiring> queue,
                     ExecutionTrace* trace);

  /// One attempt at a deferred firing: dispatch failpoint + Begin +
  /// action + commit. A non-OK return means the attempt's transaction was
  /// rolled back (retry material unless the cascade guard tripped).
  Status RunDeferredOnce(size_t rule_index, const TransInfo& info,
                         ExecutionTrace* trace);

  /// Shared body of Commit and CommitStaged: `staged` selects whether the
  /// WAL batch is synced inline (nullptr) or deposited on the
  /// group-commit queue.
  Status CommitImpl(ExecutionTrace* trace,
                    std::shared_ptr<wal::CommitTicket>* staged);
  Result<ExecutionTrace> ExecuteBlockImpl(
      const std::vector<const Stmt*>& ops,
      std::shared_ptr<wal::CommitTicket>* staged);

  Status AbortTransaction();

  /// kTimeout when the transaction deadline has passed (OK otherwise).
  Status CheckDeadline(const TxnFrame& frame) const;

  /// Resets a rule's composite info to "nothing yet" (used by the
  /// kOnConsideration policy).
  void ResetInfo(TxnFrame& frame, size_t index);

  Database* db_;
  RuleEngineOptions options_;
  wal::WalWriter* wal_ = nullptr;  // not owned; null when durability is off
  std::vector<std::unique_ptr<RuleState>> rules_;
  std::map<std::string, ProcedureFn> procedures_;
  PriorityGraph priorities_;
  uint64_t next_creation_seq_ = 0;

  /// Serializes commit-LSN assignment (WAL staging) with version
  /// stamping (Database::CommitAll) across concurrent writer threads, so
  /// WAL file order == commit-LSN order == stamping order. Record locks
  /// are NOT held under this mutex-acquisition path in any order that
  /// could cycle: lock waits happen during the mutation phase, strictly
  /// before commit.
  std::mutex commit_mu_;
  std::atomic<uint64_t> total_firings_{0};
};

}  // namespace sopr

#endif  // SOPR_RULES_RULE_ENGINE_H_
