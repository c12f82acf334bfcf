#ifndef SOPR_SERVER_SESSION_H_
#define SOPR_SERVER_SESSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "server/commit_scheduler.h"

namespace sopr {
namespace server {

class SessionManager;

/// One client connection to the shared engine. A session owns its own
/// SQL parsing (done on the calling thread, outside every engine lock)
/// and its per-session counters; transactions are handed to the shared
/// CommitScheduler for record-locked apply and group-commit durability.
///
/// Threading: different sessions are safe to drive from different
/// threads concurrently — that is the point. ONE session must be driven
/// by one thread at a time (like a connection handle); the in-flight
/// statement limit enforces that contract with kOverloaded instead of a
/// race. Cancel() is the one deliberate exception: it is safe from ANY
/// thread, which is what makes a stalled statement killable.
class Session {
 public:
  Session(SessionManager* manager, uint64_t id)
      : manager_(manager), id_(id), kill_(std::make_shared<CancelToken>()) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// A pinned MVCC snapshot: every QueryAt against it reads the same
  /// committed state, and checkpoint pruning keeps the versions it needs
  /// while it is alive. Data-plane only — concurrent DDL is excluded per
  /// query (QueryAt takes the schema lock), not for the pin's lifetime.
  using Snapshot = SnapshotRegistry::Pin;

  /// Autocommit execution of a SQL script: either an all-DDL script or
  /// one DML operation block run as a single transaction (rules to
  /// quiescence, group commit). Returns kRolledBack if a rule's rollback
  /// action fired. A pipeline of one: ExecutePipelined({sql}).
  Status Execute(const std::string& sql);

  /// Per-script outcome of a pipelined run (src/net/, docs/NETWORK.md).
  struct PipelineResult {
    Status status;
    /// Receipt of the script's committed transaction (commit_lsn 0 for
    /// reads, DDL, and failures).
    CommitReceipt receipt;
  };

  /// Pipelined execution of autocommit scripts, each its own transaction
  /// with Execute's semantics, EXCEPT that DML durability waits are
  /// deferred: a run of consecutive DML scripts stages its transactions
  /// back-to-back and awaits them together, so the whole run rides one
  /// (or few) group-commit cohorts instead of one fsync per script. This
  /// is the request-pipelining path of the network front-end — the wire
  /// protocol queues a connection's statements and the driving worker
  /// submits them through here.
  ///
  /// Read-only classification: a script whose statements are all selects
  /// is a read — it runs against one pinned snapshot and never enters the
  /// writer section. The exception is the engine's §5.1 select-triggering
  /// extension (track_selects): there selects fire rules and run as a
  /// writer transaction. Any non-select statement anywhere in the script
  /// makes the whole block a write transaction.
  ///
  /// Outcomes are per script and independent: script i+1 runs even when
  /// script i failed (each is its own autocommit transaction — there is
  /// no pipeline-abort state). A staged commit is visible to every later
  /// script in the run the moment it stages (same read-your-writes as
  /// sequential Execute); only its durability confirmation is deferred.
  /// The statement timeout applies per script, measured from the moment
  /// its staging starts to the end of its durability wait. The whole run
  /// occupies one in-flight statement slot. A session kill fails the
  /// in-flight script at its next cancellation point and refuses the
  /// rest.
  std::vector<PipelineResult> ExecutePipelined(
      const std::vector<std::string>& scripts);

  /// Read-only query: pins the newest published snapshot and never
  /// blocks on — or blocks — a writer.
  Result<QueryResult> Query(const std::string& sql);

  /// Pins the newest published snapshot for repeated reads: every
  /// QueryAt(snapshot, ...) sees the same state no matter what commits
  /// meanwhile.
  Result<Snapshot> PinSnapshot();
  Result<QueryResult> QueryAt(const Snapshot& snapshot,
                              const std::string& sql);

  /// `explain <select>`: analyzes the plan against live tables under the
  /// scheduler's exclusive lock, so it never observes an in-flight
  /// writer's uncommitted rows.
  Result<std::string> Explain(const std::string& sql);

  // --- Overload protection (docs/OVERLOAD.md) ---

  /// Kills the session — the terminate-backend analogue, safe from ANY
  /// thread. The in-flight statement observes the kill at its next
  /// cancellation point (scan batch, rule boundary, lock wait, admission
  /// queue, durability wait) and its transaction rolls back through the
  /// normal structural path, releasing every lock it held; subsequent
  /// statements are refused up front with kCancelled until ResetCancel().
  void Cancel(const std::string& reason);
  /// Installs a fresh kill token, reviving a killed session (operator
  /// un-kill; tests and benches reuse handles).
  void ResetCancel();
  bool killed() const;

  /// Per-statement wall-clock budget (zero = none). Composes with the
  /// engine's per-transaction deadline and the session kill; the earliest
  /// source fires first and attributes the failure (kTimeout for
  /// deadlines, kCancelled for the kill).
  void set_statement_timeout(std::chrono::microseconds timeout) {
    statement_timeout_ = timeout;
  }
  std::chrono::microseconds statement_timeout() const {
    return statement_timeout_;
  }

  /// In-flight statement limit (default 1): a session is a
  /// single-threaded connection handle, so a second statement arriving
  /// while one is still running is a protocol violation — refused with
  /// kOverloaded instead of racing the first.
  void set_max_inflight_statements(size_t n) { max_inflight_statements_ = n; }
  size_t max_inflight_statements() const { return max_inflight_statements_; }

  uint64_t id() const { return id_; }
  /// Receipt of this session's most recent committed DML block (zeroed
  /// before it commits anything).
  const CommitReceipt& last_receipt() const { return last_receipt_; }
  uint64_t commits() const {
    return commits_.load(std::memory_order_relaxed);
  }
  uint64_t aborts() const { return aborts_.load(std::memory_order_relaxed); }
  /// Statements this session started (admitted past the kill and
  /// in-flight checks), including reads.
  uint64_t statements() const {
    return statements_.load(std::memory_order_relaxed);
  }
  size_t inflight_statements() const {
    int n = inflight_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<size_t>(n) : 0;
  }

 private:
  /// RAII around one statement or one pipelined run: claims the
  /// session's in-flight slot, refusing overflow with kOverloaded, and
  /// releases it on destruction. Each statement inside then starts with
  /// Begin.
  class StatementScope {
   public:
    explicit StatementScope(Session* session);
    ~StatementScope();
    StatementScope(const StatementScope&) = delete;
    StatementScope& operator=(const StatementScope&) = delete;

    /// Starts one statement: returns the in-flight refusal or a killed
    /// session's kCancelled; otherwise counts the statement and sets
    /// `*ctx` to the caller's ambient sources plus the session kill
    /// token and the statement deadline. The caller installs `*ctx` with
    /// a CancelScope for as long as the statement runs (pipelined DML:
    /// through its durability wait).
    Status Begin(CancelContext* ctx);

   private:
    Session* session_;
    Status status_;
  };

  CommitScheduler& scheduler();
  /// True when the parsed script classifies as read-only (all selects,
  /// and selects do not trigger rules).
  bool IsReadOnlyScript(const std::vector<StmtPtr>& stmts);
  CancelTokenPtr KillToken() const;

  SessionManager* manager_;
  const uint64_t id_;
  mutable std::mutex cancel_mu_;  // guards kill_ (swapped by ResetCancel)
  CancelTokenPtr kill_;
  // Connection options: set by the driving thread between statements.
  std::chrono::microseconds statement_timeout_{0};
  size_t max_inflight_statements_ = 1;
  // Written by the driving thread, read by SessionManager::Inspect from
  // other threads — hence atomics (relaxed: they are counters, not
  // synchronization).
  std::atomic<uint64_t> statements_{0};
  std::atomic<int> inflight_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_{0};
  // Owned by the session's driving thread; no locking needed.
  CommitReceipt last_receipt_;
};

}  // namespace server
}  // namespace sopr

#endif  // SOPR_SERVER_SESSION_H_
