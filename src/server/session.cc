#include "server/session.h"

#include "common/failpoint.h"
#include "server/session_manager.h"
#include "sql/parser.h"

namespace sopr {
namespace server {

CommitScheduler& Session::scheduler() { return manager_->scheduler(); }

Session::StatementScope::StatementScope(Session* session) : session_(session) {
  // The increment itself is the admission check: a racing second
  // statement sees the count above the limit and is refused before it
  // touches any session state the first statement is using.
  const int inflight =
      session->inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (static_cast<size_t>(inflight) > session->max_inflight_statements_) {
    status_ = Status::Overloaded(
        "session " + std::to_string(session->id()) + " already has " +
        std::to_string(inflight - 1) + " statement(s) in flight (limit " +
        std::to_string(session->max_inflight_statements_) +
        "); a session is a single-threaded connection handle");
  }
}

Session::StatementScope::~StatementScope() {
  session_->inflight_.fetch_sub(1, std::memory_order_acq_rel);
}

Status Session::StatementScope::Begin(CancelContext* ctx) {
  SOPR_RETURN_NOT_OK(status_);
  CancelTokenPtr kill = session_->KillToken();
  if (kill->cancelled()) {
    return Status::Cancelled("session " + std::to_string(session_->id()) +
                             " was killed: " + kill->reason());
  }
  session_->statements_.fetch_add(1, std::memory_order_relaxed);
  // Compose this statement's cancellation sources on top of whatever the
  // caller installed; the caller makes them ambient for every layer
  // below — admission queue, lock waits, scan batches, rule boundaries,
  // the durability wait.
  *ctx = CancelContext::InheritAmbient();
  ctx->AddToken(std::move(kill),
                "session " + std::to_string(session_->id()) + " kill");
  if (session_->statement_timeout_.count() > 0) {
    ctx->AddDeadline(Deadline::After(session_->statement_timeout_),
                     "statement timeout");
  }
  return Status::OK();
}

void Session::Cancel(const std::string& reason) {
  KillToken()->Cancel(reason);
}

void Session::ResetCancel() {
  std::lock_guard<std::mutex> lock(cancel_mu_);
  kill_ = std::make_shared<CancelToken>();
}

bool Session::killed() const { return KillToken()->cancelled(); }

CancelTokenPtr Session::KillToken() const {
  std::lock_guard<std::mutex> lock(cancel_mu_);
  return kill_;
}

bool Session::IsReadOnlyScript(const std::vector<StmtPtr>& stmts) {
  // With the §5.1 select-triggering extension on, a select is a
  // rule-firing operation like any write: it must run in a writer
  // transaction.
  if (scheduler().engine()->rules().options().track_selects) return false;
  for (const StmtPtr& stmt : stmts) {
    if (stmt->kind != StmtKind::kSelect) return false;
  }
  return true;
}

Status Session::Execute(const std::string& sql) {
  return ExecutePipelined({sql})[0].status;
}

std::vector<Session::PipelineResult> Session::ExecutePipelined(
    const std::vector<std::string>& scripts) {
  std::vector<PipelineResult> out(scripts.size());
  if (scripts.empty()) return out;

  // The whole run occupies ONE in-flight statement slot: a pipeline is
  // still a single thread driving the session, and the slot is what
  // enforces that contract (a racing statement on another thread is
  // refused, not raced).
  StatementScope run(this);

  // One staged-but-unawaited transaction per consecutive DML script.
  // Each keeps its own CancelContext alive from stage start through its
  // durability wait so the per-script timeout means the same thing it
  // does for sequential Execute.
  struct PendingEntry {
    size_t index = 0;
    std::unique_ptr<CancelContext> ctx;
    CommitScheduler::StagedCommit staged;
    bool rolled_back = false;
    std::string rollback_rule;
  };
  std::vector<PendingEntry> pending;

  // Awaits every staged commit in stage order. The FIRST wait's cohort
  // leader writes and fsyncs every batch staged so far in one round —
  // that is the pipelining win; the rest find their tickets resolved.
  auto flush = [&] {
    for (PendingEntry& entry : pending) {
      CancelScope scope(entry.ctx.get());
      CommitReceipt receipt;
      Status durable = scheduler().AwaitCommit(&entry.staged, &receipt);
      if (!durable.ok()) {
        ++aborts_;
        out[entry.index].status = durable;
        continue;
      }
      if (entry.rolled_back) {
        ++aborts_;
        out[entry.index].status = Status::RolledBack(
            "transaction rolled back by rule " + entry.rollback_rule);
        continue;
      }
      ++commits_;
      last_receipt_ = receipt;
      out[entry.index].receipt = receipt;
    }
    pending.clear();
  };

  for (size_t i = 0; i < scripts.size(); ++i) {
    auto ctx = std::make_unique<CancelContext>();
    out[i].status = run.Begin(ctx.get());
    if (!out[i].status.ok()) continue;
    CancelScope scope(ctx.get());

    Status env = FailpointRegistry::Instance().EnsureEnvArmed();
    if (!env.ok()) {
      out[i].status = env;
      continue;
    }
    auto parsed = Parser::ParseScript(scripts[i]);
    if (!parsed.ok()) {
      out[i].status = parsed.status();
      continue;
    }
    std::vector<StmtPtr> stmts = std::move(parsed).value();

    if (Engine::IsDdlStmt(*stmts[0])) {
      // DDL drains the WAL group queue itself (AppendDdl flushes), so
      // the pending tickets resolve under its exclusive section; the
      // later AwaitCommit calls find them done. No barrier needed.
      out[i].status = scheduler().ExecuteDdl(std::move(stmts));
      continue;
    }
    bool mixed = false;
    for (const StmtPtr& stmt : stmts) {
      if (Engine::IsDdlStmt(*stmt)) {
        out[i].status = Status::InvalidArgument(
            "cannot mix DDL and DML in one script: " + stmt->ToString());
        mixed = true;
        break;
      }
    }
    if (mixed) continue;

    if (IsReadOnlyScript(stmts)) {
      // All statements read one pinned snapshot, so the read-only
      // transaction is atomic without entering the writer section.
      // Results are discarded (the protocol's QUERY frame is the path
      // that returns rows). Staged commits already published their LSNs,
      // so the pin sees every earlier script in this run. A select into
      // a transition table fails with the usual catalog error.
      Snapshot snapshot = scheduler().PinSnapshot();
      Status read;
      for (const StmtPtr& stmt : stmts) {
        const auto& select = static_cast<const SelectStmt&>(*stmt);
        auto result = scheduler().QueryAt(snapshot, select);
        if (!result.ok()) {
          read = result.status();
          break;
        }
      }
      if (!read.ok()) {
        ++aborts_;
        out[i].status = read;
      } else {
        ++commits_;
        last_receipt_ = CommitReceipt{};
      }
      continue;
    }

    // DML: stage without awaiting. Admission must not QUEUE while we
    // hold staged commits — the in-flight slots we would queue for may
    // be our own, which release only when we await. With commits
    // pending, TryAdmit either hands us a free slot now or tells us to
    // drain first; with none, ExecuteBlockStaged runs normal blocking
    // admission.
    AdmissionController::Slot slot;
    if (!pending.empty()) {
      auto try_slot = scheduler().admission().TryAdmit();
      if (try_slot.ok()) {
        slot = std::move(try_slot).value();
      } else {
        flush();
      }
    }
    CommitScheduler::StagedCommit staged;
    auto trace =
        scheduler().ExecuteBlockStaged(stmts, &staged, std::move(slot));
    if (!trace.ok()) {
      ++aborts_;
      out[i].status = trace.status();
      continue;
    }
    PendingEntry entry;
    entry.index = i;
    entry.ctx = std::move(ctx);
    entry.staged = std::move(staged);
    entry.rolled_back = trace.value().rolled_back;
    entry.rollback_rule = trace.value().rollback_rule;
    pending.push_back(std::move(entry));
  }
  flush();
  return out;
}

Result<QueryResult> Session::Query(const std::string& sql) {
  StatementScope stmt_scope(this);
  CancelContext ctx;
  SOPR_RETURN_NOT_OK(stmt_scope.Begin(&ctx));
  CancelScope cancel(&ctx);
  SOPR_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::ParseStatement(sql));
  if (stmt->kind != StmtKind::kSelect) {
    return Status::InvalidArgument("Query expects a select statement");
  }
  return scheduler().QuerySnapshot(static_cast<const SelectStmt&>(*stmt));
}

Result<Session::Snapshot> Session::PinSnapshot() {
  return scheduler().PinSnapshot();
}

Result<QueryResult> Session::QueryAt(const Snapshot& snapshot,
                                     const std::string& sql) {
  StatementScope stmt_scope(this);
  CancelContext ctx;
  SOPR_RETURN_NOT_OK(stmt_scope.Begin(&ctx));
  CancelScope cancel(&ctx);
  if (!snapshot.pinned()) {
    return Status::InvalidArgument("QueryAt: snapshot is not pinned");
  }
  SOPR_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::ParseStatement(sql));
  if (stmt->kind != StmtKind::kSelect) {
    return Status::InvalidArgument("Query expects a select statement");
  }
  return scheduler().QueryAt(snapshot, static_cast<const SelectStmt&>(*stmt));
}

Result<std::string> Session::Explain(const std::string& sql) {
  return scheduler().Explain(sql);
}

}  // namespace server
}  // namespace sopr
