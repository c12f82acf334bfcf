#include "rules/rule_engine.h"

#include <algorithm>
#include <thread>

#include "common/digest.h"
#include "common/failpoint.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "rules/transition_tables.h"
#include "sql/parser.h"
#include "wal/wal_writer.h"

namespace sopr {

Result<QueryResult> ProcedureContext::Query(const std::string& sql) {
  SOPR_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::ParseStatement(sql));
  if (stmt->kind != StmtKind::kSelect) {
    return Status::InvalidArgument(
        "ProcedureContext::Query expects a select statement");
  }
  return executor_->ExecuteSelect(static_cast<const SelectStmt&>(*stmt));
}

Status ProcedureContext::Execute(const std::string& sql) {
  SOPR_ASSIGN_OR_RETURN(std::vector<StmtPtr> stmts, Parser::ParseScript(sql));
  for (const StmtPtr& stmt : stmts) {
    SOPR_ASSIGN_OR_RETURN(DmlEffect effect, executor_->ExecuteDml(*stmt));
    accumulate_->ApplyOp(effect);
  }
  return Status::OK();
}

RuleEngine::RuleEngine(Database* db, RuleEngineOptions options)
    : db_(db), options_(options) {}

RuleEngine::EngineTls& RuleEngine::Tls() const {
  // One slot per (thread, engine). Slots are unique_ptrs so references
  // handed out stay valid even if the vector reallocates when a thread
  // first touches another engine.
  thread_local std::vector<
      std::pair<const RuleEngine*, std::unique_ptr<EngineTls>>>
      slots;
  for (auto& slot : slots) {
    if (slot.first == this) return *slot.second;
  }
  slots.emplace_back(this, std::make_unique<EngineTls>());
  return *slots.back().second;
}

bool RuleEngine::in_transaction() const { return Tls().frame != nullptr; }

RuleEngine::RuleState* RuleEngine::FindState(const std::string& name) {
  std::string key = ToLower(name);
  for (auto& state : rules_) {
    if (state->rule->name() == key) return state.get();
  }
  return nullptr;
}

const RuleEngine::RuleState* RuleEngine::FindState(
    const std::string& name) const {
  std::string key = ToLower(name);
  for (const auto& state : rules_) {
    if (state->rule->name() == key) return state.get();
  }
  return nullptr;
}

Status RuleEngine::DefineRule(std::shared_ptr<const CreateRuleStmt> def) {
  if (in_transaction()) {
    return Status::InvalidArgument(
        "rules cannot be defined inside a transaction");
  }
  if (FindState(def->name) != nullptr) {
    return Status::CatalogError("rule already exists: " + def->name);
  }
  SOPR_ASSIGN_OR_RETURN(std::shared_ptr<Rule> rule,
                        Rule::Create(std::move(def), db_->catalog()));
  auto state = std::make_unique<RuleState>();
  state->rule = std::move(rule);
  state->creation_seq = next_creation_seq_++;
  rules_.push_back(std::move(state));
  return Status::OK();
}

Status RuleEngine::DropRule(const std::string& name) {
  if (in_transaction()) {
    return Status::InvalidArgument(
        "rules cannot be dropped inside a transaction");
  }
  std::string key = ToLower(name);
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if ((*it)->rule->name() == key) {
      rules_.erase(it);
      priorities_.RemoveRule(key);
      return Status::OK();
    }
  }
  return Status::CatalogError("no such rule: " + name);
}

Status RuleEngine::AddPriority(const std::string& higher,
                               const std::string& lower) {
  if (FindState(higher) == nullptr) {
    return Status::CatalogError("no such rule: " + higher);
  }
  if (FindState(lower) == nullptr) {
    return Status::CatalogError("no such rule: " + lower);
  }
  return priorities_.AddEdge(ToLower(higher), ToLower(lower));
}

Status RuleEngine::SetRuleEnabled(const std::string& name, bool enabled) {
  RuleState* state = FindState(name);
  if (state == nullptr) {
    return Status::CatalogError("no such rule: " + name);
  }
  state->enabled = enabled;
  return Status::OK();
}

Result<bool> RuleEngine::IsRuleEnabled(const std::string& name) const {
  const RuleState* state = FindState(name);
  if (state == nullptr) {
    return Status::CatalogError("no such rule: " + name);
  }
  return state->enabled;
}

Status RuleEngine::SetResetPolicy(const std::string& name,
                                  ResetPolicy policy) {
  RuleState* state = FindState(name);
  if (state == nullptr) {
    return Status::CatalogError("no such rule: " + name);
  }
  state->reset_policy = policy;
  return Status::OK();
}

Status RuleEngine::SetDetached(const std::string& name, bool detached) {
  RuleState* state = FindState(name);
  if (state == nullptr) {
    return Status::CatalogError("no such rule: " + name);
  }
  if (detached && state->rule->action_is_rollback()) {
    return Status::InvalidArgument(
        "rule " + name +
        " has a rollback action; detaching it is meaningless (a detached "
        "action runs in its own transaction)");
  }
  state->detached = detached;
  return Status::OK();
}

Status RuleEngine::RegisterProcedure(const std::string& name,
                                     ProcedureFn fn) {
  std::string key = ToLower(name);
  if (procedures_.count(key) > 0) {
    return Status::CatalogError("procedure already registered: " + name);
  }
  procedures_.emplace(std::move(key), std::move(fn));
  return Status::OK();
}

void RuleEngine::ResetInfo(TxnFrame& frame, size_t index) {
  RuleScratch& scratch = frame.scratch[index];
  if (options_.maintenance == MaintenanceMode::kPerRule) {
    scratch.info.Clear();
    scratch.effect = TransitionEffect();
  } else {
    scratch.log_start = frame.log.size();
    scratch.cached.Clear();
    scratch.cached_effect = TransitionEffect();
    scratch.cached_upto = frame.log.size();
  }
}

std::vector<std::string> RuleEngine::RuleNames() const {
  std::vector<std::string> names;
  names.reserve(rules_.size());
  for (const auto& state : rules_) names.push_back(state->rule->name());
  return names;
}

Result<const Rule*> RuleEngine::GetRule(const std::string& name) const {
  const RuleState* state = FindState(name);
  if (state == nullptr) {
    return Status::CatalogError("no such rule: " + name);
  }
  return state->rule.get();
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Status RuleEngine::Begin() {
  EngineTls& tls = Tls();
  if (tls.frame != nullptr) {
    return Status::InvalidArgument("transaction already in progress");
  }
  // Bind this thread's database transaction context first: with record
  // locking enabled every mutation below acquires locks under this txn
  // id, and the undo mark must come from the per-transaction undo log.
  db_->BeginTxn();
  auto frame = std::make_unique<TxnFrame>();
  frame->start_mark = db_->UndoMark();
  db_->set_undo_budget(options_.max_undo_records);
  frame->has_deadline = options_.txn_deadline.count() > 0;
  if (frame->has_deadline) {
    frame->deadline_at = std::chrono::steady_clock::now() + options_.txn_deadline;
  }
  // Compose this transaction's cancellation sources on top of the
  // caller's (a session installs its kill token and statement timeout
  // before calling in) and make them ambient for the frame's lifetime:
  // lock waits, scan batches, and retry sleeps all observe the same
  // context without signature plumbing. Detached transactions re-derive
  // from the session scope after this frame dies, so they get their own
  // deadline window but stay killable.
  frame->cancel = CancelContext::InheritAmbient();
  if (frame->has_deadline) {
    frame->cancel.AddDeadline(Deadline::At(frame->deadline_at), "transaction");
  }
  frame->cancel_scope = std::make_unique<CancelScope>(&frame->cancel);
  if (options_.verify_rollback_integrity && db_->lock_manager() == nullptr) {
    // Whole-state checksums are only meaningful without concurrent
    // committers; in locking mode rollback is verified per touched row
    // instead (see AbortTransaction).
    frame->start_checksum = db_->Checksum();
  }
  if (wal_ != nullptr) wal_->BeginTxn();
  frame->scratch.resize(rules_.size());
  tls.frame = std::move(frame);
  return Status::OK();
}

Status RuleEngine::AbortTransaction() {
  // RollbackTo discards the buffered redo; AbortTxn drops the writer's
  // transaction state. Nothing of an aborted transaction was ever written
  // to the log, so there is no durable side to undo.
  EngineTls& tls = Tls();
  const bool was_in_txn = tls.frame != nullptr;
  const UndoLog::Mark start_mark =
      was_in_txn ? tls.frame->start_mark : UndoLog::Mark{0};
  const uint64_t start_checksum = was_in_txn ? tls.frame->start_checksum : 0;
  const bool locked = db_->lock_manager() != nullptr && db_->InTxn();
  std::vector<std::pair<std::string, TupleHandle>> touched;
  if (options_.verify_rollback_integrity && locked) {
    touched = db_->TouchedRows();
  }
  Status undo = db_->RollbackTo(start_mark);
  if (wal_ != nullptr) wal_->AbortTxn();
  Status verify = Status::OK();
  if (undo.ok() && options_.verify_rollback_integrity && locked) {
    // Whole-state checksums are meaningless while other writers commit
    // concurrently. Instead verify — while this transaction's exclusive
    // locks are still held, so nobody can have re-created one — that the
    // rollback left no pending version on any row it touched.
    for (const auto& [table, handle] : touched) {
      if (!db_->VerifyNoPending(table, handle)) {
        verify = Status::Internal(
            "rollback left a pending version on " + table + " handle " +
            std::to_string(handle));
        break;
      }
    }
  }
  // Strict two-phase locking: every lock this transaction took releases
  // here, at transaction end — partial rollback never releases locks.
  db_->EndTxn();
  // Dropping the frame discards pending_block, the shared log, and the
  // deferred queue. Detached actions queued by the aborted transaction
  // must not run (their trigger never committed); deferrals from an
  // enclosing committed transaction were already drained into
  // RunDeferred's local queue.
  tls.frame.reset();
  SOPR_RETURN_NOT_OK(undo);
  SOPR_RETURN_NOT_OK(verify);
  if (options_.verify_rollback_integrity && was_in_txn && !locked) {
    SOPR_RETURN_NOT_OK(db_->CheckInvariants());
    uint64_t restored = db_->Checksum();
    if (restored != start_checksum) {
      return Status::Internal(
          "rollback did not restore the transaction-start state: checksum " +
          std::to_string(restored) + " != S0 checksum " +
          std::to_string(start_checksum));
    }
  }
  return Status::OK();
}

Status RuleEngine::CheckDeadline(const TxnFrame& frame) const {
  if (frame.has_deadline &&
      std::chrono::steady_clock::now() > frame.deadline_at) {
    return Status::Timeout(
        "transaction exceeded its deadline of " +
        std::to_string(options_.txn_deadline.count()) + "ms");
  }
  // The ambient context covers the remaining sources (session kill,
  // statement timeout) and gives chaos a delivery point (cancel.deliver).
  return CheckCancel("rule processing");
}

Status RuleEngine::RollbackTransaction() {
  if (!in_transaction()) {
    return Status::InvalidArgument("no transaction in progress");
  }
  return AbortTransaction();
}

Status RuleEngine::RunOps(const std::vector<const Stmt*>& ops,
                          ExecutionTrace* trace) {
  TxnFrame* frame = Tls().frame.get();
  if (frame == nullptr) {
    return Status::InvalidArgument("no transaction in progress");
  }
  Status entry = SOPR_FAILPOINT("rules.block.pre");
  if (!entry.ok()) {
    SOPR_RETURN_NOT_OK(AbortTransaction());
    return entry;
  }
  // External blocks may not reference transition tables, but they execute
  // with the same resolver so that the error message is uniform.
  DatabaseResolver resolver(db_);
  Executor executor(db_, &resolver, ExecOptionsFrom(options_));
  for (const Stmt* op : ops) {
    Status deadline = CheckDeadline(*frame);
    if (!deadline.ok()) {
      SOPR_RETURN_NOT_OK(AbortTransaction());
      return deadline;
    }
    if (op->kind == StmtKind::kProcessRules) {
      SOPR_RETURN_NOT_OK(AbortTransaction());
      return Status::InvalidArgument(
          "'process rules' is only valid inside a full operation block "
          "(use ProcessRules() with the explicit transaction API)");
    }
    Status s = ExecuteOp(executor, *op, &frame->pending_block, trace);
    if (!s.ok()) {
      SOPR_RETURN_NOT_OK(AbortTransaction());
      return s;
    }
  }
  Status exit = SOPR_FAILPOINT("rules.block.post");
  if (!exit.ok()) {
    SOPR_RETURN_NOT_OK(AbortTransaction());
    return exit;
  }
  return Status::OK();
}

void RuleEngine::PropagateTransition(TxnFrame& frame,
                                     const TransInfo& transition,
                                     size_t source_index) {
  if (options_.maintenance == MaintenanceMode::kPerRule) {
    for (size_t i = 0; i < rules_.size(); ++i) {
      RuleScratch& scratch = frame.scratch[i];
      if (i == source_index &&
          rules_[i]->reset_policy == ResetPolicy::kOnExecution) {
        scratch.info = transition;  // Figure 1: R gets new transition info
      } else {
        // All other rules compose; a kOnConsideration source was already
        // reset at its consideration point, so its own transition
        // composes in like any other.
        scratch.info.Compose(transition);
      }
      scratch.effect = scratch.info.ToEffect();
    }
  } else {
    frame.log.push_back(transition);
    frame.global_composite.Compose(transition);
    frame.global_effect = frame.global_composite.ToEffect();
    if (source_index != kNoSource &&
        rules_[source_index]->reset_policy == ResetPolicy::kOnExecution) {
      RuleScratch& scratch = frame.scratch[source_index];
      scratch.log_start = frame.log.size() - 1;
      scratch.cached = transition;
      scratch.cached_effect = scratch.cached.ToEffect();
      scratch.cached_upto = frame.log.size();
    }
  }
  // A new transition starts a new state: every rule may be (re)considered.
  for (RuleScratch& scratch : frame.scratch) {
    scratch.considered_in_state = false;
  }
}

RuleEngine::InfoView RuleEngine::ViewFor(TxnFrame& frame, size_t index) {
  RuleScratch& scratch = frame.scratch[index];
  if (options_.maintenance == MaintenanceMode::kPerRule) {
    return InfoView{&scratch.info, &scratch.effect};
  }
  if (scratch.log_start == 0) {
    // Never fired this transaction: every such rule shares the global
    // composite, so idle rules cost nothing per transition.
    return InfoView{&frame.global_composite, &frame.global_effect};
  }
  // Fired before: lazily extend this rule's private cache.
  size_t begin = std::max(scratch.cached_upto, scratch.log_start);
  if (scratch.cached_upto < scratch.log_start) {
    scratch.cached.Clear();
    begin = scratch.log_start;
  }
  if (begin < frame.log.size()) {
    for (size_t i = begin; i < frame.log.size(); ++i) {
      scratch.cached.Compose(frame.log[i]);
    }
    scratch.cached_upto = frame.log.size();
    scratch.cached_effect = scratch.cached.ToEffect();
  }
  return InfoView{&scratch.cached, &scratch.cached_effect};
}

Status RuleEngine::RunRuleLoop(ExecutionTrace* trace) {
  TxnFrame& frame = *Tls().frame;
  while (true) {
    Status deadline = CheckDeadline(frame);
    if (!deadline.ok()) {
      SOPR_RETURN_NOT_OK(AbortTransaction());
      return deadline;
    }
    // Gather triggered rules that have not yet been rejected in the
    // current state.
    std::vector<SelectionCandidate> candidates;
    std::vector<size_t> candidate_indices;
    for (size_t i = 0; i < rules_.size(); ++i) {
      RuleState& state = *rules_[i];
      RuleScratch& scratch = frame.scratch[i];
      if (!state.enabled || scratch.considered_in_state) continue;
      InfoView view = ViewFor(frame, i);
      if (view.info->Empty()) continue;
      if (!state.rule->Triggered(*view.effect)) continue;
      candidates.push_back(SelectionCandidate{state.rule->name(),
                                              state.creation_seq,
                                              scratch.last_considered});
      candidate_indices.push_back(i);
    }

    int pick = SelectRule(candidates, priorities_, options_.tie_break);
    if (pick < 0) return Status::OK();  // quiescent

    size_t index = candidate_indices[static_cast<size_t>(pick)];
    RuleState* state = rules_[index].get();
    const Rule& rule = *state->rule;
    frame.scratch[index].last_considered = ++frame.consider_tick;
    frame.scratch[index].considered_in_state = true;

    // check-condition: evaluate against the current state and the rule's
    // transition tables. The info is copied so that the footnote 8
    // consideration-reset below cannot invalidate the transition tables
    // the condition and action are evaluated against.
    TransInfo info = *ViewFor(frame, index).info;
    // Footnote 8 alternative: measure this rule's next composite
    // transition from this consideration point onward. (The action's own
    // transition, which happens after this point, is then included.)
    if (state->reset_policy == ResetPolicy::kOnConsideration) {
      ResetInfo(frame, index);
    }
    TransitionTableResolver resolver(db_, &info);
    Executor executor(db_, &resolver, ExecOptionsFrom(options_));
    bool condition_holds = true;
    if (rule.condition() != nullptr) {
      Scope scope;
      EvalContext ctx;
      ctx.runner = &executor;
      auto held = EvaluatePredicate(*rule.condition(), scope, ctx);
      if (!held.ok()) {
        SOPR_RETURN_NOT_OK(AbortTransaction());
        return Status(held.status().code(),
                      "rule " + rule.name() +
                          " condition failed: " + held.status().message());
      }
      condition_holds = (held.value() == TriBool::kTrue);
    }
    if (trace != nullptr) {
      trace->considered.push_back(Consideration{rule.name(), condition_holds});
    }
    if (!condition_holds) continue;  // try another rule in this state

    if (rule.action_is_rollback()) {
      SOPR_RETURN_NOT_OK(AbortTransaction());
      if (trace != nullptr) {
        trace->rolled_back = true;
        trace->rollback_rule = rule.name();
      }
      return Status::OK();
    }

    // Detached rules (§5.3): queue the action with a snapshot of its
    // transition tables; it runs as its own transaction after commit.
    if (state->detached) {
      frame.deferred.push_back(DeferredFiring{index, info});
      // Like a firing, the rule's composite transition restarts here.
      ResetInfo(frame, index);
      continue;
    }

    // Execute the action's operation block; its ops compose into one
    // transition (§2.1).
    if (++frame.firings > options_.max_rule_firings) {
      SOPR_RETURN_NOT_OK(AbortTransaction());
      return Status::LimitExceeded(
          "rule cascade exceeded " +
          std::to_string(options_.max_rule_firings) +
          " firings in one transaction (possible infinite loop involving "
          "rule " +
          rule.name() + ")");
    }
    total_firings_.fetch_add(1, std::memory_order_relaxed);

    Status pre = SOPR_FAILPOINT("rules.action.pre");
    if (!pre.ok()) {
      SOPR_RETURN_NOT_OK(AbortTransaction());
      return Status(pre.code(), "before action of rule " + rule.name() +
                                    ": " + pre.message());
    }
    TransInfo action_info;
    SOPR_RETURN_NOT_OK(ExecuteAction(rule, info, &action_info, trace));
    Status post = SOPR_FAILPOINT("rules.action.post");
    if (!post.ok()) {
      SOPR_RETURN_NOT_OK(AbortTransaction());
      return Status(post.code(), "after action of rule " + rule.name() +
                                     ": " + post.message());
    }

    if (trace != nullptr) {
      trace->firings.push_back(RuleFiring{rule.name(), action_info, false});
    }
    PropagateTransition(frame, action_info, index);
  }
}

Status RuleEngine::ExecuteAction(const Rule& rule, const TransInfo& info,
                                 TransInfo* out, ExecutionTrace* trace) {
  TransitionTableResolver resolver(db_, &info);
  Executor executor(db_, &resolver, ExecOptionsFrom(options_));
  for (const StmtPtr& op : rule.action()) {
    Status deadline = CheckDeadline(*Tls().frame);
    if (!deadline.ok()) {
      SOPR_RETURN_NOT_OK(AbortTransaction());
      return deadline;
    }
    if (op->kind == StmtKind::kCall) {
      const auto& call = static_cast<const CallStmt&>(*op);
      auto it = procedures_.find(call.procedure);
      if (it == procedures_.end()) {
        SOPR_RETURN_NOT_OK(AbortTransaction());
        return Status::CatalogError("rule " + rule.name() +
                                    ": no such procedure: " + call.procedure);
      }
      ProcedureContext context(&executor, out, rule.name());
      Status proc_status = it->second(context);
      if (!proc_status.ok()) {
        SOPR_RETURN_NOT_OK(AbortTransaction());
        return Status(proc_status.code(),
                      "rule " + rule.name() + " procedure " + call.procedure +
                          " failed: " + proc_status.message());
      }
      continue;
    }
    Status s = ExecuteOp(executor, *op, out, trace);
    if (!s.ok()) {
      SOPR_RETURN_NOT_OK(AbortTransaction());
      return Status(s.code(),
                    "rule " + rule.name() + " action failed: " + s.message());
    }
  }
  return Status::OK();
}

Status RuleEngine::ExecuteOp(Executor& executor, const Stmt& op,
                             TransInfo* out, ExecutionTrace* trace) {
  if (op.kind == StmtKind::kSelect) {
    std::vector<SelectedTuple> selected;
    SOPR_ASSIGN_OR_RETURN(
        QueryResult result,
        executor.ExecuteSelect(static_cast<const SelectStmt&>(op), nullptr,
                               options_.track_selects ? &selected : nullptr));
    if (trace != nullptr) trace->retrieved.push_back(std::move(result));
    if (options_.track_selects) out->ApplySelect(selected);
    return Status::OK();
  }
  SOPR_ASSIGN_OR_RETURN(DmlEffect effect, executor.ExecuteDml(op));
  out->ApplyOp(effect);
  return Status::OK();
}

Status RuleEngine::RunDeferredOnce(size_t rule_index, const TransInfo& info,
                                   ExecutionTrace* trace) {
  SOPR_FAILPOINT_RETURN("rules.deferred.dispatch");
  const Rule& rule = *rules_[rule_index]->rule;
  SOPR_RETURN_NOT_OK(Begin());
  total_firings_.fetch_add(1, std::memory_order_relaxed);
  TransInfo action_info;
  SOPR_RETURN_NOT_OK(ExecuteAction(rule, info, &action_info, trace));
  if (trace != nullptr) {
    trace->firings.push_back(RuleFiring{rule.name(), action_info, true});
  }
  // The detached action is this transaction's externally-generated block
  // from every other rule's perspective.
  Tls().frame->pending_block = std::move(action_info);
  return Commit(trace);  // cascades + nested deferrals
}

Status RuleEngine::RunDeferred(std::vector<DeferredFiring> queue,
                               ExecutionTrace* trace) {
  EngineTls& tls = Tls();
  ++tls.detached_depth;
  if (tls.detached_depth == 1) tls.detached_runs = 0;
  Status overall = Status::OK();
  for (DeferredFiring& f : queue) {
    const Rule& rule = *rules_[f.rule_index]->rule;
    Status attempt = Status::OK();
    size_t attempts = 0;
    // Attempt k sleeps backoff * 2^(k-1), capped at one second.
    RetryPolicy policy;
    policy.initial_delay = options_.detached_retry_backoff;
    policy.max_delay = std::chrono::seconds(1);
    policy.multiplier = 2.0;
    policy.jitter = 0.0;
    Backoff backoff(policy);
    while (true) {
      if (++tls.detached_runs > options_.max_rule_firings) {
        overall = Status::LimitExceeded(
            "detached rule chain exceeded " +
            std::to_string(options_.max_rule_firings) + " transactions");
        break;
      }
      ++attempts;
      size_t firings_before = trace != nullptr ? trace->firings.size() : 0;
      attempt = RunDeferredOnce(f.rule_index, f.info, trace);
      if (attempt.ok()) break;
      // The runaway guard is an engine-level error, not a transient
      // failure of this action: surface it instead of retrying.
      if (attempt.code() == StatusCode::kLimitExceeded) break;
      // The attempt's transaction was rolled back; drop its firing record
      // so a retry cannot double-report.
      if (trace != nullptr) trace->firings.resize(firings_before);
      if (attempts > options_.detached_retries) break;
      if (options_.detached_retry_backoff.count() > 0) {
        // Deadline/cancel-aware: the sleep is clipped to the ambient
        // budget (the session's statement timeout or a kill), and an
        // interrupted sleep ends the retry schedule — the cancellation,
        // not the transient failure, is what the caller must see.
        Status slept = backoff.Sleep("detached retry backoff");
        if (!slept.ok()) {
          attempt = slept;
          break;
        }
      }
    }
    if (!overall.ok()) break;
    if (attempt.code() == StatusCode::kLimitExceeded) {
      overall = attempt;
      break;
    }
    if (!attempt.ok() && trace != nullptr) {
      // The action failed every attempt; its own transactions rolled back
      // while the committed triggering transaction stands.
      std::string label = rule.name();
      if (attempts > 1) {
        label += " (after " + std::to_string(attempts) + " attempts)";
      }
      trace->detached_errors.push_back(label + ": " + attempt.ToString());
    }
  }
  --tls.detached_depth;
  return overall;
}

Status RuleEngine::ProcessRules(ExecutionTrace* trace) {
  TxnFrame* frame = Tls().frame.get();
  if (frame == nullptr) {
    return Status::InvalidArgument("no transaction in progress");
  }
  if (!frame->pending_block.Empty()) {
    // The externally-generated transition is complete; fold it into every
    // rule's composite info (external transitions have no source rule).
    TransInfo block = std::move(frame->pending_block);
    frame->pending_block.Clear();
    PropagateTransition(*frame, block, kNoSource);
  }
  Status status = RunRuleLoop(trace);
  if (!status.ok() && in_transaction()) {
    SOPR_RETURN_NOT_OK(AbortTransaction());
  }
  return status;
}

Status RuleEngine::Commit(ExecutionTrace* trace) {
  return CommitImpl(trace, nullptr);
}

Status RuleEngine::CommitStaged(ExecutionTrace* trace,
                                std::shared_ptr<wal::CommitTicket>* staged) {
  *staged = nullptr;
  return CommitImpl(trace, staged);
}

Status RuleEngine::CommitImpl(ExecutionTrace* trace,
                              std::shared_ptr<wal::CommitTicket>* staged) {
  SOPR_RETURN_NOT_OK(ProcessRules(trace));
  EngineTls& tls = Tls();
  std::vector<DeferredFiring> deferred;
  if (tls.frame != nullptr) {
    uint64_t commit_lsn = 0;  // 0 = synthetic (in-memory engine)
    // Deliberately OUTSIDE commit_mu_: a writer parked here (the litmus
    // harness does this) still holds its record locks, but does not block
    // other writers' commits.
    Status fault = SOPR_FAILPOINT("rules.commit.pre");
    if (!fault.ok()) {
      SOPR_RETURN_NOT_OK(AbortTransaction());
      return fault;
    }
    Status committed;
    {
      // Serialize LSN assignment and version stamping across writer
      // threads: WAL file order, commit-LSN order, and MVCC stamping
      // order must agree (docs/CONCURRENCY.md).
      std::lock_guard<std::mutex> commit_lock(commit_mu_);
      // Past the point of no return: the transaction survived every
      // cancellation check; once its batch is staged, an interrupted
      // durability wait could not be rolled back (the bytes may reach the
      // log anyway). Shield the commit section from the ambient context —
      // the scheduler's AwaitDurable, outside this section, stays
      // cancellable with commit-outcome-unknown semantics.
      CancelScope commit_shield(nullptr);
      committed = [&]() -> Status {
        if (wal_ != nullptr) {
          // The durability point: the group-commit batch (BEGIN + every
          // redo record of this transaction, rule-generated mutations
          // included + COMMIT) reaches the log before the undo
          // information is forgotten. If it cannot, the transaction never
          // happened — roll back to S0. In staged mode the batch is only
          // deposited on the group-commit queue here; the caller awaits
          // durability outside the serialized commit section (a failure
          // there is handled by the scheduler, not by rollback — later
          // transactions may already have built on this one's state).
          auto ticket = wal_->StageCommitTxn(db_->next_handle());
          if (!ticket.ok()) return ticket.status();
          if (staged != nullptr) {
            *staged = std::move(ticket).value();
            // The COMMIT record's LSN identifies this commit for MVCC
            // snapshots (null ticket = read-only transaction, no new
            // state).
            if (*staged != nullptr) commit_lsn = (*staged)->last_lsn;
          } else {
            // Stage + await, like CommitTxn, but keeping the ticket so
            // the commit LSN is known for version stamping.
            Status durable = wal_->AwaitDurable(ticket.value());
            if (!durable.ok()) return durable;
            if (ticket.value() != nullptr) {
              commit_lsn = ticket.value()->last_lsn;
            }
          }
        }
        db_->CommitAll(commit_lsn);
        return Status::OK();
      }();
    }
    if (!committed.ok()) {
      SOPR_RETURN_NOT_OK(AbortTransaction());
      return committed;
    }
    deferred = std::move(tls.frame->deferred);
    tls.frame.reset();
    // Strict two-phase locking: locks release only after the whole
    // fixpoint committed and its versions are stamped, so the record
    // conflict order equals the commit-LSN order.
    db_->EndTxn();
  }
  if (!deferred.empty()) {
    SOPR_RETURN_NOT_OK(RunDeferred(std::move(deferred), trace));
  }
  return Status::OK();
}

uint64_t RuleEngine::RuleSetChecksum() const {
  // Domain-separation seeds mirror Database::Checksum's scheme.
  constexpr uint64_t kRuleSeed = digest::kFnvOffset ^ 0x6969696969696969ull;
  constexpr uint64_t kEdgeSeed = digest::kFnvOffset ^ 0x0f0f0f0f0f0f0f0full;
  uint64_t sum = 0;
  for (const auto& state : rules_) {
    uint64_t h = digest::MixString(kRuleSeed, state->rule->name());
    h = digest::MixString(h, state->rule->def().ToString());
    h = digest::MixU64(h, state->enabled ? 1 : 0);
    h = digest::MixU64(h, state->detached ? 1 : 0);
    h = digest::MixU64(h, static_cast<uint64_t>(state->reset_policy));
    sum += digest::Finalize(h);
  }
  std::vector<std::string> names = RuleNames();
  for (const std::string& higher : names) {
    for (const std::string& lower : names) {
      if (priorities_.Higher(higher, lower)) {
        uint64_t h = digest::MixString(kEdgeSeed, higher);
        h = digest::MixString(h, lower);
        sum += digest::Finalize(h);
      }
    }
  }
  return sum;
}

Result<ExecutionTrace> RuleEngine::ExecuteBlock(
    const std::vector<const Stmt*>& ops) {
  return ExecuteBlockImpl(ops, nullptr);
}

Result<ExecutionTrace> RuleEngine::ExecuteBlockStaged(
    const std::vector<const Stmt*>& ops,
    std::shared_ptr<wal::CommitTicket>* staged) {
  *staged = nullptr;
  return ExecuteBlockImpl(ops, staged);
}

Result<ExecutionTrace> RuleEngine::ExecuteBlockImpl(
    const std::vector<const Stmt*>& ops,
    std::shared_ptr<wal::CommitTicket>* staged) {
  SOPR_RETURN_NOT_OK(Begin());
  ExecutionTrace trace;
  // `process rules` markers (§5.3) split the script into segments, each
  // an externally-generated transition followed by rule processing.
  std::vector<const Stmt*> segment;
  for (const Stmt* op : ops) {
    if (op->kind == StmtKind::kProcessRules) {
      SOPR_RETURN_NOT_OK(RunOps(segment, &trace));
      segment.clear();
      SOPR_RETURN_NOT_OK(ProcessRules(&trace));
      if (!in_transaction()) return trace;  // a rule rolled back the txn
      continue;
    }
    segment.push_back(op);
  }
  SOPR_RETURN_NOT_OK(RunOps(segment, &trace));
  SOPR_RETURN_NOT_OK(CommitImpl(&trace, staged));
  return trace;
}

}  // namespace sopr
