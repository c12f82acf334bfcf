#include "engine/engine.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/digest.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "wal/checkpoint.h"
#include "wal/dir_lock.h"
#include "wal/recovery.h"
#include "wal/wal_writer.h"

namespace sopr {

namespace {

bool IsDdl(const Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::kCreateTable:
    case StmtKind::kCreateIndex:
    case StmtKind::kCreateRule:
    case StmtKind::kCreatePriority:
    case StmtKind::kDropRule:
    case StmtKind::kDropTable:
    case StmtKind::kSetRuleEnabled:
      return true;
    default:
      return false;
  }
}

Result<WalFsyncPolicy> FsyncPolicyFromEnv(WalFsyncPolicy fallback) {
  const char* env = std::getenv("SOPR_WAL_FSYNC");
  if (env == nullptr || *env == '\0') return fallback;
  std::string v = ToLower(env);
  if (v == "off") return WalFsyncPolicy::kOff;
  if (v == "commit") return WalFsyncPolicy::kCommit;
  if (v == "always") return WalFsyncPolicy::kAlways;
  return Status::InvalidArgument("SOPR_WAL_FSYNC: unknown policy '" +
                                 std::string(env) +
                                 "' (expected off, commit, or always)");
}

}  // namespace

Engine::Engine(RuleEngineOptions options)
    : db_(std::make_unique<Database>()),
      rules_(std::make_unique<RuleEngine>(db_.get(), options)) {}

Engine::~Engine() {
  // Detach before the writer is destroyed so nothing dangles if member
  // destruction order ever changes.
  db_->set_wal(nullptr);
  rules_->set_wal(nullptr);
}

Result<std::unique_ptr<Engine>> Engine::Open(RuleEngineOptions options) {
  // A malformed SOPR_FAILPOINTS spec is a hard startup error here — the
  // lazy site-hit path deliberately ignores it, so without this check a
  // typo would silently disable the requested fault injection.
  SOPR_RETURN_NOT_OK(FailpointRegistry::Instance().EnsureEnvArmed());
  SOPR_ASSIGN_OR_RETURN(options.wal_fsync,
                        FsyncPolicyFromEnv(options.wal_fsync));
  auto engine = std::make_unique<Engine>(options);
  if (options.wal_dir.empty()) return engine;

  if (::mkdir(options.wal_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir " + options.wal_dir + ": " +
                           std::strerror(errno));
  }
  // Take the single-writer directory lock before touching the log: a
  // second engine (this process or another) on the same wal_dir would be
  // silent log corruption. Held until the engine is destroyed.
  SOPR_ASSIGN_OR_RETURN(engine->dir_lock_,
                        wal::DirLock::Acquire(options.wal_dir));
  // Recovery runs before the writer attaches: replay must not re-log.
  SOPR_ASSIGN_OR_RETURN(wal::RecoveryStats stats,
                        wal::RecoverDatabase(options.wal_dir, engine.get()));
  auto writer = std::make_unique<wal::WalWriter>(options.wal_fsync);
  SOPR_RETURN_NOT_OK(
      writer->Open(options.wal_dir, stats.next_lsn, stats.next_txn_id));
  engine->AttachWal(std::move(writer));
  return engine;
}

void Engine::AttachWal(std::unique_ptr<wal::WalWriter> wal) {
  wal_ = std::move(wal);
  db_->set_wal(wal_.get());
  rules_->set_wal(wal_.get());
}

void Engine::AdoptDurability(std::unique_ptr<wal::DirLock> lock,
                             std::unique_ptr<wal::WalWriter> wal) {
  dir_lock_ = std::move(lock);
  db_->set_incremental_prune_floor({});
  AttachWal(std::move(wal));
}

Status Engine::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("Checkpoint: no WAL attached");
  }
  return wal::WriteCheckpoint(this, wal_.get());
}

Status Engine::MaybeCheckpoint() {
  if (wal_ == nullptr) return Status::OK();
  const uint64_t interval = rules_->options().wal_checkpoint_interval;
  if (interval == 0 || wal_->commits_since_checkpoint() < interval) {
    return Status::OK();
  }
  Status ok = Checkpoint();
  if (!ok.ok()) {
    // The triggering transaction COMMITTED; only the snapshot failed.
    // Say so rather than letting the error read like a lost commit.
    return Status(ok.code(),
                  "post-commit checkpoint failed (the transaction itself "
                  "is durable): " +
                      ok.message());
  }
  return Status::OK();
}

uint64_t Engine::StateChecksum() const {
  return digest::Combine(db_->Checksum(), rules_->RuleSetChecksum());
}

Status Engine::CheckInvariants() const { return db_->CheckInvariants(); }

Status Engine::LogDdl(const std::string& sql) {
  if (wal_ == nullptr) return Status::OK();
  Status logged = wal_->AppendDdl(sql);
  if (!logged.ok()) {
    return Status(logged.code(), "DDL applied in memory but not durable (" +
                                     sql + "): " + logged.message());
  }
  return Status::OK();
}

Status Engine::ExecuteDdl(const Stmt& stmt) {
  // Fires before any catalog or storage change: an injected DDL failure
  // leaves the schema exactly as it was.
  SOPR_FAILPOINT_RETURN("engine.ddl.pre");
  switch (stmt.kind) {
    case StmtKind::kCreateTable: {
      const auto& ct = static_cast<const CreateTableStmt&>(stmt);
      std::vector<ColumnDef> columns;
      columns.reserve(ct.columns.size());
      for (const auto& [name, type] : ct.columns) {
        columns.push_back(ColumnDef{name, type});
      }
      return db_->CreateTable(TableSchema(ct.table, std::move(columns)));
    }
    case StmtKind::kCreateIndex: {
      const auto& ci = static_cast<const CreateIndexStmt&>(stmt);
      SOPR_ASSIGN_OR_RETURN(Table * table, db_->GetTable(ci.table));
      auto column = table->schema().FindColumn(ci.column);
      if (!column) {
        return Status::CatalogError("no column " + ci.column + " in table " +
                                    ci.table);
      }
      return table->CreateIndex(*column);
    }
    case StmtKind::kSetRuleEnabled: {
      const auto& sre = static_cast<const SetRuleEnabledStmt&>(stmt);
      return rules_->SetRuleEnabled(sre.name, sre.enabled);
    }
    case StmtKind::kCreatePriority: {
      const auto& cp = static_cast<const CreatePriorityStmt&>(stmt);
      return rules_->AddPriority(cp.higher, cp.lower);
    }
    case StmtKind::kDropRule: {
      const auto& dr = static_cast<const DropRuleStmt&>(stmt);
      return rules_->DropRule(dr.name);
    }
    case StmtKind::kDropTable: {
      const auto& dt = static_cast<const DropTableStmt&>(stmt);
      // A table still referenced by a rule cannot be dropped: the rule
      // would dangle (its predicates and transition tables name it).
      for (const std::string& rule_name : rules_->RuleNames()) {
        auto rule = rules_->GetRule(rule_name);
        if (!rule.ok()) continue;
        if (RuleReferencesTable(*rule.value(), dt.table)) {
          return Status::InvalidArgument("cannot drop table " + dt.table +
                                         ": referenced by rule " + rule_name);
        }
      }
      return db_->DropTable(dt.table);
    }
    default:
      return Status::Internal("not DDL");
  }
}

bool Engine::IsDdlStmt(const Stmt& stmt) { return IsDdl(stmt); }

Status Engine::ExecuteDdlScript(std::vector<StmtPtr>& stmts) {
  for (StmtPtr& stmt : stmts) {
    if (!IsDdl(*stmt)) {
      return Status::InvalidArgument(
          "cannot mix DDL and DML in one script: " + stmt->ToString());
    }
    // Apply-then-log: the statement's durability point is the log
    // append returning OK. Render the SQL first — defining a rule
    // hands the AST over to the rule engine.
    std::string sql_text = stmt->ToString();
    if (stmt->kind == StmtKind::kCreateRule) {
      std::shared_ptr<const CreateRuleStmt> def(
          static_cast<const CreateRuleStmt*>(stmt.release()));
      SOPR_RETURN_NOT_OK(rules_->DefineRule(std::move(def)));
    } else {
      SOPR_RETURN_NOT_OK(ExecuteDdl(*stmt));
    }
    SOPR_RETURN_NOT_OK(LogDdl(sql_text));
  }
  return Status::OK();
}

Status Engine::Execute(const std::string& sql) {
  SOPR_RETURN_NOT_OK(FailpointRegistry::Instance().EnsureEnvArmed());
  SOPR_ASSIGN_OR_RETURN(std::vector<StmtPtr> stmts, Parser::ParseScript(sql));

  if (IsDdl(*stmts[0])) {
    return ExecuteDdlScript(stmts);
  }

  SOPR_ASSIGN_OR_RETURN(ExecutionTrace trace, ExecuteBlockParsed(stmts));
  if (trace.rolled_back) {
    return Status::RolledBack("transaction rolled back by rule " +
                              trace.rollback_rule);
  }
  return Status::OK();
}

Result<ExecutionTrace> Engine::ExecuteBlock(const std::string& sql) {
  SOPR_RETURN_NOT_OK(FailpointRegistry::Instance().EnsureEnvArmed());
  SOPR_ASSIGN_OR_RETURN(std::vector<StmtPtr> stmts, Parser::ParseScript(sql));
  for (const StmtPtr& stmt : stmts) {
    if (IsDdl(*stmt)) {
      return Status::InvalidArgument("ExecuteBlock expects DML, got: " +
                                     stmt->ToString());
    }
  }
  return ExecuteBlockParsed(stmts);
}

Result<ExecutionTrace> Engine::ExecuteBlockParsed(
    const std::vector<StmtPtr>& stmts) {
  // Fires before Begin: an injected failure here rejects the block before
  // any transaction exists.
  SOPR_FAILPOINT_RETURN("engine.execute.pre");
  std::vector<const Stmt*> ops;
  ops.reserve(stmts.size());
  for (const StmtPtr& stmt : stmts) ops.push_back(stmt.get());
  auto trace = rules_->ExecuteBlock(ops);
  if (trace.ok()) SOPR_RETURN_NOT_OK(MaybeCheckpoint());
  return trace;
}

Result<QueryResult> Engine::Query(const std::string& sql) {
  SOPR_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::ParseStatement(sql));
  if (stmt->kind != StmtKind::kSelect) {
    return Status::InvalidArgument("Query expects a select statement");
  }
  DatabaseResolver resolver(db_.get());
  Executor executor(db_.get(), &resolver, ExecOptionsFrom(rules_->options()));
  return executor.ExecuteSelect(static_cast<const SelectStmt&>(*stmt));
}

Result<QueryResult> Engine::QueryAtSnapshot(const SelectStmt& stmt,
                                            uint64_t lsn) const {
  DatabaseResolver resolver(db_.get(), lsn);
  // The select path never touches the Executor's Database (that member
  // exists for DML), so a null db keeps this path trivially read-only.
  Executor executor(nullptr, &resolver, ExecOptionsFrom(rules_->options()));
  return executor.ExecuteSelect(stmt);
}

Result<ExecutionTrace> Engine::ExecuteStaged(
    const std::vector<StmtPtr>& stmts,
    std::shared_ptr<wal::CommitTicket>* ticket) {
  *ticket = nullptr;
  SOPR_FAILPOINT_RETURN("engine.execute.pre");
  std::vector<const Stmt*> ops;
  ops.reserve(stmts.size());
  for (const StmtPtr& stmt : stmts) ops.push_back(stmt.get());
  // No MaybeCheckpoint here: checkpointing needs the front-end's
  // exclusive section AND a drained group queue — the scheduler owns it.
  return rules_->ExecuteBlockStaged(ops, ticket);
}

Status Engine::AwaitDurable(const std::shared_ptr<wal::CommitTicket>& ticket) {
  if (wal_ == nullptr) return Status::OK();
  return wal_->AwaitDurable(ticket);
}

Status Engine::Run(const std::string& sql) {
  SOPR_ASSIGN_OR_RETURN(std::vector<StmtPtr> stmts, Parser::ParseScript(sql));
  std::vector<const Stmt*> ops;
  ops.reserve(stmts.size());
  for (const StmtPtr& stmt : stmts) {
    if (IsDdl(*stmt)) {
      return Status::InvalidArgument("Run expects DML, got: " +
                                     stmt->ToString());
    }
    ops.push_back(stmt.get());
  }
  return rules_->RunOps(ops);
}

Result<ExecutionTrace> Engine::ProcessRules() {
  ExecutionTrace trace;
  SOPR_RETURN_NOT_OK(rules_->ProcessRules(&trace));
  return trace;
}

Result<ExecutionTrace> Engine::Commit() {
  ExecutionTrace trace;
  SOPR_RETURN_NOT_OK(rules_->Commit(&trace));
  SOPR_RETURN_NOT_OK(MaybeCheckpoint());
  return trace;
}

Result<size_t> Engine::TableSize(const std::string& table) const {
  SOPR_ASSIGN_OR_RETURN(const Table* t, db_->GetTable(table));
  return t->size();
}

}  // namespace sopr
