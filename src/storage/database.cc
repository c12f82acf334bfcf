#include "storage/database.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/digest.h"
#include "common/failpoint.h"
#include "common/string_util.h"

namespace sopr {

Status Database::ConcurrentMutationError() {
  return Status::Internal(
      "concurrent Database mutation detected: the commit scheduler must "
      "serialize writers (docs/CONCURRENCY.md)");
}

// ---------------------------------------------------------------------------
// Per-thread transaction contexts (record-level write locking)
// ---------------------------------------------------------------------------

std::vector<std::pair<const Database*, std::unique_ptr<Database::TxnContext>>>&
Database::TlsContexts() {
  // One slot per (thread, database) pair; a thread drives at most a
  // handful of engines, so linear search beats a map.
  thread_local std::vector<
      std::pair<const Database*, std::unique_ptr<TxnContext>>>
      contexts;
  return contexts;
}

Database::TxnContext* Database::txn_ctx() const {
  for (auto& [db, ctx] : TlsContexts()) {
    if (db == this) return ctx.get();
  }
  return nullptr;
}

UndoLog& Database::active_undo() const {
  TxnContext* ctx = txn_ctx();
  return ctx != nullptr ? ctx->undo : undo_;
}

std::vector<std::pair<std::string, TupleHandle>> Database::TouchedRows()
    const {
  std::vector<std::pair<std::string, TupleHandle>> touched;
  for (const UndoRecord& rec : active_undo().records()) {
    touched.emplace_back(rec.table, rec.handle);
  }
  return touched;
}

void Database::BeginTxn() {
  if (locks_ == nullptr) return;  // one database-wide undo log
  if (txn_ctx() != nullptr) return;  // already bound (idempotent)
  auto ctx = std::make_unique<TxnContext>();
  ctx->txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  TlsContexts().emplace_back(this, std::move(ctx));
}

void Database::EndTxn() {
  auto& contexts = TlsContexts();
  for (auto it = contexts.begin(); it != contexts.end(); ++it) {
    if (it->first != this) continue;
    if (locks_ != nullptr) locks_->ReleaseAll(it->second->txn_id);
    contexts.erase(it);
    return;
  }
}

bool Database::InTxn() const { return txn_ctx() != nullptr; }

uint64_t Database::txn_id() const {
  TxnContext* ctx = txn_ctx();
  return ctx != nullptr ? ctx->txn_id : 0;
}

void Database::EnableWriteLocking() {
  if (locks_ == nullptr) locks_ = std::make_unique<LockManager>();
}

Status Database::LockMutation(std::string_view table,
                              TupleHandle handle) const {
  if (locks_ == nullptr) return Status::OK();
  TxnContext* ctx = txn_ctx();
  if (ctx == nullptr) return Status::OK();  // recovery / exclusive-wall DDL
  return locks_->AcquireRecord(ctx->txn_id, ToLower(table), handle,
                               LockMode::kX);
}

Status Database::LockForScan(std::string_view table) const {
  if (locks_ == nullptr) return Status::OK();
  TxnContext* ctx = txn_ctx();
  if (ctx == nullptr) return Status::OK();
  return locks_->AcquireTable(ctx->txn_id, ToLower(table), LockMode::kS);
}

Status Database::LockForWriteScan(std::string_view table) const {
  if (locks_ == nullptr) return Status::OK();
  TxnContext* ctx = txn_ctx();
  if (ctx == nullptr) return Status::OK();
  return locks_->AcquireTable(ctx->txn_id, ToLower(table), LockMode::kX);
}

Status Database::LockRecordForRead(std::string_view table,
                                   TupleHandle h) const {
  if (locks_ == nullptr) return Status::OK();
  TxnContext* ctx = txn_ctx();
  if (ctx == nullptr) return Status::OK();
  return locks_->AcquireRecord(ctx->txn_id, ToLower(table), h, LockMode::kS);
}

Status Database::LockRecordForWrite(std::string_view table,
                                    TupleHandle h) const {
  return LockMutation(table, h);
}

bool Database::VerifyNoPending(std::string_view table,
                               TupleHandle handle) const {
  auto t = GetTable(table);
  if (!t.ok()) return true;  // table dropped since — nothing to leak
  return t.value()->VerifyNoPending(handle);
}

Status Database::CreateTable(TableSchema schema) {
  std::string key = ToLower(schema.name());
  SOPR_RETURN_NOT_OK(catalog_.AddTable(schema));
  tables_.try_emplace(std::move(key), std::move(schema));
  return Status::OK();
}

Status Database::DropTable(std::string_view name) {
  SOPR_RETURN_NOT_OK(catalog_.DropTable(name));
  tables_.erase(ToLower(name));
  return Status::OK();
}

Result<Table*> Database::GetTable(std::string_view name) {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::CatalogError("no such table: " + std::string(name));
  }
  return &it->second;
}

Result<const Table*> Database::GetTable(std::string_view name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::CatalogError("no such table: " + std::string(name));
  }
  return &it->second;
}

Result<TupleHandle> Database::InsertRow(std::string_view table, Row row) {
  MutationScope scope(&active_mutators_);
  const bool locked_txn = txn_ctx() != nullptr;
  if (!scope.exclusive && !locked_txn) return ConcurrentMutationError();
  SOPR_FAILPOINT_RETURN("storage.insert.pre");
  SOPR_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  SOPR_RETURN_NOT_OK(t->schema().CheckRow(row));
  TupleHandle handle = next_handle_.fetch_add(1, std::memory_order_acq_rel);
  // The record X (with its table IX) is what excludes full-table S/X
  // scanners until this transaction commits; the fresh handle itself can
  // have no competing holder.
  SOPR_RETURN_NOT_OK(LockMutation(table, handle));
  UndoLog& undo = active_undo();
  Row wal_image;
  if (wal_ != nullptr) wal_image = row;  // after-image for the redo record
  SOPR_RETURN_NOT_OK(t->Insert(handle, std::move(row)));
  // A mutation that cannot be undo-logged (or redo-buffered) must not stay
  // applied: without the records, rollback could not remove it, or a
  // commit would silently lose it from the durable log.
  UndoLog::Mark pos = undo.mark();
  Status logged = undo.Record(UndoRecord::Kind::kInsert, ToLower(table),
                              handle);
  if (logged.ok() && wal_ != nullptr) {
    logged = wal_->RedoInsert(pos, ToLower(table), handle, wal_image);
    if (!logged.ok()) undo.TruncateTo(pos);  // drop the orphan undo record
  }
  if (!logged.ok()) {
    FailpointRegistry::SuppressScope no_failpoints;  // revert is infallible
    SOPR_RETURN_NOT_OK(t->RollbackInsert(handle));
    return logged;
  }
  SOPR_FAILPOINT_RETURN("storage.insert.post");
  return handle;
}

Status Database::DeleteRow(std::string_view table, TupleHandle handle) {
  MutationScope scope(&active_mutators_);
  const bool locked_txn = txn_ctx() != nullptr;
  if (!scope.exclusive && !locked_txn) return ConcurrentMutationError();
  SOPR_FAILPOINT_RETURN("storage.delete.pre");
  SOPR_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  // Lock before reading the before-image: the row must not change under
  // us between the read and the erase.
  SOPR_RETURN_NOT_OK(LockMutation(table, handle));
  Row wal_before;
  if (wal_ != nullptr) {
    SOPR_ASSIGN_OR_RETURN(wal_before, t->GetCopy(handle));
  }
  UndoLog& undo = active_undo();
  SOPR_RETURN_NOT_OK(t->Erase(handle));
  UndoLog::Mark pos = undo.mark();
  Status logged =
      undo.Record(UndoRecord::Kind::kDelete, ToLower(table), handle);
  if (logged.ok() && wal_ != nullptr) {
    logged = wal_->RedoDelete(pos, ToLower(table), handle, wal_before);
    if (!logged.ok()) undo.TruncateTo(pos);  // drop the orphan undo record
  }
  if (!logged.ok()) {
    FailpointRegistry::SuppressScope no_failpoints;  // revert is infallible
    SOPR_RETURN_NOT_OK(t->RollbackDelete(handle));
    return logged;
  }
  SOPR_FAILPOINT_RETURN("storage.delete.post");
  return Status::OK();
}

Status Database::UpdateRow(std::string_view table, TupleHandle handle,
                           Row new_row) {
  MutationScope scope(&active_mutators_);
  const bool locked_txn = txn_ctx() != nullptr;
  if (!scope.exclusive && !locked_txn) return ConcurrentMutationError();
  SOPR_FAILPOINT_RETURN("storage.update.pre");
  SOPR_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  SOPR_RETURN_NOT_OK(t->schema().CheckRow(new_row));
  SOPR_RETURN_NOT_OK(LockMutation(table, handle));
  // Before- and after-images for the redo record.
  Row wal_before;
  Row wal_after;
  if (wal_ != nullptr) {
    SOPR_ASSIGN_OR_RETURN(wal_before, t->GetCopy(handle));
    wal_after = new_row;
  }
  UndoLog& undo = active_undo();
  SOPR_RETURN_NOT_OK(t->Replace(handle, std::move(new_row)));
  UndoLog::Mark pos = undo.mark();
  Status logged =
      undo.Record(UndoRecord::Kind::kUpdate, ToLower(table), handle);
  if (logged.ok() && wal_ != nullptr) {
    logged = wal_->RedoUpdate(pos, ToLower(table), handle, wal_before,
                              wal_after);
    if (!logged.ok()) undo.TruncateTo(pos);  // drop the orphan undo record
  }
  if (!logged.ok()) {
    FailpointRegistry::SuppressScope no_failpoints;  // revert is infallible
    SOPR_RETURN_NOT_OK(t->RollbackUpdate(handle));
    return logged;
  }
  SOPR_FAILPOINT_RETURN("storage.update.post");
  return Status::OK();
}

Status Database::RollbackTo(UndoLog::Mark mark) {
  MutationScope scope(&active_mutators_);
  if (!scope.exclusive && txn_ctx() == nullptr) {
    return ConcurrentMutationError();
  }
  // Undone mutations must never reach the durable log: drop their
  // buffered redo records before touching the heap.
  if (wal_ != nullptr) wal_->RedoDiscardAfter(mark);
  // Rollback replays the undo log through the same Table mutation code the
  // failpoints instrument; it must be infallible or a failed transaction
  // could land in a third state between "committed" and "S0". Locks are
  // NOT released here (strict 2PL): a partial rollback — a failed rule
  // action, a savepoint — keeps the transaction running, and even a full
  // abort holds its locks until EndTxn so no other writer can observe
  // the rollback mid-flight.
  FailpointRegistry::SuppressScope no_failpoints;
  UndoLog& undo = active_undo();
  const auto& records = undo.records();
  for (size_t i = records.size(); i > mark; --i) {
    const UndoRecord& rec = records[i - 1];
    auto table_result = GetTable(rec.table);
    if (!table_result.ok()) return table_result.status();
    Table* t = table_result.value();
    switch (rec.kind) {
      case UndoRecord::Kind::kInsert:
        SOPR_RETURN_NOT_OK(t->RollbackInsert(rec.handle));
        break;
      case UndoRecord::Kind::kDelete:
        SOPR_RETURN_NOT_OK(t->RollbackDelete(rec.handle));
        break;
      case UndoRecord::Kind::kUpdate:
        SOPR_RETURN_NOT_OK(t->RollbackUpdate(rec.handle));
        break;
    }
  }
  undo.TruncateTo(mark);
  return Status::OK();
}

void Database::CommitAll(uint64_t commit_lsn) {
  UndoLog& undo = active_undo();
  if (!undo.empty()) {
    if (commit_lsn == 0) {
      // No WAL: synthesize a commit LSN. The single-writer discipline —
      // or, with concurrent writers, the rule engine's commit mutex —
      // makes the read-modify-write safe.
      commit_lsn = last_commit_lsn_.load(std::memory_order_acquire) + 1;
    }
    // Commit-time pruning (docs/CONCURRENCY.md): retire every superseded
    // version no pinned snapshot and no future pin can see. The pin set
    // and the floor are collected in ONE registry critical section, so a
    // pin registered later necessarily reads an LSN >= the floor and
    // cannot need anything pruned below it. Non-blocking on purpose: a
    // pin acquisition can be parked inside the registry's critical
    // section (server.pin.acquire), and a committer must not wait
    // behind it. A skipped collection leaves no pins and floor 0, which
    // keeps every stamped version; this commit's chains are queued like
    // any others and the next commit that collects prunes them.
    SnapshotRegistry::PruneView view;
    const bool collected = snapshots_.TryCollectPinned(
        prune_floor_ ? prune_floor_
                     : std::function<uint64_t()>([commit_lsn] {
                         return commit_lsn;
                       }),
        &view);
    // The undo log names every (table, handle) this transaction wrote.
    // Group them per table so each table is stamped and pruned under one
    // exclusive latch.
    std::vector<std::pair<std::string_view, std::vector<TupleHandle>>>
        touched;
    for (const UndoRecord& rec : undo.records()) {
      auto it = std::find_if(touched.begin(), touched.end(), [&](auto& t) {
        return t.first == rec.table;
      });
      if (it == touched.end()) {
        it = touched.emplace(touched.end(), rec.table,
                             std::vector<TupleHandle>());
      }
      it->second.push_back(rec.handle);
    }
    std::lock_guard<std::mutex> gc(gc_mu_);
    for (const auto& [table, handles] : touched) {
      auto t = GetTable(table);
      if (!t.ok()) continue;
      // Under a lagging floor (the scheduler's visible LSN) the versions
      // this commit superseded outlive its own prune: queue their
      // chains for a commit whose floor has passed this LSN. Inserts
      // leave no chain, so an insert-only commit queues nothing.
      std::vector<TupleHandle> retained;
      t.value()->Commit(handles, commit_lsn, view.pins, view.floor,
                        &retained);
      if (retained.empty()) continue;
      // A handle written twice in one transaction is named twice.
      std::sort(retained.begin(), retained.end());
      retained.erase(std::unique(retained.begin(), retained.end()),
                     retained.end());
      prune_queue_.push_back(
          PruneEntry{commit_lsn, std::string(table), std::move(retained)});
    }
    if (collected) DrainPruneQueue(view);
  }
  uint64_t prev = last_commit_lsn_.load(std::memory_order_acquire);
  while (commit_lsn > prev && !last_commit_lsn_.compare_exchange_weak(
                                  prev, commit_lsn,
                                  std::memory_order_acq_rel)) {
  }
  undo.Clear();
}

void Database::DrainPruneQueue(const SnapshotRegistry::PruneView& view) {
  std::vector<TupleHandle> held;
  while (!prune_queue_.empty() && prune_queue_.front().lsn <= view.floor) {
    PruneEntry& entry = prune_queue_.front();
    auto t = GetTable(entry.table);
    if (t.ok()) {
      held.clear();
      t.value()->Prune(entry.handles, view.pins, view.floor, &held);
      if (!held.empty()) {
        pin_held_[entry.table].insert(held.begin(), held.end());
      }
    }
    prune_queue_.pop_front();
  }
  // A chain kept by a pin stays kept until some pin goes: re-examine
  // the pin-held chains only when the registry counted a release.
  if (view.releases == pin_releases_seen_) return;
  pin_releases_seen_ = view.releases;
  for (auto it = pin_held_.begin(); it != pin_held_.end();) {
    auto t = GetTable(it->first);
    held.clear();
    if (t.ok()) {
      const std::vector<TupleHandle> handles(it->second.begin(),
                                             it->second.end());
      t.value()->Prune(handles, view.pins, view.floor, &held);
    }
    it->second = std::set<TupleHandle>(held.begin(), held.end());
    it = it->second.empty() ? pin_held_.erase(it) : std::next(it);
  }
}

size_t Database::PruneQueueLength() const {
  std::lock_guard<std::mutex> gc(gc_mu_);
  return prune_queue_.size();
}

size_t Database::PruneVersions(uint64_t floor) {
  size_t pruned = 0;
  for (auto& [name, table] : tables_) pruned += table.PruneVersions(floor);
  return pruned;
}

size_t Database::VersionCount() const {
  size_t n = 0;
  for (const auto& [name, table] : tables_) n += table.version_count();
  return n;
}

// ---------------------------------------------------------------------------
// Recovery-only redo application
// ---------------------------------------------------------------------------

Status Database::ApplyRedoInsert(std::string_view table, TupleHandle handle,
                                 Row after, uint64_t begin) {
  FailpointRegistry::SuppressScope no_failpoints;
  SOPR_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  if (t->Contains(handle)) {
    return Status::DataLoss("redo insert into " + std::string(table) +
                            ": handle " + std::to_string(handle) +
                            " already present");
  }
  SOPR_RETURN_NOT_OK(t->schema().CheckRow(after));
  SOPR_RETURN_NOT_OK(t->Insert(handle, std::move(after), begin));
  // A pending row waits for the group's CommitAll to stamp it at the
  // COMMIT record's LSN.
  if (begin == kPendingLsn) {
    active_undo().RecordApplied(UndoRecord::Kind::kInsert, ToLower(table),
                                handle);
  }
  BumpNextHandle(handle + 1);
  return Status::OK();
}

Status Database::ApplyRedoDelete(std::string_view table, TupleHandle handle,
                                 const Row& before) {
  FailpointRegistry::SuppressScope no_failpoints;
  SOPR_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  auto current = t->Get(handle);
  if (!current.ok() || *current.value() != before) {
    return Status::DataLoss("redo delete from " + std::string(table) +
                            ": heap disagrees with logged before-image for "
                            "handle " +
                            std::to_string(handle));
  }
  SOPR_RETURN_NOT_OK(t->Erase(handle));
  active_undo().RecordApplied(UndoRecord::Kind::kDelete, ToLower(table),
                              handle);
  BumpNextHandle(handle + 1);
  return Status::OK();
}

Status Database::ApplyRedoUpdate(std::string_view table, TupleHandle handle,
                                 const Row& before, Row after) {
  FailpointRegistry::SuppressScope no_failpoints;
  SOPR_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  auto current = t->Get(handle);
  if (!current.ok() || *current.value() != before) {
    return Status::DataLoss("redo update in " + std::string(table) +
                            ": heap disagrees with logged before-image for "
                            "handle " +
                            std::to_string(handle));
  }
  SOPR_RETURN_NOT_OK(t->schema().CheckRow(after));
  SOPR_RETURN_NOT_OK(t->Replace(handle, std::move(after)));
  active_undo().RecordApplied(UndoRecord::Kind::kUpdate, ToLower(table),
                              handle);
  BumpNextHandle(handle + 1);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Integrity: checksums and invariants
// ---------------------------------------------------------------------------

namespace {

uint64_t HashValue(uint64_t h, const Value& v) {
  auto tag = static_cast<uint64_t>(v.type());
  h = digest::MixU64(h, tag);
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      h = digest::MixU64(h, v.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt:
      h = digest::MixU64(h, static_cast<uint64_t>(v.AsInt()));
      break;
    case ValueType::kDouble: {
      uint64_t bits = 0;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      h = digest::MixU64(h, bits);
      break;
    }
    case ValueType::kString:
      h = digest::Mix(h, v.AsString().data(), v.AsString().size());
      break;
  }
  return h;
}

// Domain-separation seeds so a row, an index entry, and a schema entry
// can never collide into the same per-entry hash.
constexpr uint64_t kRowSeed = digest::kFnvOffset;
constexpr uint64_t kIndexSeed = digest::kFnvOffset ^ 0xa5a5a5a5a5a5a5a5ull;
constexpr uint64_t kSchemaSeed = digest::kFnvOffset ^ 0x3c3c3c3c3c3c3c3cull;

}  // namespace

uint64_t Database::Checksum() const {
  uint64_t sum = 0;
  for (const auto& [name, table] : tables_) {
    // Catalog: table name, column names/types, and which columns carry an
    // index — so a dropped column, a renamed table, or a lost index
    // definition changes the checksum even when no rows exist.
    {
      uint64_t h = digest::MixString(kSchemaSeed, name);
      for (const ColumnDef& col : table.schema().columns()) {
        h = digest::MixString(h, ToLower(col.name));
        h = digest::MixU64(h, static_cast<uint64_t>(col.type));
      }
      for (size_t c = 0; c < table.schema().num_columns(); ++c) {
        if (table.GetIndex(c) != nullptr) h = digest::MixU64(h, c);
      }
      sum += digest::Finalize(h);
    }
    for (const auto& [handle, entry] : table.rows()) {
      uint64_t h = digest::Mix(kRowSeed, name.data(), name.size());
      h = digest::MixU64(h, handle);
      for (const Value& v : entry.row.values()) h = HashValue(h, v);
      sum += digest::Finalize(h);
    }
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      const ColumnIndex* index = table.GetIndex(c);
      if (index == nullptr) continue;
      index->ForEachEntry([&](const Value& key, TupleHandle handle) {
        uint64_t h = digest::Mix(kIndexSeed, name.data(), name.size());
        h = digest::MixU64(h, c);
        h = HashValue(h, key);
        h = digest::MixU64(h, handle);
        sum += digest::Finalize(h);
      });
    }
  }
  return sum;
}

uint64_t Database::LogicalChecksum() const {
  uint64_t sum = 0;
  for (const auto& [name, table] : tables_) {
    {
      uint64_t h = digest::MixString(kSchemaSeed, name);
      for (const ColumnDef& col : table.schema().columns()) {
        h = digest::MixString(h, ToLower(col.name));
        h = digest::MixU64(h, static_cast<uint64_t>(col.type));
      }
      for (size_t c = 0; c < table.schema().num_columns(); ++c) {
        if (table.GetIndex(c) != nullptr) h = digest::MixU64(h, c);
      }
      sum += digest::Finalize(h);
    }
    // Rows by value only — no handle, and no index entries (index
    // contents map values to handles). The commutative sum makes this a
    // multiset digest, so duplicate rows still count separately.
    for (const auto& [handle, entry] : table.rows()) {
      (void)handle;
      uint64_t h = digest::Mix(kRowSeed, name.data(), name.size());
      for (const Value& v : entry.row.values()) h = HashValue(h, v);
      sum += digest::Finalize(h);
    }
  }
  return sum;
}

Status Database::CheckInvariants() const {
  // Catalog ↔ heap agreement: the two views of "which tables exist" must
  // be identical (recovery certifies with this after replaying DDL).
  std::vector<std::string> names = catalog_.TableNames();
  if (names.size() != tables_.size()) {
    return Status::Internal(
        "catalog lists " + std::to_string(names.size()) +
        " tables but the heap holds " + std::to_string(tables_.size()));
  }
  for (const std::string& name : names) {
    auto it = tables_.find(ToLower(name));
    if (it == tables_.end()) {
      return Status::Internal("catalog table " + name + " has no heap");
    }
    if (ToLower(it->second.schema().name()) != ToLower(name)) {
      return Status::Internal("heap entry for " + name +
                              " holds schema named " +
                              it->second.schema().name());
    }
  }
  for (const auto& [name, table] : tables_) {
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      const ColumnIndex* index = table.GetIndex(c);
      if (index == nullptr) continue;
      size_t indexed_rows = 0;
      for (const auto& [handle, entry] : table.rows()) {
        const Value& key = entry.row.at(c);
        if (key.is_null()) continue;  // NULLs are not indexed
        ++indexed_rows;
        const std::set<TupleHandle>* bucket = index->Lookup(key);
        if (bucket == nullptr || bucket->count(handle) == 0) {
          return Status::Internal(
              "index on " + name + "." +
              table.schema().columns()[c].name + " is missing handle " +
              std::to_string(handle) + " for key " + key.ToString());
        }
      }
      if (index->num_entries() != indexed_rows) {
        return Status::Internal(
            "index on " + name + "." + table.schema().columns()[c].name +
            " has " + std::to_string(index->num_entries()) +
            " entries but the heap has " + std::to_string(indexed_rows) +
            " indexable rows (stale entries)");
      }
    }
  }
  return Status::OK();
}

}  // namespace sopr
