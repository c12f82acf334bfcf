#include "storage/table.h"

#include <algorithm>

#include "common/failpoint.h"

namespace sopr {

namespace {

Status NoTuple(TupleHandle handle, const TableSchema& schema) {
  return Status::ExecutionError("no tuple with handle " +
                                std::to_string(handle) + " in table " +
                                schema.name());
}

}  // namespace

Status Table::Insert(TupleHandle handle, Row row, uint64_t begin) {
  if (handle == kInvalidHandle) {
    return Status::Internal("attempt to insert with invalid handle");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // A pending row is invisible to every snapshot until the owning
  // transaction commits and stamps the sentinel to its commit LSN.
  auto [it, inserted] = rows_.emplace(handle, HeapEntry{std::move(row), begin});
  if (!inserted) {
    return Status::Internal("duplicate tuple handle " +
                            std::to_string(handle) + " in table " +
                            schema_.name());
  }
  // A failure between the heap mutation and index maintenance must not
  // leave the two disagreeing: revert the heap insert before returning.
  Status fault = SOPR_FAILPOINT("table.insert.mid");
  if (!fault.ok()) {
    rows_.erase(it);
    return fault;
  }
  for (ColumnIndex& index : indexes_) {
    index.Insert(it->second.row.at(index.column()), handle);
  }
  return Status::OK();
}

Status Table::Erase(TupleHandle handle) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = rows_.find(handle);
  if (it == rows_.end()) return NoTuple(handle, schema_);
  for (ColumnIndex& index : indexes_) {
    index.Erase(it->second.row.at(index.column()), handle);
  }
  // Index entries are already gone; on an injected failure re-add them so
  // the heap (which still holds the row) and the indexes agree.
  Status fault = SOPR_FAILPOINT("table.erase.mid");
  if (!fault.ok()) {
    for (ColumnIndex& index : indexes_) {
      index.Insert(it->second.row.at(index.column()), handle);
    }
    return fault;
  }
  // The deleted image stays readable for snapshots that predate the
  // deleting commit, and is what a rollback restores.
  chains_[handle].push_back(
      RowVersion{it->second.begin, kPendingLsn, std::move(it->second.row)});
  rows_.erase(it);
  return Status::OK();
}

Status Table::Replace(TupleHandle handle, Row row) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = rows_.find(handle);
  if (it == rows_.end()) return NoTuple(handle, schema_);
  HeapEntry& entry = it->second;
  for (ColumnIndex& index : indexes_) {
    index.Erase(entry.row.at(index.column()), handle);
  }
  Status fault = SOPR_FAILPOINT("table.replace.mid");
  if (!fault.ok()) {
    for (ColumnIndex& index : indexes_) {
      index.Insert(entry.row.at(index.column()), handle);
    }
    return fault;
  }
  chains_[handle].push_back(
      RowVersion{entry.begin, kPendingLsn, std::move(entry.row)});
  entry.row = std::move(row);
  entry.begin = kPendingLsn;
  for (ColumnIndex& index : indexes_) {
    index.Insert(entry.row.at(index.column()), handle);
  }
  return Status::OK();
}

Result<RowVersion> Table::PopPendingVersion(TupleHandle handle,
                                            const char* what) {
  auto chain_it = chains_.find(handle);
  if (chain_it == chains_.end() || chain_it->second.empty() ||
      chain_it->second.back().end_lsn != kPendingLsn) {
    return Status::Internal(std::string(what) +
                            ": no pending version for handle " +
                            std::to_string(handle) + " in table " +
                            schema_.name());
  }
  RowVersion version = std::move(chain_it->second.back());
  chain_it->second.pop_back();
  if (chain_it->second.empty()) chains_.erase(chain_it);
  return version;
}

Status Table::RollbackInsert(TupleHandle handle) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = rows_.find(handle);
  if (it == rows_.end()) {
    return Status::Internal("rollback-insert: no tuple with handle " +
                            std::to_string(handle) + " in table " +
                            schema_.name());
  }
  for (ColumnIndex& index : indexes_) {
    index.Erase(it->second.row.at(index.column()), handle);
  }
  // Structural undo: the entry goes with its pending begin, rather than
  // the rollback being recorded as a deletion.
  rows_.erase(it);
  return Status::OK();
}

Status Table::RollbackDelete(TupleHandle handle) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (rows_.count(handle) != 0) {
    return Status::Internal("rollback-delete: handle " +
                            std::to_string(handle) +
                            " already present in table " + schema_.name());
  }
  SOPR_ASSIGN_OR_RETURN(RowVersion version,
                        PopPendingVersion(handle, "rollback-delete"));
  auto it = rows_
                .emplace(handle,
                         HeapEntry{std::move(version.row), version.begin_lsn})
                .first;
  for (ColumnIndex& index : indexes_) {
    index.Insert(it->second.row.at(index.column()), handle);
  }
  return Status::OK();
}

Status Table::RollbackUpdate(TupleHandle handle) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = rows_.find(handle);
  if (it == rows_.end()) {
    return Status::Internal("rollback-update: no tuple with handle " +
                            std::to_string(handle) + " in table " +
                            schema_.name());
  }
  SOPR_ASSIGN_OR_RETURN(RowVersion version,
                        PopPendingVersion(handle, "rollback-update"));
  HeapEntry& entry = it->second;
  for (ColumnIndex& index : indexes_) {
    index.Erase(entry.row.at(index.column()), handle);
  }
  entry.row = std::move(version.row);
  entry.begin = version.begin_lsn;
  for (ColumnIndex& index : indexes_) {
    index.Insert(entry.row.at(index.column()), handle);
  }
  return Status::OK();
}

Table::Chains::iterator Table::PruneChain(Chains::iterator chain_it,
                                          const std::vector<uint64_t>& pins,
                                          uint64_t floor) {
  auto keep = [&](const RowVersion& v) {
    // A pending end compares greater than any floor.
    if (v.end_lsn > floor) return true;
    // Some live pin inside [begin, end)?
    auto pin = std::lower_bound(pins.begin(), pins.end(), v.begin_lsn);
    return pin != pins.end() && *pin < v.end_lsn;
  };
  std::vector<RowVersion>& chain = chain_it->second;
  chain.erase(std::stable_partition(chain.begin(), chain.end(), keep),
              chain.end());
  return chain.empty() ? chains_.erase(chain_it) : chain_it;
}

void Table::Commit(const std::vector<TupleHandle>& handles,
                   uint64_t commit_lsn, const std::vector<uint64_t>& pins,
                   uint64_t floor, std::vector<TupleHandle>* retained) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (TupleHandle handle : handles) {
    auto live = rows_.find(handle);
    if (live != rows_.end() && live->second.begin == kPendingLsn) {
      live->second.begin = commit_lsn;
    }
    auto chain_it = chains_.find(handle);
    if (chain_it == chains_.end()) continue;
    std::vector<RowVersion>& chain = chain_it->second;
    // Pending entries are a suffix of the chain: everything older was
    // stamped by the commit that superseded it.
    for (auto v = chain.rbegin();
         v != chain.rend() && v->end_lsn == kPendingLsn; ++v) {
      v->end_lsn = commit_lsn;
      // An insert superseded within its own transaction yields the empty
      // interval [C, C): correctly visible to nobody.
      if (v->begin_lsn == kPendingLsn) v->begin_lsn = commit_lsn;
    }
    if (PruneChain(chain_it, pins, floor) != chains_.end()) {
      retained->push_back(handle);
    }
  }
}

void Table::Prune(const std::vector<TupleHandle>& handles,
                  const std::vector<uint64_t>& pins, uint64_t floor,
                  std::vector<TupleHandle>* pin_held) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (TupleHandle handle : handles) {
    auto chain_it = chains_.find(handle);
    if (chain_it == chains_.end()) continue;
    chain_it = PruneChain(chain_it, pins, floor);
    // Ends ascend along a chain, so its oldest version tells whether
    // anything at or below the floor survived.
    if (chain_it != chains_.end() &&
        chain_it->second.front().end_lsn <= floor) {
      pin_held->push_back(handle);
    }
  }
}

const Row* Table::VisibleChainRow(const std::vector<RowVersion>& chain,
                                  uint64_t lsn) {
  for (const RowVersion& v : chain) {
    if (v.begin_lsn <= lsn && lsn < v.end_lsn) return &v.row;
  }
  return nullptr;
}

void Table::Scan(uint64_t at, std::vector<Row>* rows,
                 std::vector<TupleHandle>* handles) const {
  std::shared_lock<std::shared_mutex> latch(mu_);
  ScanLatched(at, rows, handles);
}

void Table::ScanLatched(uint64_t at, std::vector<Row>* rows,
                        std::vector<TupleHandle>* handles) const {
  auto emit = [&](TupleHandle handle, const Row& row) {
    handles->push_back(handle);
    rows->push_back(row);
  };
  if (at == kHeadLsn) {
    rows->reserve(rows->size() + rows_.size());
    handles->reserve(handles->size() + rows_.size());
    for (const auto& [handle, entry] : rows_) emit(handle, entry.row);
    return;
  }
  // The snapshot output is not reserved: its size is known only once
  // the merge ends, and reserving the heap-plus-chains bound raised a
  // server's peak RSS by 8% on a 100k-row table. One block that large is
  // a fresh mmap, while growing frees smaller mapped blocks, which raises
  // glibc's mmap threshold so the query's later buffers reuse memory
  // the process already holds.
  //
  // Handle-ordered merge of the heap and the version chains. The
  // intervals of a handle's versions (chain entries plus the live row)
  // are disjoint, so at most one of the two merge arms emits it.
  auto live = rows_.begin();
  auto chain = chains_.begin();
  while (live != rows_.end() || chain != chains_.end()) {
    if (chain == chains_.end() ||
        (live != rows_.end() && live->first < chain->first)) {
      if (live->second.begin <= at) emit(live->first, live->second.row);
      ++live;
    } else if (live == rows_.end() || chain->first < live->first) {
      if (const Row* row = VisibleChainRow(chain->second, at)) {
        emit(chain->first, *row);
      }
      ++chain;
    } else {
      if (live->second.begin <= at) {
        emit(live->first, live->second.row);
      } else if (const Row* row = VisibleChainRow(chain->second, at)) {
        emit(chain->first, *row);
      }
      ++live;
      ++chain;
    }
  }
}

Status Table::ProbeEq(uint64_t at, size_t column, const Value& value,
                      const std::function<Status(TupleHandle)>& lock,
                      std::vector<Row>* rows,
                      std::vector<TupleHandle>* handles) const {
  std::shared_lock<std::shared_mutex> latch(mu_);
  const ColumnIndex* index = GetIndex(column);
  if (index == nullptr) {
    ScanLatched(at, rows, handles);
    return Status::OK();
  }
  const std::set<TupleHandle>* bucket = index->Lookup(value);
  if (at == kHeadLsn) {
    std::vector<TupleHandle> candidates;
    if (bucket != nullptr) candidates.assign(bucket->begin(), bucket->end());
    if (lock) {
      // A lock wait must not hold the latch the lock holder's writes
      // need; each row is read only once its lock is granted, so a
      // candidate deleted meanwhile is gone from the heap and skipped.
      latch.unlock();
      for (TupleHandle handle : candidates) SOPR_RETURN_NOT_OK(lock(handle));
      latch.lock();
    }
    rows->reserve(rows->size() + candidates.size());
    handles->reserve(handles->size() + candidates.size());
    for (TupleHandle handle : candidates) {
      auto it = rows_.find(handle);
      if (it == rows_.end()) continue;
      handles->push_back(handle);
      rows->push_back(it->second.row);
    }
    return Status::OK();
  }
  // Live rows come straight from the index (it tracks the heap, i.e. the
  // write-side head), filtered down to what the snapshot may see.
  // Superseded versions are not indexed; scan the chains with the same
  // key equivalence the index uses. A handle never matches both arms:
  // its version intervals are disjoint.
  std::vector<std::pair<TupleHandle, const Row*>> matches;
  if (bucket != nullptr) {
    for (TupleHandle handle : *bucket) {
      auto it = rows_.find(handle);
      if (it != rows_.end() && it->second.begin <= at) {
        matches.emplace_back(handle, &it->second.row);
      }
    }
  }
  const Value key = ColumnIndex::NormalizeKey(value);
  for (const auto& [handle, chain] : chains_) {
    const Row* row = VisibleChainRow(chain, at);
    if (row == nullptr) continue;
    const Value& stored = row->at(column);
    if (stored.is_null()) continue;  // SQL equality with NULL never holds
    const Value normalized = ColumnIndex::NormalizeKey(stored);
    if (normalized.StructurallyLess(key) || key.StructurallyLess(normalized)) {
      continue;
    }
    matches.emplace_back(handle, row);
  }
  std::sort(matches.begin(), matches.end());
  rows->reserve(rows->size() + matches.size());
  handles->reserve(handles->size() + matches.size());
  for (const auto& [handle, row] : matches) {
    handles->push_back(handle);
    rows->push_back(*row);
  }
  return Status::OK();
}

size_t Table::PruneVersions(uint64_t floor) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  size_t pruned = 0;
  for (auto it = chains_.begin(); it != chains_.end();) {
    std::vector<RowVersion>& chain = it->second;
    auto dead_end = std::find_if(
        chain.begin(), chain.end(), [floor](const RowVersion& v) {
          // kPendingLsn compares greater than any floor: in-flight
          // versions always survive.
          return v.end_lsn > floor;
        });
    pruned += static_cast<size_t>(dead_end - chain.begin());
    chain.erase(chain.begin(), dead_end);
    it = chain.empty() ? chains_.erase(it) : std::next(it);
  }
  return pruned;
}

bool Table::VerifyNoPending(TupleHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = rows_.find(handle);
  if (it != rows_.end() && it->second.begin == kPendingLsn) return false;
  auto chain_it = chains_.find(handle);
  if (chain_it == chains_.end()) return true;
  for (const RowVersion& v : chain_it->second) {
    if (v.begin_lsn == kPendingLsn || v.end_lsn == kPendingLsn) return false;
  }
  return true;
}

size_t Table::version_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [handle, chain] : chains_) n += chain.size();
  return n;
}

Status Table::CreateIndex(size_t column) {
  if (column >= schema_.num_columns()) {
    return Status::InvalidArgument("no column #" + std::to_string(column) +
                                   " in table " + schema_.name());
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (GetIndex(column) != nullptr) return Status::OK();  // idempotent
  indexes_.emplace_back(column);
  ColumnIndex& index = indexes_.back();
  for (const auto& [handle, entry] : rows_) {
    index.Insert(entry.row.at(column), handle);
  }
  return Status::OK();
}

const ColumnIndex* Table::GetIndex(size_t column) const {
  for (const ColumnIndex& index : indexes_) {
    if (index.column() == column) return &index;
  }
  return nullptr;
}

Result<Row> Table::GetCopy(TupleHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = rows_.find(handle);
  if (it == rows_.end()) return NoTuple(handle, schema_);
  return it->second.row;
}

Status Table::GetCopyBatch(const std::vector<TupleHandle>& handles,
                           std::vector<Row>* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  out->reserve(out->size() + handles.size());
  for (TupleHandle handle : handles) {
    auto it = rows_.find(handle);
    if (it == rows_.end()) return NoTuple(handle, schema_);
    out->push_back(it->second.row);
  }
  return Status::OK();
}

Result<const Row*> Table::Get(TupleHandle handle) const {
  auto it = rows_.find(handle);
  if (it == rows_.end()) return NoTuple(handle, schema_);
  return &it->second.row;
}

}  // namespace sopr
