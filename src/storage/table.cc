#include "storage/table.h"

#include <algorithm>

#include "common/failpoint.h"

namespace sopr {

namespace {

/// Lock helper: an engaged unique_lock when MVCC is on, disengaged (and
/// free) otherwise. Writers use this so the non-MVCC single-user path
/// pays nothing.
template <typename Mutex>
std::unique_lock<Mutex> MaybeLock(Mutex* mu) {
  return mu == nullptr ? std::unique_lock<Mutex>()
                       : std::unique_lock<Mutex>(*mu);
}

}  // namespace

std::shared_lock<std::shared_mutex> Table::ReadLatch() const {
  return mvcc_ == nullptr ? std::shared_lock<std::shared_mutex>()
                          : std::shared_lock<std::shared_mutex>(mvcc_->mu);
}

void Table::EnableMvcc() {
  if (mvcc_ == nullptr) mvcc_ = std::make_unique<MvccState>();
}

Status Table::Insert(TupleHandle handle, Row row) {
  if (handle == kInvalidHandle) {
    return Status::Internal("attempt to insert with invalid handle");
  }
  auto lock = MaybeLock(mvcc_ == nullptr ? nullptr : &mvcc_->mu);
  auto [it, inserted] = rows_.emplace(handle, std::move(row));
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
    index.Insert(it->second.at(index.column()), handle);
  }
  // Invisible to every snapshot until the owning transaction commits and
  // stamps the sentinel to its commit LSN.
  if (mvcc_ != nullptr) mvcc_->live_begin[handle] = kPendingLsn;
  return Status::OK();
}

Status Table::Erase(TupleHandle handle) {
  auto lock = MaybeLock(mvcc_ == nullptr ? nullptr : &mvcc_->mu);
  auto it = rows_.find(handle);
  if (it == rows_.end()) {
    return Status::Internal("no tuple with handle " + std::to_string(handle) +
                            " in table " + schema_.name());
  }
  for (ColumnIndex& index : indexes_) {
    index.Erase(it->second.at(index.column()), handle);
  }
  // Index entries are already gone; on an injected failure re-add them so
  // the heap (which still holds the row) and the indexes agree.
  Status fault = SOPR_FAILPOINT("table.erase.mid");
  if (!fault.ok()) {
    for (ColumnIndex& index : indexes_) {
      index.Insert(it->second.at(index.column()), handle);
    }
    return fault;
  }
  if (mvcc_ != nullptr) {
    // The deleted image stays readable for snapshots that predate the
    // deleting commit.
    RowVersion version;
    auto begin_it = mvcc_->live_begin.find(handle);
    version.begin_lsn =
        begin_it == mvcc_->live_begin.end() ? 0 : begin_it->second;
    version.end_lsn = kPendingLsn;
    version.row = std::move(it->second);
    mvcc_->chains[handle].push_back(std::move(version));
    if (begin_it != mvcc_->live_begin.end()) {
      mvcc_->live_begin.erase(begin_it);
    }
  }
  rows_.erase(it);
  return Status::OK();
}

Status Table::Replace(TupleHandle handle, Row row) {
  auto lock = MaybeLock(mvcc_ == nullptr ? nullptr : &mvcc_->mu);
  auto it = rows_.find(handle);
  if (it == rows_.end()) {
    return Status::Internal("no tuple with handle " + std::to_string(handle) +
                            " in table " + schema_.name());
  }
  for (ColumnIndex& index : indexes_) {
    index.Erase(it->second.at(index.column()), handle);
  }
  Status fault = SOPR_FAILPOINT("table.replace.mid");
  if (!fault.ok()) {
    for (ColumnIndex& index : indexes_) {
      index.Insert(it->second.at(index.column()), handle);
    }
    return fault;
  }
  if (mvcc_ != nullptr) {
    RowVersion version;
    auto begin_it = mvcc_->live_begin.find(handle);
    version.begin_lsn =
        begin_it == mvcc_->live_begin.end() ? 0 : begin_it->second;
    version.end_lsn = kPendingLsn;
    version.row = it->second;
    mvcc_->chains[handle].push_back(std::move(version));
    mvcc_->live_begin[handle] = kPendingLsn;
  }
  it->second = std::move(row);
  for (ColumnIndex& index : indexes_) {
    index.Insert(it->second.at(index.column()), handle);
  }
  return Status::OK();
}

Status Table::RollbackInsert(TupleHandle handle) {
  if (mvcc_ == nullptr) return Erase(handle);
  std::unique_lock<std::shared_mutex> lock(mvcc_->mu);
  auto it = rows_.find(handle);
  if (it == rows_.end()) {
    return Status::Internal("rollback-insert: no tuple with handle " +
                            std::to_string(handle) + " in table " +
                            schema_.name());
  }
  for (ColumnIndex& index : indexes_) {
    index.Erase(it->second.at(index.column()), handle);
  }
  rows_.erase(it);
  // Structural undo: the insert created the live_begin sentinel, so the
  // undo removes it rather than recording the rollback as a deletion.
  mvcc_->live_begin.erase(handle);
  return Status::OK();
}

Status Table::RollbackDelete(TupleHandle handle, Row old_row) {
  if (mvcc_ == nullptr) return Insert(handle, std::move(old_row));
  std::unique_lock<std::shared_mutex> lock(mvcc_->mu);
  auto [it, inserted] = rows_.emplace(handle, std::move(old_row));
  if (!inserted) {
    return Status::Internal("rollback-delete: handle " +
                            std::to_string(handle) +
                            " already present in table " + schema_.name());
  }
  for (ColumnIndex& index : indexes_) {
    index.Insert(it->second.at(index.column()), handle);
  }
  auto chain_it = mvcc_->chains.find(handle);
  if (chain_it == mvcc_->chains.end() || chain_it->second.empty() ||
      chain_it->second.back().end_lsn != kPendingLsn) {
    return Status::Internal("rollback-delete: no pending version for handle " +
                            std::to_string(handle) + " in table " +
                            schema_.name());
  }
  const uint64_t begin = chain_it->second.back().begin_lsn;
  chain_it->second.pop_back();
  if (chain_it->second.empty()) mvcc_->chains.erase(chain_it);
  if (begin == 0) {
    mvcc_->live_begin.erase(handle);
  } else {
    mvcc_->live_begin[handle] = begin;
  }
  return Status::OK();
}

Status Table::RollbackUpdate(TupleHandle handle, Row old_row) {
  if (mvcc_ == nullptr) return Replace(handle, std::move(old_row));
  std::unique_lock<std::shared_mutex> lock(mvcc_->mu);
  auto it = rows_.find(handle);
  if (it == rows_.end()) {
    return Status::Internal("rollback-update: no tuple with handle " +
                            std::to_string(handle) + " in table " +
                            schema_.name());
  }
  for (ColumnIndex& index : indexes_) {
    index.Erase(it->second.at(index.column()), handle);
  }
  it->second = std::move(old_row);
  for (ColumnIndex& index : indexes_) {
    index.Insert(it->second.at(index.column()), handle);
  }
  auto chain_it = mvcc_->chains.find(handle);
  if (chain_it == mvcc_->chains.end() || chain_it->second.empty() ||
      chain_it->second.back().end_lsn != kPendingLsn) {
    return Status::Internal("rollback-update: no pending version for handle " +
                            std::to_string(handle) + " in table " +
                            schema_.name());
  }
  const uint64_t begin = chain_it->second.back().begin_lsn;
  chain_it->second.pop_back();
  if (chain_it->second.empty()) mvcc_->chains.erase(chain_it);
  if (begin == 0) {
    mvcc_->live_begin.erase(handle);
  } else {
    mvcc_->live_begin[handle] = begin;
  }
  return Status::OK();
}

void Table::StampVersions(TupleHandle handle, uint64_t commit_lsn) {
  if (mvcc_ == nullptr) return;
  std::unique_lock<std::shared_mutex> lock(mvcc_->mu);
  auto begin_it = mvcc_->live_begin.find(handle);
  if (begin_it != mvcc_->live_begin.end() &&
      begin_it->second == kPendingLsn) {
    begin_it->second = commit_lsn;
  }
  auto chain_it = mvcc_->chains.find(handle);
  if (chain_it == mvcc_->chains.end()) return;
  // Pending entries are a suffix of the chain: everything older was
  // stamped by the commit that superseded it.
  for (auto v = chain_it->second.rbegin();
       v != chain_it->second.rend() && v->end_lsn == kPendingLsn; ++v) {
    v->end_lsn = commit_lsn;
    // An insert superseded within its own transaction yields the empty
    // interval [C, C): correctly visible to nobody.
    if (v->begin_lsn == kPendingLsn) v->begin_lsn = commit_lsn;
  }
}

const Row* Table::VisibleChainRow(const std::vector<RowVersion>& chain,
                                  uint64_t lsn) {
  for (const RowVersion& v : chain) {
    if (v.begin_lsn <= lsn && lsn < v.end_lsn) return &v.row;
  }
  return nullptr;
}

bool Table::LiveVisibleLocked(TupleHandle handle, uint64_t lsn) const {
  auto it = mvcc_->live_begin.find(handle);
  return it == mvcc_->live_begin.end() || it->second <= lsn;
}

void Table::Scan(uint64_t at, std::vector<Row>* rows,
                 std::vector<TupleHandle>* handles) const {
  auto latch = ReadLatch();
  ScanLatched(at, rows, handles);
}

void Table::ScanLatched(uint64_t at, std::vector<Row>* rows,
                        std::vector<TupleHandle>* handles) const {
  auto emit = [&](TupleHandle handle, const Row& row) {
    handles->push_back(handle);
    rows->push_back(row);
  };
  if (at == kHeadLsn || mvcc_ == nullptr) {
    rows->reserve(rows->size() + rows_.size());
    handles->reserve(handles->size() + rows_.size());
    for (const auto& [handle, row] : rows_) emit(handle, row);
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
  auto chain = mvcc_->chains.begin();
  while (live != rows_.end() || chain != mvcc_->chains.end()) {
    if (chain == mvcc_->chains.end() ||
        (live != rows_.end() && live->first < chain->first)) {
      if (LiveVisibleLocked(live->first, at)) emit(live->first, live->second);
      ++live;
    } else if (live == rows_.end() || chain->first < live->first) {
      if (const Row* row = VisibleChainRow(chain->second, at)) {
        emit(chain->first, *row);
      }
      ++chain;
    } else {
      if (LiveVisibleLocked(live->first, at)) {
        emit(live->first, live->second);
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
  auto latch = ReadLatch();
  const ColumnIndex* index = GetIndex(column);
  if (index == nullptr) {
    ScanLatched(at, rows, handles);
    return Status::OK();
  }
  const std::set<TupleHandle>* bucket = index->Lookup(value);
  if (at == kHeadLsn || mvcc_ == nullptr) {
    std::vector<TupleHandle> candidates;
    if (bucket != nullptr) candidates.assign(bucket->begin(), bucket->end());
    if (lock) {
      // A lock wait must not hold the latch the lock holder's writes
      // need; each row is read only once its lock is granted, so a
      // candidate deleted meanwhile is gone from the heap and skipped.
      if (mvcc_ != nullptr) latch.unlock();
      for (TupleHandle handle : candidates) SOPR_RETURN_NOT_OK(lock(handle));
      if (mvcc_ != nullptr) latch.lock();
    }
    rows->reserve(rows->size() + candidates.size());
    handles->reserve(handles->size() + candidates.size());
    for (TupleHandle handle : candidates) {
      auto it = rows_.find(handle);
      if (it == rows_.end()) continue;
      handles->push_back(handle);
      rows->push_back(it->second);
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
      if (!LiveVisibleLocked(handle, at)) continue;
      auto it = rows_.find(handle);
      if (it != rows_.end()) matches.emplace_back(handle, &it->second);
    }
  }
  const Value key = ColumnIndex::NormalizeKey(value);
  for (const auto& [handle, chain] : mvcc_->chains) {
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
  if (mvcc_ == nullptr) return 0;
  std::unique_lock<std::shared_mutex> lock(mvcc_->mu);
  size_t pruned = 0;
  for (auto it = mvcc_->chains.begin(); it != mvcc_->chains.end();) {
    std::vector<RowVersion>& chain = it->second;
    auto dead_end = std::find_if(
        chain.begin(), chain.end(), [floor](const RowVersion& v) {
          // kPendingLsn compares greater than any floor: in-flight
          // versions always survive.
          return v.end_lsn > floor;
        });
    pruned += static_cast<size_t>(dead_end - chain.begin());
    chain.erase(chain.begin(), dead_end);
    it = chain.empty() ? mvcc_->chains.erase(it) : std::next(it);
  }
  // A live_begin at or below the floor is indistinguishable from the
  // absent-means-0 default for every surviving snapshot.
  for (auto it = mvcc_->live_begin.begin(); it != mvcc_->live_begin.end();) {
    it = (it->second != kPendingLsn && it->second <= floor)
             ? mvcc_->live_begin.erase(it)
             : std::next(it);
  }
  return pruned;
}

size_t Table::PruneChainPinned(TupleHandle handle,
                               const std::vector<uint64_t>& pins,
                               uint64_t floor) {
  if (mvcc_ == nullptr) return 0;
  std::unique_lock<std::shared_mutex> lock(mvcc_->mu);
  size_t pruned = 0;
  auto chain_it = mvcc_->chains.find(handle);
  if (chain_it != mvcc_->chains.end()) {
    std::vector<RowVersion>& chain = chain_it->second;
    auto keep = [&](const RowVersion& v) {
      // kPendingLsn end compares greater than any floor.
      if (v.end_lsn > floor) return true;
      // Some live pin inside [begin, end)?
      auto pin = std::lower_bound(pins.begin(), pins.end(), v.begin_lsn);
      return pin != pins.end() && *pin < v.end_lsn;
    };
    auto dead = std::stable_partition(chain.begin(), chain.end(), keep);
    pruned = static_cast<size_t>(chain.end() - dead);
    chain.erase(dead, chain.end());
    if (chain.empty()) mvcc_->chains.erase(chain_it);
  }
  // The live_begin entry can retire once every pin — present (pins) or
  // future (LSN >= floor) — sees the live row anyway, making the entry
  // indistinguishable from the absent-means-0 default.
  auto begin_it = mvcc_->live_begin.find(handle);
  if (begin_it != mvcc_->live_begin.end() &&
      begin_it->second != kPendingLsn && begin_it->second <= floor &&
      (pins.empty() || pins.front() >= begin_it->second)) {
    mvcc_->live_begin.erase(begin_it);
  }
  return pruned;
}

bool Table::VerifyNoPending(TupleHandle handle) const {
  if (mvcc_ == nullptr) return true;
  std::shared_lock<std::shared_mutex> lock(mvcc_->mu);
  auto begin_it = mvcc_->live_begin.find(handle);
  if (begin_it != mvcc_->live_begin.end() &&
      begin_it->second == kPendingLsn) {
    return false;
  }
  auto chain_it = mvcc_->chains.find(handle);
  if (chain_it == mvcc_->chains.end()) return true;
  for (const RowVersion& v : chain_it->second) {
    if (v.begin_lsn == kPendingLsn || v.end_lsn == kPendingLsn) return false;
  }
  return true;
}

size_t Table::version_count() const {
  if (mvcc_ == nullptr) return 0;
  std::shared_lock<std::shared_mutex> lock(mvcc_->mu);
  size_t n = 0;
  for (const auto& [handle, chain] : mvcc_->chains) n += chain.size();
  return n;
}

Status Table::CreateIndex(size_t column) {
  if (column >= schema_.num_columns()) {
    return Status::InvalidArgument("no column #" + std::to_string(column) +
                                   " in table " + schema_.name());
  }
  auto lock = MaybeLock(mvcc_ == nullptr ? nullptr : &mvcc_->mu);
  if (GetIndex(column) != nullptr) return Status::OK();  // idempotent
  indexes_.emplace_back(column);
  ColumnIndex& index = indexes_.back();
  for (const auto& [handle, row] : rows_) {
    index.Insert(row.at(column), handle);
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
  auto lock = ReadLatch();
  auto it = rows_.find(handle);
  if (it == rows_.end()) {
    return Status::ExecutionError("no tuple with handle " +
                                  std::to_string(handle) + " in table " +
                                  schema_.name());
  }
  return it->second;
}

Status Table::GetCopyBatch(const std::vector<TupleHandle>& handles,
                           std::vector<Row>* out) const {
  auto lock = ReadLatch();
  out->reserve(out->size() + handles.size());
  for (TupleHandle handle : handles) {
    auto it = rows_.find(handle);
    if (it == rows_.end()) {
      return Status::ExecutionError("no tuple with handle " +
                                    std::to_string(handle) + " in table " +
                                    schema_.name());
    }
    out->push_back(it->second);
  }
  return Status::OK();
}

Result<const Row*> Table::Get(TupleHandle handle) const {
  auto it = rows_.find(handle);
  if (it == rows_.end()) {
    return Status::ExecutionError("no tuple with handle " +
                                  std::to_string(handle) + " in table " +
                                  schema_.name());
  }
  return &it->second;
}

}  // namespace sopr
