#include "storage/mvcc.h"

namespace sopr {

void SnapshotRegistry::Pin::Reset() {
  if (registry_ == nullptr) return;
  registry_->ReleaseLocked(lsn_);
  registry_ = nullptr;
}

void SnapshotRegistry::ReleaseLocked(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pinned_.find(lsn);
  if (it != pinned_.end()) pinned_.erase(it);
  ++releases_;
}

SnapshotRegistry::Pin SnapshotRegistry::Acquire(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  pinned_.insert(lsn);
  return Pin(this, lsn);
}

SnapshotRegistry::Pin SnapshotRegistry::AcquireCurrent(
    const std::function<uint64_t()>& current) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t lsn = current();
  pinned_.insert(lsn);
  return Pin(this, lsn);
}

uint64_t SnapshotRegistry::OldestPinnedOr(uint64_t fallback) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (pinned_.empty()) return fallback;
  return *pinned_.begin();
}

bool SnapshotRegistry::TryCollectPinned(
    const std::function<uint64_t()>& current, PruneView* view) const {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  view->pins.assign(pinned_.begin(), pinned_.end());  // multiset: ascending
  view->floor = current();
  view->releases = releases_;
  return true;
}

}  // namespace sopr
