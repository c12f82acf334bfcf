#ifndef SOPR_STORAGE_MVCC_H_
#define SOPR_STORAGE_MVCC_H_

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include <mutex>

#include "types/row.h"

namespace sopr {

/// Multi-version read support (docs/CONCURRENCY.md "MVCC snapshot
/// reads"). Every committed database state is identified by its commit
/// LSN; a snapshot at LSN S sees a row version iff
///
///     begin_lsn <= S < end_lsn
///
/// Live rows have a conceptual end_lsn of infinity. Versions written by
/// a transaction that has not committed yet carry the kPendingLsn
/// sentinel in the affected field; since kPendingLsn compares greater
/// than every real LSN, a pending begin is invisible to every snapshot
/// and a pending end keeps the superseded version visible — exactly the
/// isolation an in-flight transaction must provide. At commit the
/// sentinels are stamped to the transaction's commit LSN, and only then
/// does the CommitScheduler publish that LSN as visible.
inline constexpr uint64_t kPendingLsn = ~0ull;

/// A superseded (updated-over or deleted) row image kept for readers
/// whose snapshot predates the supersession.
struct RowVersion {
  uint64_t begin_lsn = 0;
  uint64_t end_lsn = kPendingLsn;
  Row row;
};

/// The set of snapshot LSNs currently pinned by readers. Commit-time and
/// checkpoint pruning may discard a version only when no pinned snapshot
/// can still see it (Database::CommitAll, wal/checkpoint.cc).
class SnapshotRegistry {
 public:
  /// RAII pin: while alive, versions visible at `lsn` survive pruning.
  class Pin {
   public:
    Pin() = default;
    ~Pin() { Reset(); }
    Pin(Pin&& other) noexcept
        : registry_(other.registry_), lsn_(other.lsn_) {
      other.registry_ = nullptr;
    }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        Reset();
        registry_ = other.registry_;
        lsn_ = other.lsn_;
        other.registry_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    uint64_t lsn() const { return lsn_; }
    bool pinned() const { return registry_ != nullptr; }
    void Reset();

   private:
    friend class SnapshotRegistry;
    /// Only Acquire / AcquireCurrent construct live pins: the registry
    /// insert must happen under mu_, in the same critical section that
    /// chose `lsn`.
    Pin(SnapshotRegistry* registry, uint64_t lsn)
        : registry_(registry), lsn_(lsn) {}

    SnapshotRegistry* registry_ = nullptr;
    uint64_t lsn_ = 0;
  };

  SnapshotRegistry() = default;
  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  Pin Acquire(uint64_t lsn);

  /// Pins the LSN `current()` returns, evaluating it and registering the
  /// pin in ONE critical section of the registry mutex — the mutex
  /// OldestPinnedOr holds while a checkpoint computes its prune floor.
  /// Pinning the "newest visible" LSN MUST go through this (not a load
  /// followed by Acquire): a prune floor computed between the load and
  /// the insert would miss the nascent pin and garbage-collect versions
  /// the snapshot still needs.
  Pin AcquireCurrent(const std::function<uint64_t()>& current);

  /// The oldest pinned snapshot LSN, or `fallback` when nothing is
  /// pinned (callers pass the current commit head: with no readers, only
  /// the head state needs to stay reconstructible).
  uint64_t OldestPinnedOr(uint64_t fallback) const;

  /// What commit-time pruning may rely on (docs/CONCURRENCY.md), read
  /// in ONE critical section of the registry mutex.
  struct PruneView {
    /// Every pinned LSN, ascending.
    std::vector<uint64_t> pins;
    /// `current()` evaluated under the mutex: a pin registered later
    /// (via AcquireCurrent against the same source) necessarily reads an
    /// LSN >= it, so it cannot need a version pruned below it.
    uint64_t floor = 0;
    /// Pins released so far: a version kept only by a pin can become
    /// prunable only once this moves.
    uint64_t releases = 0;
  };

  /// Fills `*view` and returns true — or returns false, leaving it
  /// untouched, if the mutex is contended: a pin acquisition may be
  /// parked inside its critical section, and a committer must never
  /// wait behind it (skipping a prune is always safe; the next commit
  /// or checkpoint retries).
  bool TryCollectPinned(const std::function<uint64_t()>& current,
                        PruneView* view) const;

 private:
  friend class Pin;
  void ReleaseLocked(uint64_t lsn);

  mutable std::mutex mu_;
  std::multiset<uint64_t> pinned_;
  uint64_t releases_ = 0;
};

}  // namespace sopr

#endif  // SOPR_STORAGE_MVCC_H_
