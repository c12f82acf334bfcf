#ifndef SOPR_REPLICATION_FOLLOWER_H_
#define SOPR_REPLICATION_FOLLOWER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/retry.h"
#include "common/status.h"
#include "engine/engine.h"
#include "replication/wal_tailer.h"
#include "server/commit_scheduler.h"
#include "wal/recovery.h"

namespace sopr {
namespace replication {

/// One bootstrapped replica generation: engine + scheduler + tailer +
/// replayer (defined in follower.cc). A checkpoint-rotation re-bootstrap
/// creates a new generation; old ones live until their last pin drops.
struct Replica;
/// One snapshot pin and the generation it was taken on (defined in
/// follower.cc).
struct PinnedSnapshot;

struct FollowerOptions {
  /// Engine options for the replica. `engine.wal_dir` names the PRIMARY's
  /// WAL directory — the follower tails it read-only and never takes its
  /// DirLock until promotion.
  RuleEngineOptions engine;
  /// Backoff policy for CatchUp and the promotion drain. max_attempts = 0
  /// retries forever; set a bound to surface kUnavailable (with the stale
  /// LSN the follower keeps serving) when the primary stays unreachable.
  RetryPolicy retry;
};

/// One tailer poll as the follower saw it.
struct PollResult {
  uint64_t groups_applied = 0;  // committed groups + DDL records applied
  bool caught_up = false;       // the log ended cleanly at the resume point
  bool rebootstrapped = false;  // a checkpoint rotation forced a re-anchor
  TailOutcome outcome = TailOutcome::kIdle;
};

/// The staleness the follower currently admits to (docs/REPLICATION.md):
/// reads are consistent as of `replayed_lsn`, and at most `lag_bytes` of
/// durable-but-unapplied log lie beyond it. When the primary is
/// unreachable the bytes bound is the last one observed — the follower
/// keeps serving stale-but-consistent reads and says so.
struct LagBound {
  uint64_t replayed_lsn = 0;
  uint64_t lag_bytes = 0;
  bool primary_reachable = true;
};

/// A log-shipping replication follower (docs/REPLICATION.md): bootstraps
/// from the primary's latest checkpoint, tails wal.log for committed
/// groups, applies them through the shared GroupReplayer WITHOUT
/// re-firing rules, and serves read-only snapshot sessions pinned at the
/// monotone replayed LSN. Writes are refused with kReadOnlyReplica until
/// Promote() turns the replica into a full primary.
///
/// Threading: Poll/CatchUp/Promote serialize on an internal apply mutex
/// (one applier at a time); Query/PinSnapshot/QueryAt/Lag are safe from
/// any thread concurrently with the applier — they ride the scheduler's
/// MVCC snapshot machinery, so readers never block replay.
class Follower {
 public:
  /// Bootstraps a replica of `options.engine.wal_dir`: loads the
  /// installed checkpoint (if any) plus the committed log prefix, via
  /// read-only recovery that leaves the primary's files untouched.
  static Result<std::unique_ptr<Follower>> Open(FollowerOptions options);

  ~Follower();

  /// One incremental tailing step: read newly durable records, apply
  /// complete groups, publish the new replayed LSN. Transient conditions
  /// (torn tail, unreadable primary) are kUnavailable; a checkpoint
  /// rotation re-anchors automatically (possibly re-bootstrapping).
  Result<PollResult> PollOnce();

  /// Polls with bounded exponential backoff until caught up. Progress
  /// resets the backoff; options.retry.max_attempts consecutive barren
  /// polls give up with kUnavailable (reads keep working, pinned at the
  /// stale replayed LSN the message names).
  Status CatchUp();

  /// Highest LSN whose group/DDL has been applied here — the snapshot
  /// point read-only sessions see. Monotone, never regresses.
  uint64_t replayed_lsn() const {
    return replayed_lsn_.load(std::memory_order_acquire);
  }

  LagBound Lag() const;

  /// A pinned read point. It keeps the replica generation it was taken
  /// on alive, so a checkpoint-rotation re-bootstrap (which swaps in a
  /// fresh replica) cannot pull the data out from under an open session:
  /// stale replicas live until their last pin drops. Promote() releases
  /// every pin still open on the promoted replica before the engine moves
  /// out, so a Snapshot may outlive the promoted engine in any order.
  struct Snapshot {
    std::shared_ptr<PinnedSnapshot> pinned;
    uint64_t lsn() const;
  };

  Snapshot PinSnapshot();
  /// Runs a select against a pinned snapshot. After promotion the pin is
  /// released: kUnavailable.
  Result<QueryResult> QueryAt(const Snapshot& snapshot,
                              const std::string& sql);
  /// One-shot snapshot read at the current replayed LSN.
  Result<QueryResult> Query(const std::string& sql);

  /// Routes a statement the way a session would: selects run as snapshot
  /// reads; DML and DDL are refused with kReadOnlyReplica (this is the
  /// follower's write path — there deliberately isn't one).
  Status Execute(const std::string& sql);

  /// Failover: takes the WAL directory's single-writer lock (fails while
  /// the primary lives — flock outlives nothing), drains the remaining
  /// committed log, truncates the dead primary's torn tail, certifies
  /// invariants, and attaches a WalWriter continuing the LSN sequence.
  /// Returns the promoted engine — a full primary whose commits append
  /// to the same log. The follower accepts no new work, and QueryAt on a
  /// snapshot pinned before promotion answers kUnavailable: its pin was
  /// released here, while the engine was still the follower's.
  Result<std::unique_ptr<Engine>> Promote();

  bool promoted() const { return promoted_.load(std::memory_order_acquire); }
  const std::string& dir() const { return dir_; }

  /// Digest of the live replica's full state (Engine::StateChecksum) —
  /// the failover litmus compares this bit-exactly against its
  /// committed-prefix oracle. 0 after promotion (the engine moved out).
  uint64_t StateChecksum() const;

 private:
  explicit Follower(FollowerOptions options);

  Result<std::shared_ptr<Replica>> Bootstrap();
  std::shared_ptr<Replica> live() const;
  Result<PollResult> PollLocked(std::shared_ptr<Replica>* replica);
  Result<PollResult> HandleRotation(const std::shared_ptr<Replica>& replica);
  void PublishReplayed(uint64_t lsn);

  FollowerOptions options_;
  std::string dir_;

  /// Serializes replay (PollOnce/CatchUp/Promote): one applier at a time.
  std::mutex apply_mu_;
  /// Guards the live_ pointer swap only (readers copy the shared_ptr).
  mutable std::mutex live_mu_;
  std::shared_ptr<Replica> live_;

  std::atomic<uint64_t> replayed_lsn_{0};
  std::atomic<uint64_t> lag_bytes_{0};
  std::atomic<bool> primary_reachable_{true};
  std::atomic<bool> promoted_{false};
};

}  // namespace replication
}  // namespace sopr

#endif  // SOPR_REPLICATION_FOLLOWER_H_
