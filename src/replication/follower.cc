#include "replication/follower.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "sql/parser.h"
#include "wal/dir_lock.h"
#include "wal/wal_format.h"
#include "wal/wal_writer.h"

namespace sopr {
namespace replication {

namespace {

/// Same override the Engine applies at Open (engine/engine.cc): the
/// SOPR_WAL_FSYNC environment variable beats the configured policy, so a
/// fast-mode test run covers the promotion path too.
Result<WalFsyncPolicy> FsyncPolicyFromEnv(WalFsyncPolicy fallback) {
  const char* env = std::getenv("SOPR_WAL_FSYNC");
  if (env == nullptr || *env == '\0') return fallback;
  std::string v(env);
  for (char& c : v) c = static_cast<char>(std::tolower(c));
  if (v == "off") return WalFsyncPolicy::kOff;
  if (v == "commit") return WalFsyncPolicy::kCommit;
  if (v == "always") return WalFsyncPolicy::kAlways;
  return Status::InvalidArgument("SOPR_WAL_FSYNC: unknown policy '" +
                                 std::string(env) +
                                 "' (expected off, commit, or always)");
}

/// Reads just the SnapshotHeader record of `dir`/snapshot.wal — enough to
/// learn the installed checkpoint's covers_lsn without loading the image.
/// Returns 0 when no snapshot is installed. Snapshots install via atomic
/// rename, so a readable file always has a complete header.
Result<uint64_t> PeekSnapshotCoversLsn(const std::string& dir) {
  std::ifstream in(wal::WalWriter::SnapshotPath(dir), std::ios::binary);
  if (!in) return static_cast<uint64_t>(0);
  char header[wal::kHeaderSize];
  if (!in.read(header, sizeof(header))) {
    return Status::DataLoss("snapshot header truncated in " + dir);
  }
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, header, sizeof(payload_len));
  if (payload_len < wal::kMinPayload || payload_len > wal::kMaxPayload) {
    return Status::DataLoss("snapshot header length is implausible in " +
                            dir);
  }
  std::string payload(payload_len, '\0');
  if (!in.read(payload.data(), static_cast<std::streamsize>(payload_len))) {
    return Status::DataLoss("snapshot header truncated in " + dir);
  }
  wal::WalRecord rec;
  SOPR_RETURN_NOT_OK(wal::DecodePayload(payload, &rec));
  if (rec.type != wal::RecordType::kSnapshotHeader) {
    return Status::DataLoss("snapshot in " + dir +
                            " does not start with a SnapshotHeader");
  }
  return rec.covers_lsn;
}

}  // namespace

/// One bootstrapped generation of the replica. Everything a read session
/// touches hangs off this object, and sessions hold it via shared_ptr
/// (see Follower::Snapshot), so swapping in a fresh generation after a
/// checkpoint rotation never invalidates an open session — the old
/// generation serves its stale-but-consistent snapshot until unpinned.
struct Replica {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<server::CommitScheduler> scheduler;
  std::unique_ptr<WalTailer> tailer;
  std::unique_ptr<wal::GroupReplayer> replayer;
  uint64_t covers_lsn = 0;     // checkpoint this generation loaded
  uint64_t base_next_lsn = 1;  // LSN watermark recovery handed over
  uint64_t base_next_txn = 1;

  /// The snapshots pinned on this generation. Promote() releases them
  /// all and sets pins_released before the engine moves out, so no pin
  /// can outlive the registry it points into.
  std::mutex pins_mu;
  std::vector<std::weak_ptr<PinnedSnapshot>> pins;
  bool pins_released = false;
};

struct PinnedSnapshot {
  std::shared_ptr<Replica> replica;  // declared first: outlives the pin
  uint64_t lsn = 0;
  /// Guards `pin`: a QueryAt holds it for its whole read, so Promote's
  /// release waits for reads in flight.
  std::mutex mu;
  SnapshotRegistry::Pin pin;
};

uint64_t Follower::Snapshot::lsn() const {
  return pinned == nullptr ? 0 : pinned->lsn;
}

Follower::Follower(FollowerOptions options)
    : options_(std::move(options)), dir_(options_.engine.wal_dir) {}

Follower::~Follower() = default;

Result<std::unique_ptr<Follower>> Follower::Open(FollowerOptions options) {
  SOPR_RETURN_NOT_OK(FailpointRegistry::Instance().EnsureEnvArmed());
  if (options.engine.wal_dir.empty()) {
    return Status::InvalidArgument(
        "Follower::Open: options.engine.wal_dir must name the primary's "
        "WAL directory");
  }
  std::unique_ptr<Follower> follower(new Follower(std::move(options)));
  SOPR_ASSIGN_OR_RETURN(follower->live_, follower->Bootstrap());
  return follower;
}

std::shared_ptr<Replica> Follower::live() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  return live_;
}

void Follower::PublishReplayed(uint64_t lsn) {
  uint64_t seen = replayed_lsn_.load(std::memory_order_relaxed);
  while (lsn > seen &&
         !replayed_lsn_.compare_exchange_weak(seen, lsn,
                                              std::memory_order_release,
                                              std::memory_order_relaxed)) {
  }
}

Result<std::shared_ptr<Replica>> Follower::Bootstrap() {
  SOPR_FAILPOINT_RETURN("repl.bootstrap.load");
  // A plain in-memory engine: the follower must NOT Engine::Open the
  // primary's directory — that would take its DirLock and attach a second
  // writer to its log. Replay goes through read-only recovery instead.
  RuleEngineOptions engine_opts = options_.engine;
  engine_opts.wal_dir.clear();
  auto replica = std::make_shared<Replica>();
  replica->engine = std::make_unique<Engine>(engine_opts);

  wal::RecoverOptions recover_opts;
  recover_opts.read_only = true;
  SOPR_ASSIGN_OR_RETURN(
      wal::RecoveryStats stats,
      wal::RecoverDatabase(dir_, replica->engine.get(), recover_opts));
  // Bootstrap replay stamped every recovered row at its commit LSN (the
  // snapshot's at covers_lsn); every group applied from the tail onward
  // is stamped at its commit LSN too, so pinned readers see exactly a
  // committed prefix.
  replica->scheduler =
      std::make_unique<server::CommitScheduler>(replica->engine.get());
  replica->scheduler->EnterReplicaMode();
  replica->covers_lsn = stats.covers_lsn;
  replica->base_next_lsn = stats.next_lsn;
  replica->base_next_txn = stats.next_txn_id;
  replica->tailer =
      std::make_unique<WalTailer>(dir_, stats.resume_offset, stats.resume_lsn);

  wal::GroupReplayer::Options replay_opts;
  replay_opts.covers_lsn = stats.covers_lsn;
  replay_opts.applied_lsn = stats.applied_lsn;
  server::CommitScheduler* scheduler = replica->scheduler.get();
  replay_opts.around = [scheduler](
                           bool ddl,
                           const std::function<Status()>& apply) -> Status {
    SOPR_FAILPOINT_RETURN("repl.tail.apply");
    return scheduler->ApplyReplicated(ddl, apply);
  };
  replay_opts.applied = [this, scheduler](uint64_t lsn) {
    scheduler->PublishReplicaLsn(lsn);
    PublishReplayed(lsn);
  };
  replica->replayer = std::make_unique<wal::GroupReplayer>(
      replica->engine.get(), replay_opts);

  const uint64_t bootstrapped = std::max(stats.covers_lsn, stats.applied_lsn);
  scheduler->PublishReplicaLsn(bootstrapped);
  PublishReplayed(bootstrapped);
  return replica;
}

Result<PollResult> Follower::PollOnce() {
  std::lock_guard<std::mutex> lock(apply_mu_);
  if (promoted()) {
    return Status::InvalidArgument(
        "this follower has been promoted; use the promoted engine");
  }
  std::shared_ptr<Replica> replica = live();
  return PollLocked(&replica);
}

Result<PollResult> Follower::PollLocked(std::shared_ptr<Replica>* replica) {
  WalTailer* tailer = (*replica)->tailer.get();
  wal::GroupReplayer* replayer = (*replica)->replayer.get();
  // Rewind point BEFORE this poll: covers any group whose BEGIN is
  // buffered but whose COMMIT has not arrived. If the feed below fails
  // midway, the tailer rewinds here and the next poll re-feeds the same
  // bytes — the replayer's applied-LSN watermark makes the re-feed
  // idempotent, so nothing double-applies.
  const uint64_t rewind_offset = replayer->resume_offset(tailer->offset());
  const uint64_t rewind_lsn = replayer->resume_lsn(tailer->last_lsn());

  Result<TailBatch> polled = tailer->Poll();
  if (!polled.ok()) {
    if (polled.status().code() == StatusCode::kDataLoss) {
      // Mid-log damage — or a checkpoint rotation that slid a fresh log
      // under the stale resume offset, where new records decode as
      // garbage. A newer installed snapshot means rotation.
      Result<uint64_t> covers = PeekSnapshotCoversLsn(dir_);
      if (covers.ok() && covers.value() > (*replica)->covers_lsn) {
        return HandleRotation(*replica);
      }
    }
    if (polled.status().code() == StatusCode::kUnavailable) {
      primary_reachable_.store(false, std::memory_order_release);
    }
    return polled.status();
  }
  primary_reachable_.store(true, std::memory_order_release);
  TailBatch batch = std::move(polled.value());
  if (batch.outcome == TailOutcome::kRotated) {
    return HandleRotation(*replica);
  }

  PollResult result;
  result.outcome = batch.outcome;
  wal::RecoveryStats stats;
  for (const wal::WalRecord& rec : batch.records) {
    Result<bool> fed = replayer->Feed(rec, &stats);
    if (!fed.ok()) {
      // Apply failed (transient injected fault, or real trouble). Forget
      // half-buffered groups and rewind the tailer so the next poll
      // re-reads from the last group boundary.
      replayer->ResetOpen();
      tailer->Reposition(rewind_offset, rewind_lsn);
      return fed.status();
    }
  }
  result.groups_applied = stats.committed_txns + stats.ddl_records;
  // Caught up = nothing durable remains unapplied. A torn tail counts as
  // lag: the bytes are durable, their COMMIT is not yet — CatchUp keeps
  // backing off until it completes (live primary) or gives up with the
  // stale-but-consistent LSN (dead primary; Promote drops the tail).
  result.caught_up = batch.lag_bytes == 0;
  lag_bytes_.store(batch.lag_bytes, std::memory_order_release);
  return result;
}

Result<PollResult> Follower::HandleRotation(
    const std::shared_ptr<Replica>& replica) {
  SOPR_ASSIGN_OR_RETURN(uint64_t covers, PeekSnapshotCoversLsn(dir_));
  const uint64_t applied =
      std::max(replica->covers_lsn, replica->replayer->applied_lsn());
  if (covers <= applied && !replica->replayer->HasOpen()) {
    // Cheap re-anchor: everything the new snapshot bakes in is already
    // applied here, so just tail the fresh log from the top. The
    // replayer's applied watermark keeps any overlap idempotent.
    replica->tailer->Reposition(0, covers);
    replica->covers_lsn = covers;
    PollResult result;
    result.outcome = TailOutcome::kRotated;
    return result;
  }
  // The checkpoint covers groups this follower never saw (or interrupts
  // a group it had half-buffered): the missing prefix lives only in the
  // snapshot now. Re-bootstrap a fresh generation from it; open pinned
  // sessions keep the old generation alive until they finish.
  Result<std::shared_ptr<Replica>> boot = Bootstrap();
  if (!boot.ok()) {
    // Degrade, don't die: the current generation keeps serving
    // stale-but-consistent reads while the primary's directory is
    // unreadable; the caller retries.
    primary_reachable_.store(false, std::memory_order_release);
    return Status::Unavailable(
        "follower re-bootstrap after checkpoint rotation failed (" +
        boot.status().message() + "); still serving reads at lsn " +
        std::to_string(replayed_lsn()));
  }
  {
    std::lock_guard<std::mutex> live_lock(live_mu_);
    live_ = std::move(boot.value());
  }
  PollResult result;
  result.outcome = TailOutcome::kRotated;
  result.rebootstrapped = true;
  return result;
}

Status Follower::CatchUp() {
  Backoff backoff(options_.retry);
  while (true) {
    Result<PollResult> polled = PollOnce();
    bool barren;
    if (polled.ok()) {
      if (polled.value().caught_up) return Status::OK();
      barren = polled.value().groups_applied == 0 &&
               !polled.value().rebootstrapped;
    } else if (polled.status().code() == StatusCode::kUnavailable) {
      barren = true;
    } else {
      return polled.status();
    }
    if (!barren) {
      backoff.Reset();
      continue;
    }
    if (!backoff.ShouldRetry()) {
      return Status::Unavailable(
          "follower catch-up gave up after " +
          std::to_string(backoff.attempts()) +
          " barren polls; reads stay available, pinned at lsn " +
          std::to_string(replayed_lsn()));
    }
    std::this_thread::sleep_for(backoff.NextDelay());
  }
}

uint64_t Follower::StateChecksum() const {
  std::shared_ptr<Replica> replica = live();
  return replica->engine == nullptr ? 0 : replica->engine->StateChecksum();
}

LagBound Follower::Lag() const {
  LagBound bound;
  bound.replayed_lsn = replayed_lsn();
  bound.lag_bytes = lag_bytes_.load(std::memory_order_acquire);
  bound.primary_reachable =
      primary_reachable_.load(std::memory_order_acquire);
  return bound;
}

Follower::Snapshot Follower::PinSnapshot() {
  auto pinned = std::make_shared<PinnedSnapshot>();
  pinned->replica = live();
  Replica& replica = *pinned->replica;
  std::lock_guard<std::mutex> lock(replica.pins_mu);
  // After promotion the snapshot stays unpinned, and QueryAt refuses it.
  if (!replica.pins_released) {
    pinned->pin = replica.scheduler->PinSnapshot();
    pinned->lsn = pinned->pin.lsn();
    std::erase_if(replica.pins, [](const std::weak_ptr<PinnedSnapshot>& p) {
      return p.expired();
    });
    replica.pins.push_back(pinned);
  }
  return Snapshot{std::move(pinned)};
}

Result<QueryResult> Follower::QueryAt(const Snapshot& snapshot,
                                      const std::string& sql) {
  SOPR_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::ParseStatement(sql));
  if (stmt->kind != StmtKind::kSelect) {
    return Status::ReadOnlyReplica(
        "snapshot sessions on a follower are read-only");
  }
  PinnedSnapshot* pinned = snapshot.pinned.get();
  if (pinned != nullptr) {
    std::lock_guard<std::mutex> lock(pinned->mu);
    if (pinned->pin.pinned()) {
      return pinned->replica->scheduler->QueryAt(
          pinned->pin, static_cast<const SelectStmt&>(*stmt));
    }
  }
  return Status::Unavailable(
      "this snapshot's replica was promoted; re-pin against the promoted "
      "engine");
}

Result<QueryResult> Follower::Query(const std::string& sql) {
  std::shared_ptr<Replica> replica = live();
  if (replica->engine == nullptr) {
    return Status::Unavailable(
        "this follower has been promoted; query the promoted engine");
  }
  SOPR_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::ParseStatement(sql));
  if (stmt->kind != StmtKind::kSelect) {
    return Status::ReadOnlyReplica(
        "this node is a read-only replication follower; send writes to "
        "the primary (or promote this follower first)");
  }
  return replica->scheduler->QuerySnapshot(
      static_cast<const SelectStmt&>(*stmt));
}

Status Follower::Execute(const std::string& sql) {
  std::shared_ptr<Replica> replica = live();
  if (replica->engine == nullptr) {
    return Status::Unavailable(
        "this follower has been promoted; use the promoted engine");
  }
  SOPR_ASSIGN_OR_RETURN(std::vector<StmtPtr> stmts,
                        Parser::ParseScript(sql));
  if (stmts.empty()) return Status::OK();
  if (stmts.size() == 1 && stmts[0]->kind == StmtKind::kSelect) {
    return Query(sql).status();
  }
  // Route through the scheduler's write paths so the refusal is the same
  // one a network session would get.
  if (Engine::IsDdlStmt(*stmts[0])) {
    return replica->scheduler->ExecuteDdl(std::move(stmts));
  }
  return replica->scheduler->ExecuteBlock(stmts).status();
}

Result<std::unique_ptr<Engine>> Follower::Promote() {
  std::lock_guard<std::mutex> lock(apply_mu_);
  if (promoted()) {
    return Status::InvalidArgument("this follower is already promoted");
  }
  SOPR_FAILPOINT_RETURN("repl.promote.begin");
  // The single-writer lock is the fencing token: it cannot be acquired
  // while the primary lives (flock releases only when its holder's fd
  // closes — including on kill), and once held the log is frozen.
  SOPR_ASSIGN_OR_RETURN(std::unique_ptr<wal::DirLock> dir_lock,
                        wal::DirLock::Acquire(dir_));

  // Final drain: the log is static now, so poll until it ends cleanly or
  // in a torn tail (the dead primary's interrupted last write — it will
  // never complete). Transient read failures back off and retry.
  std::shared_ptr<Replica> replica = live();
  Backoff backoff(options_.retry);
  while (true) {
    Result<PollResult> polled = PollLocked(&replica);
    if (!polled.ok()) {
      if (polled.status().code() == StatusCode::kUnavailable &&
          backoff.ShouldRetry()) {
        std::this_thread::sleep_for(backoff.NextDelay());
        continue;
      }
      return polled.status();
    }
    if (polled.value().rebootstrapped) {
      replica = live();
      continue;
    }
    if (polled.value().groups_applied > 0) {
      backoff.Reset();
      continue;
    }
    if (polled.value().outcome == TailOutcome::kIdle ||
        polled.value().outcome == TailOutcome::kRetryLater) {
      break;
    }
  }

  SOPR_FAILPOINT_RETURN("repl.promote.truncate");
  // Now this node owns the log: drop the torn tail exactly like primary
  // recovery would, and discard the matching half-buffered groups.
  const std::string log_path = wal::WalWriter::LogPath(dir_);
  if (::truncate(log_path.c_str(),
                 static_cast<off_t>(replica->tailer->offset())) != 0 &&
      !(errno == ENOENT && replica->tailer->offset() == 0)) {
    return Status::IoError("promote: truncate " + log_path + ": " +
                           std::strerror(errno));
  }
  wal::RecoveryStats discard_stats;
  replica->replayer->DiscardOpen(&discard_stats);
  SOPR_RETURN_NOT_OK(replica->engine->CheckInvariants());

  SOPR_FAILPOINT_RETURN("repl.promote.attach");
  SOPR_ASSIGN_OR_RETURN(WalFsyncPolicy policy,
                        FsyncPolicyFromEnv(options_.engine.wal_fsync));
  auto writer = std::make_unique<wal::WalWriter>(policy);
  const uint64_t next_lsn =
      std::max(replica->base_next_lsn, replica->replayer->max_lsn() + 1);
  const uint64_t next_txn =
      std::max(replica->base_next_txn, replica->replayer->max_txn_id() + 1);
  SOPR_RETURN_NOT_OK(writer->Open(dir_, next_lsn, next_txn));
  replica->engine->AdoptDurability(std::move(dir_lock), std::move(writer));
  promoted_.store(true, std::memory_order_release);
  // The engine moves out to the caller, who may destroy it before the
  // snapshots pinned here are dropped: release their pins while the
  // registry they point into is still this replica's, and pin no more.
  {
    std::lock_guard<std::mutex> lock(replica->pins_mu);
    for (const std::weak_ptr<PinnedSnapshot>& weak : replica->pins) {
      if (std::shared_ptr<PinnedSnapshot> pinned = weak.lock()) {
        std::lock_guard<std::mutex> pin_lock(pinned->mu);
        pinned->pin.Reset();
      }
    }
    replica->pins.clear();
    replica->pins_released = true;
  }
  return std::move(replica->engine);
}

}  // namespace replication
}  // namespace sopr
