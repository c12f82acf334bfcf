#include "wal/recovery.h"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "engine/engine.h"
#include "wal/wal_format.h"
#include "wal/wal_writer.h"

namespace sopr {
namespace wal {

namespace {

/// Re-executes a logged DDL script. The engine has no WAL attached (or,
/// on a follower, replication suppresses re-logging), so rule
/// definitions come back exactly as their original SQL rendered them.
Status ReplayDdl(Engine* engine, const std::string& sql,
                 RecoveryStats* stats) {
  SOPR_FAILPOINT_RETURN("wal.recover.replay");
  Status applied = engine->Execute(sql);
  if (!applied.ok()) {
    return Status::DataLoss("recovery: logged DDL failed to re-execute (" +
                            applied.ToString() + "): " + sql);
  }
  ++stats->ddl_records;
  return Status::OK();
}

/// `begin` is the LSN an insert is stamped at; a pending one is stamped
/// by its group's CommitAll.
Status ReplayMutation(Engine* engine, const WalRecord& rec,
                      RecoveryStats* stats, uint64_t begin = kPendingLsn) {
  SOPR_FAILPOINT_RETURN("wal.recover.replay");
  Status applied = Status::OK();
  switch (rec.type) {
    case RecordType::kInsert:
      applied = engine->db().ApplyRedoInsert(rec.table, rec.handle,
                                             rec.after, begin);
      break;
    case RecordType::kDelete:
      applied = engine->db().ApplyRedoDelete(rec.table, rec.handle,
                                             rec.before);
      break;
    case RecordType::kUpdate:
      applied = engine->db().ApplyRedoUpdate(rec.table, rec.handle,
                                             rec.before, rec.after);
      break;
    default:
      return Status::Internal("recovery: not a mutation record");
  }
  if (!applied.ok()) {
    if (applied.code() == StatusCode::kDataLoss) return applied;
    return Status::DataLoss("recovery: redo of lsn " +
                            std::to_string(rec.lsn) +
                            " failed: " + applied.ToString());
  }
  ++stats->replayed_records;
  return Status::OK();
}

/// Loads the installed snapshot, if any. Snapshot layout:
///   SnapshotHeader | Ddl(schema script) | Insert* | Ddl(rule script)
/// written to a temp file and renamed into place, so any damage at all is
/// kDataLoss — there is no legitimately torn snapshot.
Status LoadSnapshot(const std::string& dir, Engine* engine,
                    RecoveryStats* stats, uint64_t* covers_lsn,
                    uint64_t* last_lsn) {
  const std::string path = WalWriter::SnapshotPath(dir);
  SOPR_ASSIGN_OR_RETURN(ScanResult scan, ScanLogFile(path));
  if (scan.file_bytes == 0 && scan.records.empty()) return Status::OK();
  if (scan.end != ScanEnd::kClean) {
    return Status::DataLoss("snapshot " + path + " is damaged (" +
                            scan.detail + "); snapshots install atomically, "
                            "so this is corruption, not a torn write");
  }
  if (scan.records.empty() ||
      scan.records[0].type != RecordType::kSnapshotHeader) {
    return Status::DataLoss("snapshot " + path +
                            " does not start with a snapshot header");
  }
  const WalRecord& header = scan.records[0];
  for (size_t i = 1; i < scan.records.size(); ++i) {
    const WalRecord& rec = scan.records[i];
    switch (rec.type) {
      case RecordType::kDdl:
        SOPR_RETURN_NOT_OK(ReplayDdl(engine, rec.sql, stats));
        break;
      case RecordType::kInsert:
        // The snapshot's rows are the state as of covers_lsn: they are
        // inserted stamped there, with no undo record.
        SOPR_RETURN_NOT_OK(
            ReplayMutation(engine, rec, stats, header.covers_lsn));
        break;
      default:
        return Status::DataLoss("snapshot " + path + ": unexpected " +
                                RecordTypeName(rec.type) + " record");
    }
  }
  engine->db().BumpNextHandle(header.next_handle);
  // The undo log is empty: this only advances the commit head.
  engine->db().CommitAll(header.covers_lsn);
  *covers_lsn = header.covers_lsn;
  *last_lsn = scan.records.back().lsn;
  stats->snapshot_loaded = true;
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// GroupReplayer
// ---------------------------------------------------------------------------

GroupReplayer::GroupReplayer(Engine* engine, Options options)
    : engine_(engine),
      opts_(std::move(options)),
      applied_lsn_(opts_.applied_lsn) {}

Status GroupReplayer::Apply(bool ddl, uint64_t lsn,
                            const std::function<Status()>& apply_fn) {
  Status applied =
      opts_.around ? opts_.around(ddl, apply_fn) : apply_fn();
  if (!applied.ok()) return applied;
  applied_lsn_ = std::max(applied_lsn_, lsn);
  if (opts_.applied) opts_.applied(lsn);
  return Status::OK();
}

Result<bool> GroupReplayer::Feed(const WalRecord& rec, RecoveryStats* stats) {
  // Bounded replay: a transaction counts iff its COMMIT record (where
  // the group is applied) is within the bound. Mutation records of a
  // later commit stay buffered in open_txns_ until DiscardOpen.
  if (opts_.through_lsn != 0 && rec.lsn > opts_.through_lsn) return false;
  const uint64_t prev_lsn = max_lsn_;
  max_lsn_ = std::max(max_lsn_, rec.lsn);
  max_txn_id_ = std::max(max_txn_id_, rec.txn_id);
  if (rec.lsn <= opts_.covers_lsn) return true;  // baked into the snapshot
  switch (rec.type) {
    case RecordType::kBegin: {
      OpenGroup group;
      group.begin_offset = rec.offset;
      group.prev_lsn = prev_lsn;
      if (!open_txns_.emplace(rec.txn_id, std::move(group)).second) {
        return Status::DataLoss("wal.log: duplicate BEGIN for txn " +
                                std::to_string(rec.txn_id));
      }
      break;
    }
    case RecordType::kInsert:
    case RecordType::kDelete:
    case RecordType::kUpdate: {
      auto it = open_txns_.find(rec.txn_id);
      if (it == open_txns_.end()) {
        return Status::DataLoss("wal.log: redo record at lsn " +
                                std::to_string(rec.lsn) +
                                " for unknown txn " +
                                std::to_string(rec.txn_id));
      }
      it->second.redo.push_back(rec);
      break;
    }
    case RecordType::kCommit: {
      auto it = open_txns_.find(rec.txn_id);
      if (it == open_txns_.end()) {
        return Status::DataLoss("wal.log: COMMIT at lsn " +
                                std::to_string(rec.lsn) +
                                " for unknown txn " +
                                std::to_string(rec.txn_id));
      }
      if (rec.lsn <= applied_lsn_) {
        // Idempotence guard: this group was applied by a previous feed
        // (a tailer re-fed records after a transient failure). Consume
        // without re-applying.
        open_txns_.erase(it);
        break;
      }
      std::vector<WalRecord> redo = std::move(it->second.redo);
      open_txns_.erase(it);
      SOPR_RETURN_NOT_OK(Apply(/*ddl=*/false, rec.lsn, [&]() -> Status {
        for (const WalRecord& r : redo) {
          SOPR_RETURN_NOT_OK(ReplayMutation(engine_, r, stats));
        }
        engine_->db().BumpNextHandle(rec.next_handle);
        // Stamp the group's versions at its commit LSN so pinned snapshot
        // readers see exactly the committed prefix (the redo path
        // undo-logs what it touched; see Database::ApplyRedo*).
        engine_->db().CommitAll(rec.lsn);
        return Status::OK();
      }));
      ++stats->committed_txns;
      break;
    }
    case RecordType::kAbort:
      // Aborted transactions write nothing, but tolerate an explicit
      // marker: drop the group unreplayed.
      open_txns_.erase(rec.txn_id);
      break;
    case RecordType::kDdl:
      if (rec.lsn <= applied_lsn_) break;  // idempotence guard (see COMMIT)
      SOPR_RETURN_NOT_OK(Apply(/*ddl=*/true, rec.lsn, [&]() -> Status {
        return ReplayDdl(engine_, rec.sql, stats);
      }));
      break;
    case RecordType::kSnapshotHeader:
      return Status::DataLoss(
          "wal.log: snapshot header in the main log at lsn " +
          std::to_string(rec.lsn));
  }
  return true;
}

void GroupReplayer::DiscardOpen(RecoveryStats* stats) {
  stats->discarded_txns += open_txns_.size();
  open_txns_.clear();
}

void GroupReplayer::ResetOpen() { open_txns_.clear(); }

uint64_t GroupReplayer::resume_offset(uint64_t end_of_feed) const {
  uint64_t offset = end_of_feed;
  for (const auto& [txn_id, group] : open_txns_) {
    offset = std::min(offset, group.begin_offset);
  }
  return offset;
}

uint64_t GroupReplayer::resume_lsn(uint64_t last_fed_lsn) const {
  // The seed must be the highest LSN *before* the resume offset; with
  // open groups that is the LSN preceding the earliest BEGIN.
  uint64_t offset = ~uint64_t{0};
  uint64_t lsn = last_fed_lsn;
  for (const auto& [txn_id, group] : open_txns_) {
    if (group.begin_offset < offset) {
      offset = group.begin_offset;
      lsn = group.prev_lsn;
    }
  }
  return lsn;
}

// ---------------------------------------------------------------------------
// RecoverDatabase
// ---------------------------------------------------------------------------

Result<RecoveryStats> RecoverDatabase(const std::string& dir,
                                      Engine* engine) {
  return RecoverDatabase(dir, engine, RecoverOptions{});
}

Result<RecoveryStats> RecoverDatabase(const std::string& dir, Engine* engine,
                                      const RecoverOptions& opts) {
  SOPR_FAILPOINT_RETURN("wal.recover.begin");
  RecoveryStats stats;

  // A leftover snapshot.tmp is an interrupted checkpoint that never
  // installed; discard it so a later checkpoint starts clean. Never on a
  // read-only (follower) pass: the primary may be mid-checkpoint.
  if (!opts.read_only) {
    ::unlink(WalWriter::SnapshotTmpPath(dir).c_str());
  }

  uint64_t covers_lsn = 0;
  uint64_t last_lsn = 0;
  SOPR_RETURN_NOT_OK(
      LoadSnapshot(dir, engine, &stats, &covers_lsn, &last_lsn));
  stats.covers_lsn = covers_lsn;
  if (opts.through_lsn != 0 && covers_lsn > opts.through_lsn) {
    return Status::InvalidArgument(
        "RecoverDatabase: through_lsn " + std::to_string(opts.through_lsn) +
        " predates the installed checkpoint, whose covers_lsn is " +
        std::to_string(covers_lsn) + "; that prefix is no longer in the "
        "log — bootstrap from the checkpoint (replay the snapshot first) "
        "or request through_lsn >= " + std::to_string(covers_lsn));
  }

  const std::string log_path = WalWriter::LogPath(dir);
  SOPR_ASSIGN_OR_RETURN(ScanResult scan, ScanLogFile(log_path));
  if (scan.end == ScanEnd::kCorrupt) {
    // Valid-looking data follows the damage: committed history would be
    // lost by truncating here. Hard error — never guess.
    return Status::DataLoss("wal.log: " + scan.detail);
  }
  if (scan.end == ScanEnd::kTornTail && !opts.read_only) {
    SOPR_FAILPOINT_RETURN("wal.recover.truncate");
    if (::truncate(log_path.c_str(), static_cast<off_t>(scan.valid_bytes)) !=
        0) {
      return Status::IoError("recovery: cannot truncate torn tail of " +
                             log_path);
    }
    stats.truncated_bytes = scan.file_bytes - scan.valid_bytes;
  }

  // Replay committed transactions in LSN order. Commit batches are
  // written contiguously, so at most the final group can be unfinished —
  // but replay tolerates any interleaving as long as groups are
  // well-formed.
  GroupReplayer::Options replay_opts;
  replay_opts.covers_lsn = covers_lsn;
  replay_opts.through_lsn = opts.through_lsn;
  GroupReplayer replayer(engine, replay_opts);
  uint64_t last_log_lsn = 0;
  for (const WalRecord& rec : scan.records) {
    SOPR_ASSIGN_OR_RETURN(bool consumed, replayer.Feed(rec, &stats));
    if (!consumed) break;
    last_log_lsn = rec.lsn;
  }
  last_lsn = std::max(last_lsn, replayer.max_lsn());

  // Incremental resume point for a tailer continuing this replay: the
  // earliest still-open group's BEGIN (its records must be re-buffered),
  // else the end of the well-formed prefix.
  stats.resume_offset = replayer.resume_offset(scan.valid_bytes);
  stats.resume_lsn = replayer.resume_lsn(last_log_lsn);
  stats.applied_lsn = replayer.applied_lsn();

  // Whatever is still open lost its COMMIT to the torn tail: those
  // transactions never reached their durability point and are discarded
  // (on a read-only pass the primary may still be writing them — the
  // resume point above lets the tailer pick them up).
  replayer.DiscardOpen(&stats);

  // Certify the recovered state before anyone runs on it.
  Status certified = engine->db().CheckInvariants();
  if (!certified.ok()) {
    return Status::DataLoss("recovery certification failed: " +
                            certified.ToString());
  }

  stats.next_lsn = last_lsn + 1;
  stats.next_txn_id = replayer.max_txn_id() + 1;
  return stats;
}

}  // namespace wal
}  // namespace sopr
