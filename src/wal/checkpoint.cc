#include "wal/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "engine/engine.h"
#include "io/dump.h"
#include "wal/wal_format.h"
#include "wal/wal_writer.h"

namespace sopr {
namespace wal {

namespace {

Status WriteFileAtomicPrep(const std::string& path,
                           const std::string& bytes) {
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  const char* p = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s =
          Status::IoError("write " + path + ": " + std::strerror(errno));
      ::close(fd);
      return s;
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  if (::close(fd) != 0) {
    return Status::IoError("close " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Status WriteCheckpoint(Engine* engine, WalWriter* wal) {
  SOPR_FAILPOINT_RETURN("wal.checkpoint.begin");
  if (engine->in_transaction()) {
    return Status::Internal("checkpoint inside a transaction");
  }

  // Drain the group-commit staging queue first: a batch that is staged
  // but unwritten is already part of the in-memory state the snapshot
  // captures; leaving it to be written to the post-truncation log would
  // replay it on top of the snapshot (double-apply -> kDataLoss).
  SOPR_RETURN_NOT_OK(wal->Flush());

  // The snapshot covers everything durable in the main log right now;
  // stale records (lsn <= covers_lsn) become recovery no-ops the moment
  // the snapshot installs.
  const uint64_t covers_lsn = wal->durable_lsn();

  std::string image;
  AppendRecord(&image,
               WalRecord::SnapshotHeader(wal->AllocateLsn(), covers_lsn,
                                         engine->db().next_handle()));
  SOPR_ASSIGN_OR_RETURN(std::string schema_sql, DumpSchemaSql(engine));
  if (!schema_sql.empty()) {
    AppendRecord(&image, WalRecord::Ddl(wal->AllocateLsn(), schema_sql));
  }
  for (const std::string& name : engine->db().catalog().TableNames()) {
    SOPR_ASSIGN_OR_RETURN(const Table* table, engine->db().GetTable(name));
    for (const auto& [handle, entry] : table->rows()) {
      AppendRecord(&image, WalRecord::Insert(wal->AllocateLsn(), 0,
                                             ToLower(name), handle,
                                             entry.row));
    }
  }
  SOPR_ASSIGN_OR_RETURN(std::string rules_sql, DumpRulesSql(engine));
  if (!rules_sql.empty()) {
    AppendRecord(&image, WalRecord::Ddl(wal->AllocateLsn(), rules_sql));
  }

  const std::string& dir = wal->dir();
  const std::string tmp = WalWriter::SnapshotTmpPath(dir);
  SOPR_FAILPOINT_RETURN("wal.checkpoint.write");
  SOPR_RETURN_NOT_OK(WriteFileAtomicPrep(tmp, image));
  SOPR_RETURN_NOT_OK(
      WalWriter::SyncFile(tmp, wal->policy(), "wal.checkpoint.sync"));

  SOPR_FAILPOINT_RETURN("wal.checkpoint.install");
  const std::string final_path = WalWriter::SnapshotPath(dir);
  if (std::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + " -> " + final_path + ": " +
                           std::strerror(errno));
  }
  SOPR_RETURN_NOT_OK(WalWriter::SyncDir(dir, wal->policy()));

  // The snapshot is durable and installed; the log it covers can go.
  SOPR_RETURN_NOT_OK(wal->StartNewLog());

  // Version garbage collection rides the checkpoint wall: drop row
  // versions no pinned snapshot can still see. With no readers the floor
  // is the commit head — all superseded versions go.
  engine->db().PruneVersions(engine->db().snapshots().OldestPinnedOr(
      engine->db().last_commit_lsn()));
  return Status::OK();
}

}  // namespace wal
}  // namespace sopr
