#ifndef SOPR_WAL_WAL_FORMAT_H_
#define SOPR_WAL_WAL_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/tuple_handle.h"
#include "types/row.h"

namespace sopr {
namespace wal {

/// On-disk record framing (all integers little-endian, fixed width):
///
///   +----------------+----------------+------------------------+
///   | u32 payload_len| u32 crc32c     | payload (payload_len B)|
///   +----------------+----------------+------------------------+
///   payload = u64 lsn | u8 type | type-specific body
///
/// The CRC covers exactly the payload bytes. LSNs are strictly
/// monotonically increasing within a file and never reset across
/// restarts or checkpoint rotations. A healthy log is a sequence of
///   (BEGIN redo* COMMIT) | ABORT-terminated groups | DDL | snapshot
/// records; uncommitted groups can only appear as a (truncatable) torn
/// tail because commit batches are written as one contiguous group.
///
/// Record bodies:
///   kBegin           u64 txn_id
///   kCommit          u64 txn_id | u64 next_handle
///   kAbort           u64 txn_id
///   kInsert          u64 txn_id | str table | u64 handle | row after
///   kDelete          u64 txn_id | str table | u64 handle | row before
///   kUpdate          u64 txn_id | str table | u64 handle
///                      | row before | row after
///   kDdl             str sql           (logical: schema / rule catalog)
///   kSnapshotHeader  u64 covers_lsn | u64 next_handle
///                      (first record of a snapshot file only)
///
/// str = u32 length + bytes. row = u32 arity + values; value = u8 type
/// tag + scalar (bool: u8; int: u64 two's complement; double: 8 raw
/// bytes; string: str; null: empty) — the codec of common/byte_codec.h,
/// shared with the wire protocol.
enum class RecordType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kInsert = 4,
  kDelete = 5,
  kUpdate = 6,
  kDdl = 7,
  kSnapshotHeader = 8,
};

const char* RecordTypeName(RecordType type);

/// Framing constants.
inline constexpr size_t kHeaderSize = 8;          // len + crc
inline constexpr size_t kMinPayload = 9;          // lsn + type
inline constexpr size_t kMaxPayload = 1u << 26;   // 64 MiB sanity cap

/// A decoded WAL record. One struct covers every type; unused fields are
/// value-initialized (a tagged union buys nothing at this scale).
struct WalRecord {
  uint64_t lsn = 0;
  RecordType type = RecordType::kBegin;
  uint64_t txn_id = 0;        // Begin/Commit/Abort/Insert/Delete/Update
  uint64_t next_handle = 0;   // Commit, SnapshotHeader
  uint64_t covers_lsn = 0;    // SnapshotHeader: log LSNs <= this are stale
  std::string table;          // Insert/Delete/Update (lowercased)
  TupleHandle handle = kInvalidHandle;
  Row before;                 // Delete/Update pre-image
  Row after;                  // Insert/Update post-image
  std::string sql;            // Ddl
  /// Absolute file offset of this record's header. Filled in by the
  /// scanner (zero in hand-built records); the replication tailer uses
  /// it to compute durable resume points at record granularity.
  uint64_t offset = 0;

  static WalRecord Begin(uint64_t lsn, uint64_t txn);
  static WalRecord Commit(uint64_t lsn, uint64_t txn, uint64_t next_handle);
  static WalRecord Abort(uint64_t lsn, uint64_t txn);
  static WalRecord Insert(uint64_t lsn, uint64_t txn, std::string table,
                          TupleHandle handle, Row after);
  static WalRecord Delete(uint64_t lsn, uint64_t txn, std::string table,
                          TupleHandle handle, Row before);
  static WalRecord Update(uint64_t lsn, uint64_t txn, std::string table,
                          TupleHandle handle, Row before, Row after);
  static WalRecord Ddl(uint64_t lsn, std::string sql);
  static WalRecord SnapshotHeader(uint64_t lsn, uint64_t covers_lsn,
                                  uint64_t next_handle);
};

/// Serializes `rec` (header + checksummed payload) onto `out`.
void AppendRecord(std::string* out, const WalRecord& rec);

/// Payload codec (no framing); exposed for tests and the scanner.
std::string EncodePayload(const WalRecord& rec);
Status DecodePayload(std::string_view payload, WalRecord* out);

/// How a scan of a log ended.
enum class ScanEnd {
  kClean,      // file ends exactly at a record boundary
  kTornTail,   // trailing partial/corrupt record reaching EOF (truncatable)
  kCorrupt,    // mid-log damage with valid-looking data after it (fatal)
};

struct ScanResult {
  std::vector<WalRecord> records;  // the well-formed prefix
  uint64_t valid_bytes = 0;        // absolute end offset of that prefix
  uint64_t file_bytes = 0;         // absolute end offset of examined bytes
  ScanEnd end = ScanEnd::kClean;
  std::string detail;              // human-readable reason for torn/corrupt
};

/// Resume point for an incremental scan: a previous scan (or recovery)
/// ends at a record boundary; a tailer restarts there instead of
/// re-reading the whole log. `last_lsn` seeds the LSN-monotonicity check
/// so a regression across the seam is still caught (it also catches a
/// log that was rotated underneath the tailer: the fresh log's first
/// record would decode at offset 0, not at the stale resume offset).
struct ScanOptions {
  uint64_t start_offset = 0;  // must be a record boundary
  uint64_t last_lsn = 0;      // highest LSN consumed before start_offset
};

/// Scans a serialized log image, verifying framing, checksums, and LSN
/// monotonicity. Classification: a record whose extent reaches EOF (or an
/// all-zero remainder) is a torn tail — the expected shape of an
/// interrupted write, safe to truncate; any damage *followed by more
/// data* is mid-log corruption and must be surfaced, never truncated.
///
/// The ScanOptions overloads scan `data` as the file's contents FROM
/// `start_offset` (i.e. data[0] is file offset start_offset); every
/// offset in the result is absolute.
ScanResult ScanLogImage(std::string_view data);
ScanResult ScanLogImage(std::string_view data, const ScanOptions& opts);

/// Reads and scans a log file. A missing file scans as empty and clean.
/// The ScanOptions overload reads from opts.start_offset; an offset past
/// the current end of file is kInvalidArgument (the replication tailer
/// treats a shrunken file as a checkpoint rotation before scanning).
Result<ScanResult> ScanLogFile(const std::string& path);
Result<ScanResult> ScanLogFile(const std::string& path,
                               const ScanOptions& opts);

}  // namespace wal
}  // namespace sopr

#endif  // SOPR_WAL_WAL_FORMAT_H_
