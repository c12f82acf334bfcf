#include "wal/wal_format.h"

#include <fstream>

#include "common/byte_codec.h"
#include "wal/crc32c.h"

namespace sopr {
namespace wal {

const char* RecordTypeName(RecordType type) {
  switch (type) {
    case RecordType::kBegin:
      return "BEGIN";
    case RecordType::kCommit:
      return "COMMIT";
    case RecordType::kAbort:
      return "ABORT";
    case RecordType::kInsert:
      return "INSERT";
    case RecordType::kDelete:
      return "DELETE";
    case RecordType::kUpdate:
      return "UPDATE";
    case RecordType::kDdl:
      return "DDL";
    case RecordType::kSnapshotHeader:
      return "SNAPSHOT";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Record constructors
// ---------------------------------------------------------------------------

WalRecord WalRecord::Begin(uint64_t lsn, uint64_t txn) {
  WalRecord r;
  r.lsn = lsn;
  r.type = RecordType::kBegin;
  r.txn_id = txn;
  return r;
}

WalRecord WalRecord::Commit(uint64_t lsn, uint64_t txn,
                            uint64_t next_handle) {
  WalRecord r;
  r.lsn = lsn;
  r.type = RecordType::kCommit;
  r.txn_id = txn;
  r.next_handle = next_handle;
  return r;
}

WalRecord WalRecord::Abort(uint64_t lsn, uint64_t txn) {
  WalRecord r;
  r.lsn = lsn;
  r.type = RecordType::kAbort;
  r.txn_id = txn;
  return r;
}

WalRecord WalRecord::Insert(uint64_t lsn, uint64_t txn, std::string table,
                            TupleHandle handle, Row after) {
  WalRecord r;
  r.lsn = lsn;
  r.type = RecordType::kInsert;
  r.txn_id = txn;
  r.table = std::move(table);
  r.handle = handle;
  r.after = std::move(after);
  return r;
}

WalRecord WalRecord::Delete(uint64_t lsn, uint64_t txn, std::string table,
                            TupleHandle handle, Row before) {
  WalRecord r;
  r.lsn = lsn;
  r.type = RecordType::kDelete;
  r.txn_id = txn;
  r.table = std::move(table);
  r.handle = handle;
  r.before = std::move(before);
  return r;
}

WalRecord WalRecord::Update(uint64_t lsn, uint64_t txn, std::string table,
                            TupleHandle handle, Row before, Row after) {
  WalRecord r;
  r.lsn = lsn;
  r.type = RecordType::kUpdate;
  r.txn_id = txn;
  r.table = std::move(table);
  r.handle = handle;
  r.before = std::move(before);
  r.after = std::move(after);
  return r;
}

WalRecord WalRecord::Ddl(uint64_t lsn, std::string sql) {
  WalRecord r;
  r.lsn = lsn;
  r.type = RecordType::kDdl;
  r.sql = std::move(sql);
  return r;
}

WalRecord WalRecord::SnapshotHeader(uint64_t lsn, uint64_t covers_lsn,
                                    uint64_t next_handle) {
  WalRecord r;
  r.lsn = lsn;
  r.type = RecordType::kSnapshotHeader;
  r.covers_lsn = covers_lsn;
  r.next_handle = next_handle;
  return r;
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

std::string EncodePayload(const WalRecord& rec) {
  ByteWriter w;
  w.U64(rec.lsn);
  w.U8(static_cast<uint8_t>(rec.type));
  switch (rec.type) {
    case RecordType::kBegin:
    case RecordType::kAbort:
      w.U64(rec.txn_id);
      break;
    case RecordType::kCommit:
      w.U64(rec.txn_id);
      w.U64(rec.next_handle);
      break;
    case RecordType::kInsert:
      w.U64(rec.txn_id);
      w.Str(rec.table);
      w.U64(rec.handle);
      w.PutRow(rec.after);
      break;
    case RecordType::kDelete:
      w.U64(rec.txn_id);
      w.Str(rec.table);
      w.U64(rec.handle);
      w.PutRow(rec.before);
      break;
    case RecordType::kUpdate:
      w.U64(rec.txn_id);
      w.Str(rec.table);
      w.U64(rec.handle);
      w.PutRow(rec.before);
      w.PutRow(rec.after);
      break;
    case RecordType::kDdl:
      w.Str(rec.sql);
      break;
    case RecordType::kSnapshotHeader:
      w.U64(rec.covers_lsn);
      w.U64(rec.next_handle);
      break;
  }
  return w.Take();
}

namespace {

/// The body of DecodePayload; its failures are the reader's
/// kInvalidArgument, which DecodePayload reports as data loss.
Status DecodeFields(std::string_view payload, WalRecord* out) {
  ByteReader r(payload);
  SOPR_ASSIGN_OR_RETURN(out->lsn, r.U64());
  SOPR_ASSIGN_OR_RETURN(uint8_t type, r.U8());
  if (type < static_cast<uint8_t>(RecordType::kBegin) ||
      type > static_cast<uint8_t>(RecordType::kSnapshotHeader)) {
    return Status::InvalidArgument("unknown type " + std::to_string(type));
  }
  out->type = static_cast<RecordType>(type);
  switch (out->type) {
    case RecordType::kBegin:
    case RecordType::kAbort: {
      SOPR_ASSIGN_OR_RETURN(out->txn_id, r.U64());
      break;
    }
    case RecordType::kCommit: {
      SOPR_ASSIGN_OR_RETURN(out->txn_id, r.U64());
      SOPR_ASSIGN_OR_RETURN(out->next_handle, r.U64());
      break;
    }
    case RecordType::kInsert: {
      SOPR_ASSIGN_OR_RETURN(out->txn_id, r.U64());
      SOPR_ASSIGN_OR_RETURN(out->table, r.Str());
      SOPR_ASSIGN_OR_RETURN(out->handle, r.U64());
      SOPR_ASSIGN_OR_RETURN(out->after, r.GetRow());
      break;
    }
    case RecordType::kDelete: {
      SOPR_ASSIGN_OR_RETURN(out->txn_id, r.U64());
      SOPR_ASSIGN_OR_RETURN(out->table, r.Str());
      SOPR_ASSIGN_OR_RETURN(out->handle, r.U64());
      SOPR_ASSIGN_OR_RETURN(out->before, r.GetRow());
      break;
    }
    case RecordType::kUpdate: {
      SOPR_ASSIGN_OR_RETURN(out->txn_id, r.U64());
      SOPR_ASSIGN_OR_RETURN(out->table, r.Str());
      SOPR_ASSIGN_OR_RETURN(out->handle, r.U64());
      SOPR_ASSIGN_OR_RETURN(out->before, r.GetRow());
      SOPR_ASSIGN_OR_RETURN(out->after, r.GetRow());
      break;
    }
    case RecordType::kDdl: {
      SOPR_ASSIGN_OR_RETURN(out->sql, r.Str());
      break;
    }
    case RecordType::kSnapshotHeader: {
      SOPR_ASSIGN_OR_RETURN(out->covers_lsn, r.U64());
      SOPR_ASSIGN_OR_RETURN(out->next_handle, r.U64());
      break;
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after " +
                                   std::string(RecordTypeName(out->type)) +
                                   " body");
  }
  return Status::OK();
}

}  // namespace

Status DecodePayload(std::string_view payload, WalRecord* out) {
  *out = WalRecord();
  // The checksum already passed, so a payload the codec cannot read is
  // damaged data, not a bad argument.
  Status decoded = DecodeFields(payload, out);
  if (!decoded.ok()) {
    return Status::DataLoss("wal record: " + decoded.message());
  }
  return Status::OK();
}

void AppendRecord(std::string* out, const WalRecord& rec) {
  const std::string payload = EncodePayload(rec);
  ByteWriter header;
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U32(Crc32c(payload));
  out->append(header.bytes());
  out->append(payload);
}

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

namespace {

uint32_t ReadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

bool AllZero(std::string_view data) {
  for (char c : data) {
    if (c != 0) return false;
  }
  return true;
}

std::string AtOffset(uint64_t off) {
  return " at offset " + std::to_string(off);
}

}  // namespace

ScanResult ScanLogImage(std::string_view data) {
  return ScanLogImage(data, ScanOptions{});
}

ScanResult ScanLogImage(std::string_view data, const ScanOptions& opts) {
  // `off` is absolute: data[0] sits at file offset opts.start_offset.
  // The bounds arithmetic below therefore compares against `end_off`.
  const uint64_t base = opts.start_offset;
  ScanResult result;
  result.file_bytes = base + data.size();
  result.valid_bytes = base;
  uint64_t off = base;
  uint64_t last_lsn = opts.last_lsn;
  const uint64_t end_off = base + data.size();
  const auto at = [&](uint64_t abs) { return data.data() + (abs - base); };
  while (off < end_off) {
    const uint64_t remaining = end_off - off;
    if (remaining < kHeaderSize) {
      result.end = ScanEnd::kTornTail;
      result.detail = "partial record header" + AtOffset(off);
      return result;
    }
    const uint32_t len = ReadU32(at(off));
    const uint32_t crc = ReadU32(at(off) + 4);
    const uint64_t extent = off + kHeaderSize + len;
    if (len < kMinPayload || len > kMaxPayload) {
      // A zero-filled remainder is the signature of filesystem
      // preallocation after a crash: a torn tail, not corruption.
      if (len == 0 && crc == 0 && AllZero(data.substr(off - base))) {
        result.end = ScanEnd::kTornTail;
        result.detail = "zero-filled tail" + AtOffset(off);
        return result;
      }
      if (extent >= end_off) {
        result.end = ScanEnd::kTornTail;
        result.detail = "implausible record length " + std::to_string(len) +
                        " reaching EOF" + AtOffset(off);
        return result;
      }
      result.end = ScanEnd::kCorrupt;
      result.detail = "implausible record length " + std::to_string(len) +
                      " mid-log" + AtOffset(off);
      return result;
    }
    if (extent > end_off) {
      result.end = ScanEnd::kTornTail;
      result.detail = "record extends past EOF" + AtOffset(off);
      return result;
    }
    std::string_view payload = data.substr(off - base + kHeaderSize, len);
    if (Crc32c(payload) != crc) {
      if (extent == end_off) {
        result.end = ScanEnd::kTornTail;
        result.detail = "checksum mismatch on final record" + AtOffset(off);
      } else {
        result.end = ScanEnd::kCorrupt;
        result.detail = "checksum mismatch mid-log" + AtOffset(off) + " (" +
                        std::to_string(end_off - extent) +
                        " valid-looking bytes follow)";
      }
      return result;
    }
    WalRecord rec;
    Status decoded = DecodePayload(payload, &rec);
    if (!decoded.ok()) {
      // The checksum passed, so these bytes are what was written: a
      // structurally bad record is corruption (or a version skew), never
      // a torn write.
      result.end = ScanEnd::kCorrupt;
      result.detail = decoded.message() + AtOffset(off);
      return result;
    }
    if (rec.lsn <= last_lsn) {
      result.end = ScanEnd::kCorrupt;
      result.detail = "LSN regression (" + std::to_string(rec.lsn) +
                      " after " + std::to_string(last_lsn) + ")" +
                      AtOffset(off);
      return result;
    }
    last_lsn = rec.lsn;
    rec.offset = off;
    result.records.push_back(std::move(rec));
    off = extent;
    result.valid_bytes = off;
  }
  result.end = ScanEnd::kClean;
  return result;
}

Result<ScanResult> ScanLogFile(const std::string& path) {
  return ScanLogFile(path, ScanOptions{});
}

Result<ScanResult> ScanLogFile(const std::string& path,
                               const ScanOptions& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    if (opts.start_offset != 0) {
      return Status::InvalidArgument(
          "ScanLogFile: resume offset " + std::to_string(opts.start_offset) +
          " into missing file " + path);
    }
    return ScanResult{};  // missing file: empty, clean
  }
  in.seekg(0, std::ios::end);
  const auto size = static_cast<uint64_t>(in.tellg());
  if (opts.start_offset > size) {
    return Status::InvalidArgument(
        "ScanLogFile: resume offset " + std::to_string(opts.start_offset) +
        " past end of " + path + " (" + std::to_string(size) +
        " bytes) — was the log rotated?");
  }
  in.seekg(static_cast<std::streamoff>(opts.start_offset));
  std::string buf(size - opts.start_offset, '\0');
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (in.bad() || static_cast<uint64_t>(in.gcount()) != buf.size()) {
    return Status::DataLoss("cannot read wal file " + path);
  }
  return ScanLogImage(buf, opts);
}

}  // namespace wal
}  // namespace sopr
