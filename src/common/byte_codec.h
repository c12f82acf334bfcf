#ifndef SOPR_COMMON_BYTE_CODEC_H_
#define SOPR_COMMON_BYTE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "types/row.h"
#include "types/value.h"

namespace sopr {

/// The one byte codec of the WAL records (wal/wal_format.h) and the wire
/// frames (net/frame.h). All integers are little-endian and fixed width:
///
///   str   = u32 length + bytes
///   value = u8 tag + scalar, the tag being ValueType's value:
///           0 null (no scalar), 1 bool (u8), 2 int (u64 two's
///           complement), 3 double (8 raw bytes), 4 string (str)
///   row   = u32 arity + values
class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Str(std::string_view s);
  void Val(const Value& v);
  void PutRow(const Row& row);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked sequential reader. Every accessor fails with
/// kInvalidArgument on truncation, an unknown value tag, or a declared
/// row arity larger than the remaining bytes, so a malformed input can
/// never read out of bounds or request a giant allocation. The WAL maps
/// these failures to kDataLoss (wal::DecodePayload).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<std::string> Str();
  Result<Value> Val();
  Result<Row> GetRow();

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(size_t n) const;

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace sopr

#endif  // SOPR_COMMON_BYTE_CODEC_H_
