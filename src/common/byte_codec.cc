#include "common/byte_codec.h"

#include <bit>
#include <utility>
#include <vector>

namespace sopr {

// --- ByteWriter -------------------------------------------------------------

void ByteWriter::U32(uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out_.append(buf, 4);
}

void ByteWriter::U64(uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out_.append(buf, 8);
}

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

void ByteWriter::Val(const Value& v) {
  U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      U8(v.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt:
      U64(static_cast<uint64_t>(v.AsInt()));
      break;
    case ValueType::kDouble:
      U64(std::bit_cast<uint64_t>(v.AsDouble()));
      break;
    case ValueType::kString:
      Str(v.AsString());
      break;
  }
}

void ByteWriter::PutRow(const Row& row) {
  U32(static_cast<uint32_t>(row.size()));
  for (size_t i = 0; i < row.size(); ++i) Val(row.at(i));
}

// --- ByteReader -------------------------------------------------------------

Status ByteReader::Need(size_t n) const {
  if (data_.size() - pos_ < n) {
    return Status::InvalidArgument(
        "truncated payload: need " + std::to_string(n) + " bytes at offset " +
        std::to_string(pos_) + " of " + std::to_string(data_.size()));
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::U8() {
  SOPR_RETURN_NOT_OK(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> ByteReader::U32() {
  SOPR_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::U64() {
  SOPR_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<std::string> ByteReader::Str() {
  SOPR_ASSIGN_OR_RETURN(uint32_t len, U32());
  SOPR_RETURN_NOT_OK(Need(len));
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

Result<Value> ByteReader::Val() {
  SOPR_ASSIGN_OR_RETURN(uint8_t tag, U8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      SOPR_ASSIGN_OR_RETURN(uint8_t b, U8());
      return Value::Bool(b != 0);
    }
    case ValueType::kInt: {
      SOPR_ASSIGN_OR_RETURN(uint64_t v, U64());
      return Value::Int(static_cast<int64_t>(v));
    }
    case ValueType::kDouble: {
      SOPR_ASSIGN_OR_RETURN(uint64_t v, U64());
      return Value::Double(std::bit_cast<double>(v));
    }
    case ValueType::kString: {
      SOPR_ASSIGN_OR_RETURN(std::string s, Str());
      return Value::String(std::move(s));
    }
  }
  return Status::InvalidArgument("unknown value tag " + std::to_string(tag));
}

Result<Row> ByteReader::GetRow() {
  SOPR_ASSIGN_OR_RETURN(uint32_t n, U32());
  // Each value costs at least its tag byte; a declared arity beyond the
  // remaining bytes is malformed, not an allocation request.
  if (n > remaining()) {
    return Status::InvalidArgument("row declares " + std::to_string(n) +
                                   " values but only " +
                                   std::to_string(remaining()) +
                                   " bytes remain");
  }
  std::vector<Value> values;
  values.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SOPR_ASSIGN_OR_RETURN(Value v, Val());
    values.push_back(std::move(v));
  }
  return Row(std::move(values));
}

}  // namespace sopr
