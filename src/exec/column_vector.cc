#include "exec/column_vector.h"

#include "exec/stats.h"

namespace sopr {
namespace exec {

std::optional<ColumnVector::Tag> ColumnVector::TagFor(ValueType t) {
  switch (t) {
    case ValueType::kInt:
      return Tag::kInt64;
    case ValueType::kDouble:
      return Tag::kDouble;
    case ValueType::kString:
      return Tag::kString;
    case ValueType::kBool:
      return Tag::kBool;
    case ValueType::kNull:
      return std::nullopt;
  }
  return std::nullopt;
}

void ColumnVector::Reset(Tag tag, size_t reserve) {
  tag_ = tag;
  has_nulls_ = false;
  nulls_.clear();
  i64_.clear();
  f64_.clear();
  str_.clear();
  b8_.clear();
  nulls_.reserve(reserve);
  switch (tag_) {
    case Tag::kInt64:
      i64_.reserve(reserve);
      break;
    case Tag::kDouble:
      f64_.reserve(reserve);
      break;
    case Tag::kString:
      str_.reserve(reserve);
      break;
    case Tag::kBool:
      b8_.reserve(reserve);
      break;
  }
}

bool ColumnVector::Append(const Value& v) {
  if (v.is_null()) {
    has_nulls_ = true;
    nulls_.push_back(1);
    switch (tag_) {
      case Tag::kInt64:
        i64_.push_back(0);
        break;
      case Tag::kDouble:
        f64_.push_back(0.0);
        break;
      case Tag::kString:
        str_.push_back(nullptr);
        break;
      case Tag::kBool:
        b8_.push_back(0);
        break;
    }
    return true;
  }
  switch (tag_) {
    case Tag::kInt64:
      if (v.type() != ValueType::kInt) return false;
      nulls_.push_back(0);
      i64_.push_back(v.AsInt());
      return true;
    case Tag::kDouble:
      if (v.type() != ValueType::kDouble) return false;
      nulls_.push_back(0);
      f64_.push_back(v.AsDouble());
      return true;
    case Tag::kString:
      if (v.type() != ValueType::kString) return false;
      nulls_.push_back(0);
      str_.push_back(&v.AsString());
      return true;
    case Tag::kBool:
      if (v.type() != ValueType::kBool) return false;
      nulls_.push_back(0);
      b8_.push_back(v.AsBool() ? 1 : 0);
      return true;
  }
  return false;
}

Value ColumnVector::GetValue(size_t i) const {
  if (nulls_[i]) return Value::Null();
  switch (tag_) {
    case Tag::kInt64:
      return Value::Int(i64_[i]);
    case Tag::kDouble:
      return Value::Double(f64_[i]);
    case Tag::kString:
      return Value::String(*str_[i]);
    case Tag::kBool:
      return Value::Bool(b8_[i] != 0);
  }
  return Value::Null();
}

bool BuildColumn(const std::vector<Row>& rows, size_t col,
                 ValueType declared, ColumnVector* out) {
  return BuildColumnFrom(
      rows.size(), [&rows](size_t i) -> const Row& { return rows[i]; }, col,
      declared, out);
}

namespace internal {

bool FinishBuild(bool ok, ColumnVector* out) {
  (void)out;
  if (ok) {
    GlobalStats().columns_built.fetch_add(1, std::memory_order_relaxed);
  } else {
    GlobalStats().columns_rejected.fetch_add(1, std::memory_order_relaxed);
  }
  return ok;
}

}  // namespace internal

}  // namespace exec
}  // namespace sopr
