#ifndef SOPR_EXEC_COLUMN_VECTOR_H_
#define SOPR_EXEC_COLUMN_VECTOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "types/row.h"
#include "types/value.h"

namespace sopr {
namespace exec {

/// One hot column decomposed out of row-organized storage into a
/// contiguous typed array + null mask (docs/EXECUTION.md "Columnar
/// chunks"). Decomposition happens at materialization time; the kernels
/// in exec/kernels.h then run branch-light loops over these arrays
/// instead of chasing Row pointers and std::variant tags per value.
///
/// Lifetime: string entries BORROW the std::string owned by the source
/// Row — a ColumnVector is valid exactly as long as the rows it was
/// decomposed from, the same discipline as RowBatch's row pointers.
///
/// A column decomposes only if every non-NULL value matches the single
/// tag derived from the column's declared type. SQL columns are typed,
/// so this holds for every row that came out of storage; if it ever does
/// not (defensive check), decomposition is refused and the leaves that
/// read the column fall back to the scalar evaluator.
class ColumnVector {
 public:
  enum class Tag : uint8_t { kInt64, kDouble, kString, kBool };

  /// Maps a declared column type to its array tag. kNull (the type of an
  /// undeclared literal column) has no tag: such a column never
  /// decomposes.
  static std::optional<Tag> TagFor(ValueType t);

  Tag tag() const { return tag_; }
  size_t size() const { return nulls_.size(); }
  bool has_nulls() const { return has_nulls_; }

  /// Null mask: 1 = NULL at that position. Always size() entries.
  const uint8_t* nulls() const { return nulls_.data(); }
  bool is_null(size_t i) const { return nulls_[i] != 0; }

  /// Typed payload arrays; only the one matching tag() is populated.
  /// NULL positions hold a defined dummy (0 / 0.0 / nullptr / 0) so
  /// branchless kernels may read every lane and mask afterwards.
  const int64_t* i64() const { return i64_.data(); }
  const double* f64() const { return f64_.data(); }
  const std::string* const* str() const { return str_.data(); }
  const uint8_t* b8() const { return b8_.data(); }

  void Reset(Tag tag, size_t reserve);

  /// Appends one value. Returns false (leaving the vector unusable) if a
  /// non-NULL value does not match the tag.
  bool Append(const Value& v);

  /// Re-reads position i as a Value (tests / debugging; not a hot path).
  Value GetValue(size_t i) const;

 private:
  Tag tag_ = Tag::kInt64;
  bool has_nulls_ = false;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<const std::string*> str_;
  std::vector<uint8_t> b8_;
};

/// Decomposes column `col` of `rows` (declared type `declared`) into
/// `out`. Returns false — and bumps exec stats columns_rejected — when
/// the column cannot decompose (untagged declared type or a value/tag
/// mismatch); `out` is unusable in that case. Bumps columns_built on
/// success.
bool BuildColumn(const std::vector<Row>& rows, size_t col,
                 ValueType declared, ColumnVector* out);

/// Same, over an arbitrary row-pointer accessor (e.g. DML snapshots or
/// join combos). `row_at(i)` must return a live `const Row&` for
/// i in [0, n).
template <typename RowAt>
bool BuildColumnFrom(size_t n, RowAt&& row_at, size_t col,
                     ValueType declared, ColumnVector* out);

namespace internal {
bool FinishBuild(bool ok, ColumnVector* out);
}  // namespace internal

template <typename RowAt>
bool BuildColumnFrom(size_t n, RowAt&& row_at, size_t col,
                     ValueType declared, ColumnVector* out) {
  std::optional<ColumnVector::Tag> tag = ColumnVector::TagFor(declared);
  if (!tag.has_value()) return internal::FinishBuild(false, out);
  out->Reset(*tag, n);
  for (size_t i = 0; i < n; ++i) {
    const Row& row = row_at(i);
    if (col >= row.size() || !out->Append(row.at(col))) {
      return internal::FinishBuild(false, out);
    }
  }
  return internal::FinishBuild(true, out);
}

}  // namespace exec
}  // namespace sopr

#endif  // SOPR_EXEC_COLUMN_VECTOR_H_
