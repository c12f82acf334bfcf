#ifndef SOPR_EXEC_ROW_BATCH_H_
#define SOPR_EXEC_ROW_BATCH_H_

#include <cstdint>
#include <vector>

#include "types/row.h"

namespace sopr {
namespace exec {

/// Rows per batch in the batch pipeline (docs/EXECUTION.md). Matches
/// the executor's cancellation-check granularity so every batch boundary
/// is also a kill-delivery point.
constexpr size_t kBatchRows = 1024;

/// Selection vector: ascending positions into a RowBatch that are still
/// live. Operators evaluate only selected positions; filters narrow the
/// vector instead of compacting the batch.
using SelVec = std::vector<uint32_t>;

/// A batch of composed rows over the FROM bindings of one scope level.
/// Storage stays row-major (Row objects owned by the materialized
/// relations); the batch holds per-binding arrays of row pointers, so
/// column access is a gather with no Value copies. A binding whose rows
/// are not bound at this pipeline stage (e.g. the other relations during
/// a pushed single-relation filter) holds nullptr entries, which
/// reproduces the scalar path's "referenced outside row context" error.
class RowBatch {
 public:
  explicit RowBatch(size_t num_bindings) : rows_(num_bindings) {}

  size_t num_bindings() const { return rows_.size(); }
  size_t size() const { return size_; }

  void Clear() {
    for (auto& v : rows_) v.clear();
    size_ = 0;
  }
  void Reserve(size_t n) {
    for (auto& v : rows_) v.reserve(n);
  }

  /// Appends one position; every binding gets a pointer (may be null).
  void AppendAllNull() {
    for (auto& v : rows_) v.push_back(nullptr);
    ++size_;
  }

  /// Sets binding `b` of the last-appended position.
  void SetBack(size_t b, const Row* row) { rows_[b].back() = row; }

  const Row* row(size_t binding, uint32_t pos) const {
    return rows_[binding][pos];
  }

 private:
  std::vector<std::vector<const Row*>> rows_;  // [binding][position]
  size_t size_ = 0;
};

}  // namespace exec
}  // namespace sopr

#endif  // SOPR_EXEC_ROW_BATCH_H_
