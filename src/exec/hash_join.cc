#include "exec/hash_join.h"

#include <cstring>

#include "common/cancel.h"
#include "common/digest.h"
#include "exec/row_batch.h"
#include "exec/stats.h"

namespace sopr {
namespace exec {

uint64_t HashJoinKeyValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0;  // never inserted or probed; any constant is fine
    case ValueType::kBool:
      return digest::Finalize(
          digest::MixU64(digest::kFnvOffset, v.AsBool() ? 2 : 1));
    case ValueType::kInt:
    case ValueType::kDouble: {
      double d = v.NumericAsDouble();
      if (d == 0.0) d = 0.0;  // collapse -0.0 onto +0.0 (they SqlEquals)
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return digest::Finalize(digest::MixU64(digest::kFnvOffset, bits));
    }
    case ValueType::kString:
      return digest::Finalize(
          digest::MixString(digest::kFnvOffset, v.AsString()));
  }
  return 0;
}

namespace {

uint64_t CombineKeyHash(uint64_t h, const Value& v) {
  return digest::MixU64(h, HashJoinKeyValue(v));
}

}  // namespace

Result<bool> JoinHashTable::Build(const std::vector<Row>& rows,
                                  std::vector<size_t> key_cols,
                                  size_t max_build_rows) {
  if (max_build_rows != 0 && rows.size() > max_build_rows) {
    GlobalStats().hash_join_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  rows_ = &rows;
  key_cols_ = std::move(key_cols);
  buckets_.clear();
  buckets_.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r % kBatchRows == 0) {
      SOPR_RETURN_NOT_OK(CheckCancel("hash join build"));
    }
    uint64_t h = digest::kFnvOffset;
    bool has_null = false;
    for (size_t col : key_cols_) {
      const Value& v = rows[r].at(col);
      if (v.is_null()) {
        has_null = true;
        break;
      }
      h = CombineKeyHash(h, v);
    }
    if (has_null) continue;
    buckets_[digest::Finalize(h)].push_back(static_cast<uint32_t>(r));
  }
  GlobalStats().hash_join_builds.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void JoinHashTable::Probe(const std::vector<const Value*>& probe_key,
                          std::vector<uint32_t>* out) const {
  uint64_t h = digest::kFnvOffset;
  for (const Value* v : probe_key) {
    if (v->is_null()) return;
    h = CombineKeyHash(h, *v);
  }
  auto it = buckets_.find(digest::Finalize(h));
  if (it == buckets_.end()) return;
  for (uint32_t r : it->second) {
    bool match = true;
    for (size_t k = 0; k < key_cols_.size(); ++k) {
      if ((*rows_)[r].at(key_cols_[k]).SqlEquals(*probe_key[k]) !=
          TriBool::kTrue) {
        match = false;
        break;
      }
    }
    if (match) out->push_back(r);
  }
}

}  // namespace exec
}  // namespace sopr
