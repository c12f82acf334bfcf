#ifndef SOPR_EXEC_HASH_JOIN_H_
#define SOPR_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "types/row.h"
#include "types/value.h"

namespace sopr {
namespace exec {

/// Hash of a non-NULL value under SQL join-key equality: numerics are
/// normalized through double (so int 2 and double 2.0 — which
/// SqlEquals — land in the same bucket, and -0.0 hashes as +0.0).
uint64_t HashJoinKeyValue(const Value& v);

/// Build/probe hash table for equijoins: build side keyed by one or
/// more columns, probe by value pointers (no key materialization).
/// Collisions are resolved by verifying candidates with SqlEquals, so a
/// hash collision can cost time but never correctness. Rows with a NULL
/// key column are not inserted and a NULL probe key matches nothing —
/// SQL equality semantics.
class JoinHashTable {
 public:
  /// Builds over `rows` keyed by `key_cols`, digesting each key with the
  /// same per-column fold Probe uses, so build and probe agree by
  /// construction. Returns false when a non-zero `max_build_rows` is
  /// exceeded (hash-join memory discipline: the caller falls back to the
  /// nested-loop path instead of growing the table without bound;
  /// docs/EXECUTION.md). Checks cancellation at batch boundaries during
  /// the build.
  Result<bool> Build(const std::vector<Row>& rows,
                     std::vector<size_t> key_cols, size_t max_build_rows);

  /// Appends to `out` the build-row indices whose key columns all
  /// SqlEquals the probe values (one per key column, same order as
  /// `key_cols`). Any NULL probe value matches nothing.
  void Probe(const std::vector<const Value*>& probe_key,
             std::vector<uint32_t>* out) const;

 private:
  const std::vector<Row>* rows_ = nullptr;
  std::vector<size_t> key_cols_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets_;
};

}  // namespace exec
}  // namespace sopr

#endif  // SOPR_EXEC_HASH_JOIN_H_
