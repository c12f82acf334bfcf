#ifndef SOPR_EXEC_STATS_H_
#define SOPR_EXEC_STATS_H_

#include <atomic>
#include <cstdint>

namespace sopr {
namespace exec {

/// Process-wide counters for the batch (columnar) execution layer;
/// monotonically increasing, read by tests and benches. Relaxed atomics:
/// these are statistics, not synchronization.
///
/// The per-kernel engagement counters exist so a benchmark (or an
/// operator) can prove WHICH path actually ran: a workload whose
/// predicates all fall back to per-row scalar evaluation shows
/// `pointer_fallback_preds` climbing while the kernel counters stay
/// flat, and vice versa (docs/EXECUTION.md).
struct ExecStats {
  // --- Batch layer -----------------------------------------------------
  std::atomic<uint64_t> batches{0};            // batch evaluations started
  std::atomic<uint64_t> scalar_fallbacks{0};   // batch errored -> re-run row-wise
  std::atomic<uint64_t> hash_join_builds{0};   // unordered hash tables built
  std::atomic<uint64_t> hash_join_fallbacks{0};  // build-side budget exceeded

  // --- Columnar layer ---------------------------------------------------
  // Columnar predicate evaluations started (chunk granularity). Every
  // batch evaluation is columnar, so this always equals `batches`.
  std::atomic<uint64_t> columnar_chunks{0};
  // ColumnVector decompositions performed (one per column materialized
  // into contiguous typed arrays).
  std::atomic<uint64_t> columns_built{0};
  // Decompositions refused because a value's type did not match the
  // column's schema tag (the column stays row-organized).
  std::atomic<uint64_t> columns_rejected{0};
  // Kernel engagements, by family.
  std::atomic<uint64_t> kernel_compare{0};     // typed comparison loops
  std::atomic<uint64_t> kernel_arith{0};       // typed arithmetic loops
  std::atomic<uint64_t> kernel_null_check{0};  // IS [NOT] NULL over null masks
  std::atomic<uint64_t> kernel_membership{0};  // IN-list over typed slices
  std::atomic<uint64_t> kernel_logical{0};     // AND/OR/NOT TriBool combines
  // Leaf predicates the columnar evaluator had no kernel for
  // (subqueries, aggregates, non-decomposed columns, untypable
  // arithmetic), evaluated per row by the scalar evaluator instead.
  std::atomic<uint64_t> pointer_fallback_preds{0};
  // No longer incremented: the hash join has a single build. Kept only
  // because the repository benchmark still sums it; it goes when the
  // benchmark stops doing so.
  std::atomic<uint64_t> hash_join_columnar_builds{0};
};

/// The process-wide stats instance.
ExecStats& GlobalStats();

/// Plain-integer snapshot for delta accounting in tests and benches.
struct ExecStatsSnapshot {
  uint64_t batches = 0;
  uint64_t scalar_fallbacks = 0;
  uint64_t hash_join_builds = 0;
  uint64_t hash_join_fallbacks = 0;
  uint64_t columnar_chunks = 0;
  uint64_t columns_built = 0;
  uint64_t columns_rejected = 0;
  uint64_t kernel_compare = 0;
  uint64_t kernel_arith = 0;
  uint64_t kernel_null_check = 0;
  uint64_t kernel_membership = 0;
  uint64_t kernel_logical = 0;
  uint64_t pointer_fallback_preds = 0;
  uint64_t hash_join_columnar_builds = 0;
};

ExecStatsSnapshot SnapshotStats();

/// Elementwise a - b (callers take deltas across a measured window).
ExecStatsSnapshot operator-(const ExecStatsSnapshot& a,
                            const ExecStatsSnapshot& b);

}  // namespace exec
}  // namespace sopr

#endif  // SOPR_EXEC_STATS_H_
