#ifndef SOPR_EXEC_BATCH_EVALUATOR_H_
#define SOPR_EXEC_BATCH_EVALUATOR_H_

#include <vector>

#include "exec/column_vector.h"
#include "exec/row_batch.h"
#include "expr/evaluator.h"
#include "sql/ast.h"

namespace sopr {
namespace exec {

/// The decomposed (hot) columns available to the columnar evaluator for
/// one batch: (binding, column) -> ColumnVector, indexed by the SAME
/// positions as the RowBatch. Sparse by design — only columns the
/// predicate actually touches get decomposed; a lookup miss routes that
/// leaf to the scalar evaluator.
class ColumnSet {
 public:
  void Add(size_t binding, size_t column, const ColumnVector* cv) {
    entries_.push_back(Entry{binding, column, cv});
  }
  const ColumnVector* Find(size_t binding, size_t column) const {
    for (const Entry& e : entries_) {
      if (e.binding == binding && e.column == column) return e.cv;
    }
    return nullptr;
  }
  bool empty() const { return entries_.empty(); }

 private:
  struct Entry {
    size_t binding;
    size_t column;
    const ColumnVector* cv;
  };
  std::vector<Entry> entries_;
};

/// True for the position-dependent evaluation errors (type, execution,
/// catalog, internal) whose identity depends on which row is evaluated
/// first. The batch engine answers them by re-running row-at-a-time, so
/// the error reported is the one the row path meets first. Everything
/// else (cancellation, timeouts, injected faults, lock trouble surfaced
/// through subqueries) is position-independent or nondeterministic and
/// propagates as is.
bool IsRowOrderError(StatusCode code);

/// Evaluates `expr` as a predicate over every selected position of
/// `batch`, writing one TriBool per entry of `sel` (parallel order) — the
/// batch engine's only entry point. Where an expression subtree is
/// statically typeable over the decomposed columns in `cols`, it runs the
/// branch-light typed kernels of exec/kernels.h; every other leaf
/// predicate is evaluated per selected position by the scalar evaluator
/// over the same selection vector (counted in
/// exec::GlobalStats().pointer_fallback_preds). `cols` may be empty, in
/// which case every leaf takes that scalar path.
///
/// Contract (the differential-oracle guarantee; docs/EXECUTION.md):
/// exactly the same (row, subexpression) pairs are evaluated as the
/// scalar evaluator would visit row-at-a-time — AND/OR short-circuiting
/// is reproduced per position with lazily narrowed selection vectors —
/// only the evaluation *order* differs (operator-at-a-time instead of
/// row-at-a-time). If any position errors, the whole call re-runs the
/// selected positions row-at-a-time through the scalar evaluator and
/// returns its first error, so error codes and messages are bit-identical
/// to the row path. Position-independent failures (cancellation,
/// timeouts, injected faults, lock errors surfaced through subqueries)
/// propagate immediately without the re-run.
///
/// `scope` must have the batch's bindings at its innermost level; its
/// row pointers are clobbered (scalar leaves and the re-run bind rows
/// through it) and are not restored. `batch` must carry row pointers for
/// every selected position.
Status EvaluatePredicateColumnar(const Expr& expr, Scope* scope,
                                 EvalContext& ctx, const RowBatch& batch,
                                 const ColumnSet& cols, const SelVec& sel,
                                 std::vector<TriBool>* out);

}  // namespace exec
}  // namespace sopr

#endif  // SOPR_EXEC_BATCH_EVALUATOR_H_
