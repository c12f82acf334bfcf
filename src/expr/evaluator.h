#ifndef SOPR_EXPR_EVALUATOR_H_
#define SOPR_EXPR_EVALUATOR_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "sql/ast.h"
#include "types/row.h"
#include "types/value.h"

namespace sopr {

/// One named relation visible to expressions: a binding name (table name
/// or alias), the relation's schema, and the current row while iterating.
struct Binding {
  std::string name;
  const TableSchema* schema = nullptr;
  const Row* row = nullptr;
};

/// Lexical scope for name resolution. Inner scopes (subquery FROM lists)
/// shadow outer ones; unqualified names must be unambiguous within the
/// innermost level that defines them.
class Scope {
 public:
  explicit Scope(const Scope* parent = nullptr) : parent_(parent) {}

  /// Adds a binding; rejects duplicate names at the same level.
  Status AddBinding(std::string name, const TableSchema* schema);

  size_t num_bindings() const { return bindings_.size(); }
  void SetRow(size_t i, const Row* row) { bindings_[i].row = row; }
  const Binding& binding(size_t i) const { return bindings_[i]; }

  struct Resolved {
    const Binding* binding = nullptr;
    size_t column = 0;
  };

  /// Resolves `qualifier.column` (qualifier may be empty). Searches this
  /// level, then parents. Ambiguous unqualified names are an error.
  Result<Resolved> ResolveColumn(const std::string& qualifier,
                                 const std::string& column) const;

 private:
  const Scope* parent_;
  std::vector<Binding> bindings_;
};

/// Result rows of a (sub)query: column names plus materialized rows.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

/// Callback used by the evaluator to run embedded selects (implemented by
/// the query executor; an interface breaks the circular dependency).
class SubqueryRunner {
 public:
  virtual ~SubqueryRunner() = default;
  virtual Result<QueryResult> RunSubquery(const SelectStmt& select,
                                          const Scope* outer) = 0;
};

/// Evaluation context: subquery runner plus, inside grouped queries,
/// precomputed values for aggregate nodes (keyed by node identity).
struct EvalContext {
  SubqueryRunner* runner = nullptr;
  const std::map<const Expr*, Value>* aggregates = nullptr;
};

/// Evaluates a scalar expression. Boolean results use Value::Bool;
/// SQL `unknown` is represented as NULL.
Result<Value> Evaluate(const Expr& expr, const Scope& scope,
                       EvalContext& ctx);

/// Evaluates `expr` as a predicate with three-valued logic. Non-boolean,
/// non-null results are a type error.
Result<TriBool> EvaluatePredicate(const Expr& expr, const Scope& scope,
                                  EvalContext& ctx);

/// True if the tree contains an AggregateExpr outside of subqueries.
bool ContainsAggregate(const Expr& expr);

/// Appends every AggregateExpr in the tree (not descending into
/// subqueries) to `out`.
void CollectAggregates(const Expr& expr,
                       std::vector<const AggregateExpr*>* out);

}  // namespace sopr

#endif  // SOPR_EXPR_EVALUATOR_H_
