#ifndef SOPR_QUERY_EXECUTOR_H_
#define SOPR_QUERY_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "expr/evaluator.h"
#include "query/planner.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "storage/tuple_handle.h"

namespace sopr {

/// A materialized relation: schema plus rows. `handles[i]` identifies
/// `rows[i]` when the relation comes from stored tuples (base tables and
/// transition tables); kInvalidHandle otherwise.
struct Relation {
  const TableSchema* schema = nullptr;
  std::vector<Row> rows;
  std::vector<TupleHandle> handles;
};

/// Maps FROM items to materialized relations. The base implementation
/// resolves only stored tables; the rule engine layers transition tables
/// on top (§3 of the paper).
class TableResolver {
 public:
  virtual ~TableResolver() = default;
  virtual Result<Relation> Resolve(const TableRef& ref) = 0;

  /// Schema of the relation `ref` denotes, without materializing rows
  /// (transition tables share their base table's schema).
  virtual Result<const TableSchema*> ResolveSchema(const TableRef& ref) = 0;

  /// Like Resolve, but the caller promises it will only keep rows whose
  /// `column` equals `value`; implementations with an index may return
  /// just those rows. The default ignores the hint (the caller always
  /// re-applies the predicate, so a superset is safe).
  virtual Result<Relation> ResolveEq(const TableRef& ref, size_t column,
                                     const Value& value) {
    (void)column;
    (void)value;
    return Resolve(ref);
  }
};

/// Resolves base tables from a Database at one read point: the
/// write-side head (kHeadLsn, the default), which rule actions and open
/// transactions read under S locks, or a snapshot LSN, read under the
/// tables' shared version latches only (docs/CONCURRENCY.md "How a
/// statement reads a table"). Transition-table references fail — they
/// only exist inside rules, whose actions always run at the head.
///
/// A snapshot reader must hold the scheduler's schema lock (shared) for
/// the duration of the query: snapshots version rows, not the catalog.
class DatabaseResolver : public TableResolver {
 public:
  explicit DatabaseResolver(const Database* db, uint64_t at = kHeadLsn)
      : db_(db), at_(at) {}
  Result<Relation> Resolve(const TableRef& ref) override;
  Result<const TableSchema*> ResolveSchema(const TableRef& ref) override;
  /// Uses the table's equality index on `column` when one exists.
  Result<Relation> ResolveEq(const TableRef& ref, size_t column,
                             const Value& value) override;

 private:
  /// The table `ref` names; CatalogError for a transition table.
  Result<const Table*> BaseTable(const TableRef& ref) const;

  const Database* db_;
  uint64_t at_;
};

/// The per-statement affected set (§2.1), with the value information the
/// rule system needs to build transition tables: deleted rows carry their
/// pre-image, updated tuples carry the updated column indices and the
/// pre-image of the whole tuple.
struct DmlEffect {
  std::string table;  // lowercased target table

  struct UpdatedTuple {
    TupleHandle handle = kInvalidHandle;
    std::vector<size_t> columns;  // indices of assigned columns
    Row old_row;
  };

  std::vector<TupleHandle> inserted;
  std::vector<std::pair<TupleHandle, Row>> deleted;
  std::vector<UpdatedTuple> updated;
};

/// Tuples read by a top-level select, for the §5.1 "selected" extension.
struct SelectedTuple {
  std::string table;  // lowercased
  TupleHandle handle = kInvalidHandle;
};

/// Executor tuning knobs, threaded down from RuleEngineOptions.
struct ExecOptions {
  /// Predicate pushdown + equijoin extraction. Off = plain
  /// cross-product-then-filter (ablation benchmark B9).
  bool optimize = true;
  /// Batch-at-a-time execution (docs/EXECUTION.md): hot predicate and
  /// join-key columns decompose into contiguous typed arrays and the
  /// branch-light kernels of exec/kernels.h evaluate them, with per-leaf
  /// fallback to the scalar evaluator; equijoins use the unordered
  /// build/probe hash join. Off = the row-at-a-time pipeline, kept alive
  /// as the differential oracle.
  bool batch = true;
  /// Build-side row cap for the batch hash join; exceeding it
  /// falls back to a nested-loop join with a counted stat instead of
  /// growing the hash table without bound. 0 = unlimited.
  size_t max_hash_build_rows = 1u << 20;
};

/// Set-oriented executor for the paper's SQL subset. Stateless between
/// statements; all mutations flow through the Database (which records
/// undo information). DML evaluates its full target set against the
/// pre-statement state before applying any mutation, so statements never
/// observe their own partial effects.
class Executor : public SubqueryRunner {
 public:
  /// `db` may be mutated by DML; `resolver` supplies FROM relations
  /// (including transition tables when running inside a rule).
  Executor(Database* db, TableResolver* resolver,
           const ExecOptions& options = {})
      : db_(db), resolver_(resolver), options_(options) {}

  /// Runs a select. `outer` provides correlation bindings for subqueries.
  /// When `selected` is non-null, handles of base-table tuples that
  /// participated in result rows are appended (§5.1 extension).
  Result<QueryResult> ExecuteSelect(const SelectStmt& stmt,
                                    const Scope* outer = nullptr,
                                    std::vector<SelectedTuple>* selected = nullptr);

  Result<DmlEffect> ExecuteInsert(const InsertStmt& stmt);
  Result<DmlEffect> ExecuteDelete(const DeleteStmt& stmt);
  Result<DmlEffect> ExecuteUpdate(const UpdateStmt& stmt);

  /// Dispatches on statement kind (DML only).
  Result<DmlEffect> ExecuteDml(const Stmt& stmt);

  // SubqueryRunner:
  Result<QueryResult> RunSubquery(const SelectStmt& select,
                                  const Scope* outer) override;

 private:
  struct Combo {
    std::vector<const Row*> rows;      // one per FROM binding
    std::vector<size_t> row_indices;   // parallel: index into the relation
  };

  Result<QueryResult> ExecutePlainSelect(
      const SelectStmt& stmt, const std::vector<Relation>& relations,
      Scope* scope, const std::vector<Combo>& combos,
      std::vector<Row>* order_keys);
  Result<QueryResult> ExecuteAggregateSelect(
      const SelectStmt& stmt, const std::vector<Relation>& relations,
      Scope* scope, const std::vector<Combo>& combos,
      std::vector<Row>* order_keys);
  Status ApplyOrderAndDistinct(const SelectStmt& stmt, QueryResult* result,
                               std::vector<Row>* order_keys);

  /// The rows DELETE/UPDATE may touch: the head read of a select with
  /// X locks in place of S locks, narrowed through an equality index
  /// when `where` has a `column = literal` conjunct and one exists.
  Result<Relation> ReadTargets(const Table& table,
                               const std::string& table_name,
                               const Expr* where);

  /// Coerces int literals into double columns so stored types match the
  /// schema exactly.
  static Row CoerceRow(Row row, const TableSchema& schema);

  /// Appends to `keep` the positions in [0, n) where every conjunct is
  /// TRUE, in ascending order. `row_at(i, b)` is the row that binding `b`
  /// of `scope` holds at position i, or nullptr where the binding is not
  /// bound at this stage. With batch execution on (and at least one
  /// conjunct) the batch engine's one chunk driver runs; otherwise the
  /// row-at-a-time oracle does. Leaves every row of `scope` unset.
  template <typename RowAt>
  Status FilterPositions(const std::vector<const Expr*>& conjuncts,
                         Scope* scope, size_t n, const RowAt& row_at,
                         std::vector<size_t>* keep);

  /// DELETE/UPDATE target matching: the positions of `targets` whose row
  /// satisfies `where` (every position when `where` is null). `scope`
  /// binds the target table alone.
  Status MatchTargets(const Expr* where, Scope* scope,
                      const Relation& targets, std::vector<size_t>* matches);

  Database* db_;
  TableResolver* resolver_;
  ExecOptions options_;
};

}  // namespace sopr

#endif  // SOPR_QUERY_EXECUTOR_H_
