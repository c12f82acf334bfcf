#include "query/executor.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "exec/batch_evaluator.h"
#include "exec/hash_join.h"
#include "exec/row_batch.h"
#include "expr/aggregate.h"

namespace sopr {

namespace {

/// Scan/join loops re-check the ambient CancelContext every this many
/// rows, so a runaway cross product or a giant scan stays interruptible
/// without paying a check per row (docs/OVERLOAD.md).
constexpr size_t kCancelCheckBatch = 1024;

/// The one read of a stored table into a Relation (docs/CONCURRENCY.md
/// "How a statement reads a table"), at read point `at`. `eq`, when set,
/// narrows it to rows whose column (probably) equals the value; callers
/// re-apply their predicate. At the head an index probe locks each
/// candidate record and any other read locks the whole table, S for a
/// select and X for DML (`for_write`); a snapshot read takes no lock.
Result<Relation> ReadTable(const Database& db, const Table& table,
                           std::string_view name, uint64_t at, bool for_write,
                           std::optional<std::pair<size_t, const Value*>> eq) {
  Relation rel;
  rel.schema = &table.schema();
  const bool head = at == kHeadLsn;
  if (eq && table.GetIndex(eq->first) != nullptr) {
    std::function<Status(TupleHandle)> lock;
    if (head) {
      lock = [&](TupleHandle h) {
        return for_write ? db.LockRecordForWrite(name, h)
                         : db.LockRecordForRead(name, h);
      };
    }
    SOPR_RETURN_NOT_OK(table.ProbeEq(at, eq->first, *eq->second, lock,
                                     &rel.rows, &rel.handles));
    return rel;
  }
  if (head && for_write) {
    // Every row is a DML candidate: the table X lock is full phantom
    // protection for this scan-then-mutate.
    SOPR_RETURN_NOT_OK(db.LockForWriteScan(name));
  } else if (head) {
    SOPR_RETURN_NOT_OK(CheckCancel("table scan"));
    // A full scan reads every row, so it takes a table S lock: committed
    // writers cannot change the table under this transaction's feet, and
    // re-scans within the fixpoint see a stable set (coarse-grained
    // phantom protection; see docs/CONCURRENCY.md).
    SOPR_RETURN_NOT_OK(db.LockForScan(name));
  }
  table.Scan(at, &rel.rows, &rel.handles);
  return rel;
}

}  // namespace

Result<const Table*> DatabaseResolver::BaseTable(const TableRef& ref) const {
  if (ref.kind != TableRefKind::kBase) {
    return Status::CatalogError(
        "transition table '" + ref.ToString() +
        "' can only be referenced inside a production rule");
  }
  return db_->GetTable(ref.table);
}

Result<Relation> DatabaseResolver::Resolve(const TableRef& ref) {
  SOPR_ASSIGN_OR_RETURN(const Table* table, BaseTable(ref));
  return ReadTable(*db_, *table, ref.table, at_, false, std::nullopt);
}

Result<const TableSchema*> DatabaseResolver::ResolveSchema(
    const TableRef& ref) {
  SOPR_ASSIGN_OR_RETURN(const Table* table, BaseTable(ref));
  return &table->schema();
}

Result<Relation> DatabaseResolver::ResolveEq(const TableRef& ref,
                                             size_t column,
                                             const Value& value) {
  SOPR_ASSIGN_OR_RETURN(const Table* table, BaseTable(ref));
  return ReadTable(*db_, *table, ref.table, at_, false,
                   std::make_pair(column, &value));
}

namespace {

/// Output column name for a select item.
std::string ItemName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr*>(item.expr.get())->column;
  }
  return item.expr->ToString();
}

/// True when the select needs the aggregate path.
bool NeedsAggregation(const SelectStmt& stmt) {
  if (!stmt.group_by.empty()) return true;
  if (stmt.having != nullptr) return true;
  for (const SelectItem& item : stmt.items) {
    if (!item.star && ContainsAggregate(*item.expr)) return true;
  }
  return false;
}

/// Checks that a non-aggregate expression in a grouped query is legal:
/// textually one of the group-by expressions, a literal, or composed of
/// legal parts.
bool IsLegalGroupExpr(const Expr& expr,
                      const std::vector<ExprPtr>& group_by) {
  if (expr.kind == ExprKind::kAggregate) return true;
  for (const ExprPtr& g : group_by) {
    if (g->ToString() == expr.ToString()) return true;
  }
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kUnary:
      return IsLegalGroupExpr(*static_cast<const UnaryExpr&>(expr).operand,
                              group_by);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return IsLegalGroupExpr(*b.left, group_by) &&
             IsLegalGroupExpr(*b.right, group_by);
    }
    default:
      return false;
  }
}

/// Appends every (binding, column) pair `expr` references at this scope
/// level (not descending into subqueries) to `out`, without duplicates —
/// the hot columns worth decomposing for a chunk.
void CollectHotColumns(const Expr& expr, const Scope& scope,
                       std::vector<std::pair<size_t, size_t>>* out) {
  switch (expr.kind) {
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      auto resolved = scope.ResolveColumn(ref.qualifier, ref.column);
      // Unresolvable references error at evaluation; outer-scope
      // references broadcast a single value — neither is a hot column.
      if (!resolved.ok()) return;
      for (size_t b = 0; b < scope.num_bindings(); ++b) {
        if (resolved.value().binding != &scope.binding(b)) continue;
        std::pair<size_t, size_t> key(b, resolved.value().column);
        if (std::find(out->begin(), out->end(), key) == out->end()) {
          out->push_back(key);
        }
        return;
      }
      return;
    }
    case ExprKind::kUnary:
      CollectHotColumns(*static_cast<const UnaryExpr&>(expr).operand, scope,
                        out);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      CollectHotColumns(*b.left, scope, out);
      CollectHotColumns(*b.right, scope, out);
      return;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      CollectHotColumns(*in.operand, scope, out);
      for (const ExprPtr& item : in.items) {
        CollectHotColumns(*item, scope, out);
      }
      return;
    }
    case ExprKind::kIsNull:
      CollectHotColumns(*static_cast<const IsNullExpr&>(expr).operand, scope,
                        out);
      return;
    case ExprKind::kBetween: {
      const auto& bw = static_cast<const BetweenExpr&>(expr);
      CollectHotColumns(*bw.operand, scope, out);
      CollectHotColumns(*bw.low, scope, out);
      CollectHotColumns(*bw.high, scope, out);
      return;
    }
    default:
      // Literals and aggregates reference no columns; subquery subtrees
      // always run as scalar leaves, so their references stay cold.
      return;
  }
}

/// The batch engine's one chunk driver (docs/EXECUTION.md "Where chunks
/// are formed"): FilterPositions' contract, chunk by chunk. At each chunk
/// boundary it fires `exec.batch` and checks cancellation, decomposes the
/// conjuncts' hot columns from the rows in hand, and narrows the selection
/// vector conjunct by conjunct, so conjunct k only sees positions whose
/// earlier conjuncts were all TRUE — the positions the row oracle
/// evaluates it on.
template <typename RowAt>
Status MatchChunked(const std::vector<const Expr*>& conjuncts, Scope* scope,
                    EvalContext& ctx, size_t n, const RowAt& row_at,
                    std::vector<size_t>* keep) {
  std::vector<std::pair<size_t, size_t>> hot;
  for (const Expr* conjunct : conjuncts) {
    CollectHotColumns(*conjunct, *scope, &hot);
  }
  std::vector<exec::ColumnVector> hot_storage(hot.size());
  exec::RowBatch batch(scope->num_bindings());
  exec::SelVec sel;
  std::vector<TriBool> tri;
  for (size_t start = 0; start < n; start += exec::kBatchRows) {
    SOPR_FAILPOINT_RETURN("exec.batch");
    SOPR_RETURN_NOT_OK(CheckCancel("batch boundary"));
    const size_t len = std::min(exec::kBatchRows, n - start);
    batch.Clear();
    sel.clear();
    for (size_t i = 0; i < len; ++i) {
      batch.AppendAllNull();
      for (size_t b = 0; b < scope->num_bindings(); ++b) {
        batch.SetBack(b, row_at(start + i, b));
      }
      sel.push_back(static_cast<uint32_t>(i));
    }
    exec::ColumnSet colset;
    for (size_t k = 0; k < hot.size(); ++k) {
      const size_t b = hot[k].first;
      const size_t col = hot[k].second;
      const TableSchema& schema = *scope->binding(b).schema;
      // A binding unbound at this stage (the other relations under a
      // pushed filter) has no rows to decompose.
      if (row_at(start, b) == nullptr || col >= schema.num_columns()) continue;
      if (exec::BuildColumnFrom(
              len,
              [&](size_t i) -> const Row& { return *row_at(start + i, b); },
              col, schema.columns()[col].type, &hot_storage[k])) {
        colset.Add(b, col, &hot_storage[k]);
      }
    }
    for (const Expr* conjunct : conjuncts) {
      if (sel.empty()) break;
      SOPR_RETURN_NOT_OK(exec::EvaluatePredicateColumnar(
          *conjunct, scope, ctx, batch, colset, sel, &tri));
      size_t kept = 0;
      for (size_t i = 0; i < sel.size(); ++i) {
        if (tri[i] == TriBool::kTrue) sel[kept++] = sel[i];
      }
      sel.resize(kept);
    }
    for (uint32_t pos : sel) keep->push_back(start + pos);
  }
  return Status::OK();
}

/// The row-at-a-time oracle for MatchChunked: the same contract, one
/// position at a time through the scalar evaluator, stopping at the first
/// conjunct that is not TRUE. It never enters the batch engine.
template <typename RowAt>
Status MatchRowwise(const std::vector<const Expr*>& conjuncts, Scope* scope,
                    EvalContext& ctx, size_t n, const RowAt& row_at,
                    std::vector<size_t>* keep) {
  for (size_t i = 0; i < n; ++i) {
    if (i % kCancelCheckBatch == 0) {
      SOPR_RETURN_NOT_OK(CheckCancel("filter"));
    }
    for (size_t b = 0; b < scope->num_bindings(); ++b) {
      scope->SetRow(b, row_at(i, b));
    }
    bool match = true;
    for (const Expr* conjunct : conjuncts) {
      SOPR_ASSIGN_OR_RETURN(TriBool t,
                            EvaluatePredicate(*conjunct, *scope, ctx));
      if (t != TriBool::kTrue) {
        match = false;
        break;
      }
    }
    if (match) keep->push_back(i);
  }
  return Status::OK();
}

/// Compacts `v` to its entries at the ascending positions `keep`.
template <typename T>
void KeepPositions(const std::vector<size_t>& keep, std::vector<T>* v) {
  for (size_t i = 0; i < keep.size(); ++i) {
    if (keep[i] != i) (*v)[i] = std::move((*v)[keep[i]]);
  }
  v->erase(v->begin() + keep.size(), v->end());
}

}  // namespace

template <typename RowAt>
Status Executor::FilterPositions(const std::vector<const Expr*>& conjuncts,
                                 Scope* scope, size_t n, const RowAt& row_at,
                                 std::vector<size_t>* keep) {
  EvalContext ctx;
  ctx.runner = this;
  Status s = options_.batch && !conjuncts.empty()
                 ? MatchChunked(conjuncts, scope, ctx, n, row_at, keep)
                 : MatchRowwise(conjuncts, scope, ctx, n, row_at, keep);
  for (size_t b = 0; b < scope->num_bindings(); ++b) {
    scope->SetRow(b, nullptr);
  }
  return s;
}

Status Executor::MatchTargets(const Expr* where, Scope* scope,
                              const Relation& targets,
                              std::vector<size_t>* matches) {
  std::vector<const Expr*> conjuncts;
  if (where != nullptr) conjuncts.push_back(where);
  return FilterPositions(
      conjuncts, scope, targets.rows.size(),
      [&targets](size_t i, size_t) { return &targets.rows[i]; }, matches);
}

Result<QueryResult> Executor::RunSubquery(const SelectStmt& select,
                                          const Scope* outer) {
  return ExecuteSelect(select, outer, nullptr);
}

Result<QueryResult> Executor::ExecuteSelect(
    const SelectStmt& stmt, const Scope* outer,
    std::vector<SelectedTuple>* selected) {
  if (stmt.from.empty()) {
    return Status::ExecutionError("select requires a FROM clause");
  }

  // Resolve schemas first so planning can run before materialization.
  std::vector<QueryPlan::BindingInfo> binding_infos;
  binding_infos.reserve(stmt.from.size());
  for (const TableRef& ref : stmt.from) {
    SOPR_ASSIGN_OR_RETURN(const TableSchema* schema,
                          resolver_->ResolveSchema(ref));
    binding_infos.push_back(
        QueryPlan::BindingInfo{ref.binding_name(), schema});
  }

  // Plan: pushed single-relation filters, hash equijoin edges, residual
  // conjuncts. With optimization off the whole WHERE is residual, which
  // reduces to the classic cross-product-then-filter pipeline.
  QueryPlan plan;
  std::vector<const Expr*> naive_residual;
  if (options_.optimize) {
    plan = QueryPlan::Analyze(stmt.where.get(), binding_infos);
  } else if (stmt.where != nullptr) {
    naive_residual.push_back(stmt.where.get());
  }
  const std::vector<const Expr*>& residual =
      options_.optimize ? plan.residual() : naive_residual;

  // Materialize each relation, using an equality-index hint when a pushed
  // filter is `column = literal` (the filter is still re-applied below,
  // so an implementation without the index is equally correct).
  auto eq_hint = [&](size_t binding)
      -> std::optional<std::pair<size_t, const Value*>> {
    for (const QueryPlan::PushedFilter& filter : plan.pushed()) {
      if (filter.binding != binding) continue;
      if (auto hint = FindEqLiteral(filter.conjunct,
                                    *binding_infos[binding].schema)) {
        return hint;
      }
    }
    return std::nullopt;
  };

  std::vector<Relation> relations;
  relations.reserve(stmt.from.size());
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    auto hint = eq_hint(i);
    if (hint) {
      SOPR_ASSIGN_OR_RETURN(
          Relation rel,
          resolver_->ResolveEq(stmt.from[i], hint->first, *hint->second));
      relations.push_back(std::move(rel));
    } else {
      SOPR_ASSIGN_OR_RETURN(Relation rel, resolver_->Resolve(stmt.from[i]));
      relations.push_back(std::move(rel));
    }
  }

  Scope scope(outer);
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    SOPR_RETURN_NOT_OK(
        scope.AddBinding(stmt.from[i].binding_name(), relations[i].schema));
  }

  // 1. Pushed filters: shrink each relation before joining.
  for (const QueryPlan::PushedFilter& filter : plan.pushed()) {
    Relation& rel = relations[filter.binding];
    std::vector<size_t> keep;
    SOPR_RETURN_NOT_OK(FilterPositions(
        {filter.conjunct}, &scope, rel.rows.size(),
        [&](size_t i, size_t b) -> const Row* {
          return b == filter.binding ? &rel.rows[i] : nullptr;
        },
        &keep));
    KeepPositions(keep, &rel.rows);
    KeepPositions(keep, &rel.handles);
  }

  // 2. Join in greedy left-deep order; hash join where edges exist.
  std::vector<size_t> order = plan.JoinOrder(relations.size());
  std::vector<Combo> combos;
  std::vector<size_t> joined;
  for (size_t step = 0; step < order.size(); ++step) {
    SOPR_RETURN_NOT_OK(CheckCancel("join step"));
    size_t next = order[step];
    const Relation& rel = relations[next];
    if (step == 0) {
      combos.reserve(rel.rows.size());
      for (size_t r = 0; r < rel.rows.size(); ++r) {
        Combo combo;
        combo.rows.assign(relations.size(), nullptr);
        combo.row_indices.assign(relations.size(), 0);
        combo.rows[next] = &rel.rows[r];
        combo.row_indices[next] = r;
        combos.push_back(std::move(combo));
      }
      joined.push_back(next);
      continue;
    }
    std::vector<QueryPlan::JoinEdge> edges = plan.EdgesTo(joined, next);
    std::vector<Combo> next_combos;
    if (!edges.empty() && options_.batch) {
      // Build/probe hash join on `next` keyed by its edge columns. An
      // armed exec.hashjoin.build failure aborts the statement before
      // any build work; a KILL delivered while parked here is observed
      // at the next cancellation check (batch boundaries inside Build).
      SOPR_FAILPOINT_RETURN("exec.hashjoin.build");
      std::vector<size_t> key_cols;
      key_cols.reserve(edges.size());
      for (const QueryPlan::JoinEdge& edge : edges) {
        key_cols.push_back(edge.right_column);
      }
      exec::JoinHashTable table;
      SOPR_ASSIGN_OR_RETURN(bool built,
                            table.Build(rel.rows, std::move(key_cols),
                                        options_.max_hash_build_rows));
      size_t probed = 0;
      std::vector<const Value*> probe_key(edges.size());
      std::vector<uint32_t> matches;
      for (const Combo& combo : combos) {
        if (probed++ % kCancelCheckBatch == 0) {
          SOPR_RETURN_NOT_OK(CheckCancel("hash join probe"));
        }
        if (built) {
          for (size_t k = 0; k < edges.size(); ++k) {
            probe_key[k] =
                &combo.rows[edges[k].left_binding]->at(edges[k].left_column);
          }
          matches.clear();
          table.Probe(probe_key, &matches);
          for (uint32_t r : matches) {
            Combo out = combo;
            out.rows[next] = &rel.rows[r];
            out.row_indices[next] = r;
            next_combos.push_back(std::move(out));
          }
        } else {
          // Build side exceeded the memory budget: nested-loop probe
          // applying the edge predicates directly (same join semantics,
          // bounded memory — docs/EXECUTION.md).
          for (size_t r = 0; r < rel.rows.size(); ++r) {
            if (r % kCancelCheckBatch == kCancelCheckBatch - 1) {
              SOPR_RETURN_NOT_OK(CheckCancel("nested loop join"));
            }
            bool match = true;
            for (const QueryPlan::JoinEdge& edge : edges) {
              if (combo.rows[edge.left_binding]
                      ->at(edge.left_column)
                      .SqlEquals(rel.rows[r].at(edge.right_column)) !=
                  TriBool::kTrue) {
                match = false;
                break;
              }
            }
            if (!match) continue;
            Combo out = combo;
            out.rows[next] = &rel.rows[r];
            out.row_indices[next] = r;
            next_combos.push_back(std::move(out));
          }
        }
      }
    } else if (!edges.empty()) {
      // Hash join: build on `next` keyed by its edge columns (numerics
      // normalized to double so 2 joins with 2.0); NULL keys never match.
      auto normalize = [](const Value& v) {
        return v.IsNumeric() ? Value::Double(v.NumericAsDouble()) : v;
      };
      std::map<Row, std::vector<size_t>> hash;
      for (size_t r = 0; r < rel.rows.size(); ++r) {
        Row key;
        bool has_null = false;
        for (const QueryPlan::JoinEdge& edge : edges) {
          const Value& v = rel.rows[r].at(edge.right_column);
          if (v.is_null()) has_null = true;
          key.Append(normalize(v));
        }
        if (!has_null) hash[std::move(key)].push_back(r);
      }
      for (const Combo& combo : combos) {
        Row key;
        bool has_null = false;
        for (const QueryPlan::JoinEdge& edge : edges) {
          const Value& v = combo.rows[edge.left_binding]->at(edge.left_column);
          if (v.is_null()) has_null = true;
          key.Append(normalize(v));
        }
        if (has_null) continue;
        auto it = hash.find(key);
        if (it == hash.end()) continue;
        for (size_t r : it->second) {
          Combo out = combo;
          out.rows[next] = &rel.rows[r];
          out.row_indices[next] = r;
          next_combos.push_back(std::move(out));
        }
      }
    } else {
      // Cross product with the next relation.
      next_combos.reserve(combos.size() * rel.rows.size());
      for (const Combo& combo : combos) {
        for (size_t r = 0; r < rel.rows.size(); ++r) {
          if (next_combos.size() % kCancelCheckBatch == 0) {
            SOPR_RETURN_NOT_OK(CheckCancel("cross product"));
          }
          Combo out = combo;
          out.rows[next] = &rel.rows[r];
          out.row_indices[next] = r;
          next_combos.push_back(std::move(out));
        }
      }
    }
    combos = std::move(next_combos);
    joined.push_back(next);
  }

  // 3. Residual conjuncts over full combos.
  if (!residual.empty()) {
    std::vector<size_t> keep;
    SOPR_RETURN_NOT_OK(FilterPositions(
        residual, &scope, combos.size(),
        [&combos](size_t i, size_t b) { return combos[i].rows[b]; }, &keep));
    KeepPositions(keep, &combos);
  }

  // 4. §5.1 select tracking over the surviving combos.
  if (selected != nullptr) {
    for (const Combo& combo : combos) {
      for (size_t i = 0; i < relations.size(); ++i) {
        if (stmt.from[i].kind == TableRefKind::kBase &&
            relations[i].handles[combo.row_indices[i]] != kInvalidHandle) {
          selected->push_back(
              SelectedTuple{ToLower(stmt.from[i].table),
                            relations[i].handles[combo.row_indices[i]]});
        }
      }
    }
  }

  QueryResult result;
  std::vector<Row> order_keys;  // parallel to result.rows
  if (NeedsAggregation(stmt)) {
    SOPR_ASSIGN_OR_RETURN(result, ExecuteAggregateSelect(stmt, relations,
                                                         &scope, combos,
                                                         &order_keys));
  } else {
    SOPR_ASSIGN_OR_RETURN(result, ExecutePlainSelect(stmt, relations, &scope,
                                                     combos, &order_keys));
  }
  SOPR_RETURN_NOT_OK(ApplyOrderAndDistinct(stmt, &result, &order_keys));
  return result;
}

Result<QueryResult> Executor::ExecutePlainSelect(
    const SelectStmt& stmt, const std::vector<Relation>& relations,
    Scope* scope, const std::vector<Combo>& combos,
    std::vector<Row>* order_keys) {
  QueryResult result;

  // Output column names.
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (const Relation& rel : relations) {
        for (const ColumnDef& col : rel.schema->columns()) {
          result.columns.push_back(col.name);
        }
      }
    } else {
      result.columns.push_back(ItemName(item));
    }
  }

  EvalContext ctx;
  ctx.runner = this;
  for (const Combo& combo : combos) {
    for (size_t i = 0; i < combo.rows.size(); ++i) {
      scope->SetRow(i, combo.rows[i]);
    }
    Row out;
    for (const SelectItem& item : stmt.items) {
      if (item.star) {
        for (const Row* row : combo.rows) {
          for (size_t c = 0; c < row->size(); ++c) out.Append(row->at(c));
        }
      } else {
        SOPR_ASSIGN_OR_RETURN(Value v, Evaluate(*item.expr, *scope, ctx));
        out.Append(std::move(v));
      }
    }
    result.rows.push_back(std::move(out));
    if (!stmt.order_by.empty()) {
      Row keys;
      for (const OrderByItem& item : stmt.order_by) {
        SOPR_ASSIGN_OR_RETURN(Value v, Evaluate(*item.expr, *scope, ctx));
        keys.Append(std::move(v));
      }
      order_keys->push_back(std::move(keys));
    }
  }
  return result;
}

Result<QueryResult> Executor::ExecuteAggregateSelect(
    const SelectStmt& stmt, const std::vector<Relation>& relations,
    Scope* scope, const std::vector<Combo>& combos,
    std::vector<Row>* order_keys) {
  (void)relations;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      return Status::TypeError("'*' cannot be used with aggregation");
    }
    if (!IsLegalGroupExpr(*item.expr, stmt.group_by)) {
      return Status::TypeError("select item " + item.expr->ToString() +
                               " must be an aggregate or appear in group by");
    }
  }

  EvalContext ctx;
  ctx.runner = this;

  // Group combos by group-by key (whole-row structural comparison).
  std::map<Row, std::vector<const Combo*>> groups;
  if (stmt.group_by.empty()) {
    groups.emplace(Row(), std::vector<const Combo*>());
  }
  for (const Combo& combo : combos) {
    for (size_t i = 0; i < combo.rows.size(); ++i) {
      scope->SetRow(i, combo.rows[i]);
    }
    Row key;
    for (const ExprPtr& g : stmt.group_by) {
      SOPR_ASSIGN_OR_RETURN(Value v, Evaluate(*g, *scope, ctx));
      key.Append(std::move(v));
    }
    groups[key].push_back(&combo);
  }

  // Aggregate nodes needed across items, HAVING, and ORDER BY.
  std::vector<const AggregateExpr*> agg_nodes;
  for (const SelectItem& item : stmt.items) {
    CollectAggregates(*item.expr, &agg_nodes);
  }
  if (stmt.having != nullptr) CollectAggregates(*stmt.having, &agg_nodes);
  for (const OrderByItem& item : stmt.order_by) {
    CollectAggregates(*item.expr, &agg_nodes);
  }

  QueryResult result;
  for (const SelectItem& item : stmt.items) {
    result.columns.push_back(ItemName(item));
  }

  for (const auto& [key, group] : groups) {
    (void)key;
    // Compute every aggregate over the group.
    std::map<const Expr*, Value> agg_values;
    for (const AggregateExpr* node : agg_nodes) {
      AggregateAccumulator acc(node->func, node->distinct);
      for (const Combo* combo : group) {
        for (size_t i = 0; i < combo->rows.size(); ++i) {
          scope->SetRow(i, combo->rows[i]);
        }
        if (node->argument == nullptr) {
          SOPR_RETURN_NOT_OK(acc.Add(Value::Bool(true)));  // count(*)
        } else {
          EvalContext arg_ctx;
          arg_ctx.runner = this;
          SOPR_ASSIGN_OR_RETURN(Value v,
                                Evaluate(*node->argument, *scope, arg_ctx));
          SOPR_RETURN_NOT_OK(acc.Add(v));
        }
      }
      SOPR_ASSIGN_OR_RETURN(Value final_value, acc.Finish());
      agg_values.emplace(node, std::move(final_value));
    }

    // Bind the first combo (if any) for group-by column references.
    if (!group.empty()) {
      for (size_t i = 0; i < group[0]->rows.size(); ++i) {
        scope->SetRow(i, group[0]->rows[i]);
      }
    } else {
      for (size_t i = 0; i < scope->num_bindings(); ++i) {
        scope->SetRow(i, nullptr);
      }
    }

    EvalContext group_ctx;
    group_ctx.runner = this;
    group_ctx.aggregates = &agg_values;

    if (stmt.having != nullptr) {
      SOPR_ASSIGN_OR_RETURN(TriBool t,
                            EvaluatePredicate(*stmt.having, *scope, group_ctx));
      if (t != TriBool::kTrue) continue;
    }

    Row out;
    for (const SelectItem& item : stmt.items) {
      SOPR_ASSIGN_OR_RETURN(Value v, Evaluate(*item.expr, *scope, group_ctx));
      out.Append(std::move(v));
    }
    result.rows.push_back(std::move(out));
    if (!stmt.order_by.empty()) {
      Row keys;
      for (const OrderByItem& item : stmt.order_by) {
        SOPR_ASSIGN_OR_RETURN(Value v,
                              Evaluate(*item.expr, *scope, group_ctx));
        keys.Append(std::move(v));
      }
      order_keys->push_back(std::move(keys));
    }
  }
  return result;
}

Status Executor::ApplyOrderAndDistinct(const SelectStmt& stmt,
                                       QueryResult* result,
                                       std::vector<Row>* order_keys) {
  // Sort first (keys are parallel to rows), then dedupe; a stable sort
  // keeps the first occurrence deterministic.
  if (!stmt.order_by.empty()) {
    struct Keyed {
      Row keys;
      Row row;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(result->rows.size());
    for (size_t i = 0; i < result->rows.size(); ++i) {
      keyed.push_back(
          Keyed{std::move((*order_keys)[i]), std::move(result->rows[i])});
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const Keyed& a, const Keyed& b) {
                       for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                         const Value& va = a.keys.at(i);
                         const Value& vb = b.keys.at(i);
                         bool less = va.StructurallyLess(vb);
                         bool greater = vb.StructurallyLess(va);
                         if (!less && !greater) continue;
                         return stmt.order_by[i].ascending ? less : greater;
                       }
                       return false;
                     });
    result->rows.clear();
    for (Keyed& k : keyed) result->rows.push_back(std::move(k.row));
  }

  if (stmt.distinct) {
    std::vector<Row> unique;
    for (Row& row : result->rows) {
      bool seen = false;
      for (const Row& u : unique) {
        if (u == row) {
          seen = true;
          break;
        }
      }
      if (!seen) unique.push_back(std::move(row));
    }
    result->rows = std::move(unique);
  }
  return Status::OK();
}

Result<Relation> Executor::ReadTargets(const Table& table,
                                       const std::string& table_name,
                                       const Expr* where) {
  std::optional<std::pair<size_t, const Value*>> eq;
  if (options_.optimize) eq = FindEqLiteral(where, table.schema());
  return ReadTable(*db_, table, table_name, kHeadLsn, true, eq);
}

Row Executor::CoerceRow(Row row, const TableSchema& schema) {
  for (size_t i = 0; i < row.size() && i < schema.num_columns(); ++i) {
    if (schema.columns()[i].type == ValueType::kDouble &&
        row.at(i).type() == ValueType::kInt) {
      row.at(i) = Value::Double(static_cast<double>(row.at(i).AsInt()));
    }
  }
  return row;
}

Result<DmlEffect> Executor::ExecuteInsert(const InsertStmt& stmt) {
  SOPR_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(stmt.table));
  const TableSchema& schema = table->schema();

  DmlEffect effect;
  effect.table = ToLower(stmt.table);

  std::vector<Row> to_insert;
  if (stmt.select != nullptr) {
    SOPR_ASSIGN_OR_RETURN(QueryResult result, ExecuteSelect(*stmt.select));
    to_insert = std::move(result.rows);
  } else {
    Scope scope;  // no row bindings: VALUES may still use scalar subqueries
    EvalContext ctx;
    ctx.runner = this;
    for (const std::vector<ExprPtr>& row_exprs : stmt.rows) {
      Row row;
      for (const ExprPtr& e : row_exprs) {
        SOPR_ASSIGN_OR_RETURN(Value v, Evaluate(*e, scope, ctx));
        row.Append(std::move(v));
      }
      to_insert.push_back(std::move(row));
    }
  }

  for (Row& row : to_insert) {
    SOPR_ASSIGN_OR_RETURN(
        TupleHandle handle,
        db_->InsertRow(stmt.table, CoerceRow(std::move(row), schema)));
    effect.inserted.push_back(handle);
  }
  return effect;
}

Result<DmlEffect> Executor::ExecuteDelete(const DeleteStmt& stmt) {
  SOPR_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(stmt.table));
  const TableSchema& schema = table->schema();

  DmlEffect effect;
  effect.table = ToLower(stmt.table);

  // Read the targets, then evaluate the predicate against the
  // pre-statement state. A `column = literal` conjunct with an index
  // narrows the read; the full predicate is still evaluated per row.
  SOPR_ASSIGN_OR_RETURN(Relation targets,
                        ReadTargets(*table, stmt.table, stmt.where.get()));
  Scope scope;
  SOPR_RETURN_NOT_OK(scope.AddBinding(ToLower(stmt.table), &schema));
  std::vector<size_t> matches;
  SOPR_RETURN_NOT_OK(MatchTargets(stmt.where.get(), &scope, targets, &matches));
  for (size_t r : matches) {
    effect.deleted.emplace_back(targets.handles[r], std::move(targets.rows[r]));
  }

  for (const auto& [handle, row] : effect.deleted) {
    (void)row;
    SOPR_RETURN_NOT_OK(db_->DeleteRow(stmt.table, handle));
  }
  return effect;
}

Result<DmlEffect> Executor::ExecuteUpdate(const UpdateStmt& stmt) {
  SOPR_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(stmt.table));
  const TableSchema& schema = table->schema();

  DmlEffect effect;
  effect.table = ToLower(stmt.table);

  // Resolve assigned column indices once.
  std::vector<size_t> assigned_cols;
  assigned_cols.reserve(stmt.assignments.size());
  for (const UpdateStmt::Assignment& a : stmt.assignments) {
    auto idx = schema.FindColumn(a.column);
    if (!idx) {
      return Status::CatalogError("no column " + a.column + " in table " +
                                  stmt.table);
    }
    assigned_cols.push_back(*idx);
  }

  SOPR_ASSIGN_OR_RETURN(Relation targets,
                        ReadTargets(*table, stmt.table, stmt.where.get()));
  Scope scope;
  SOPR_RETURN_NOT_OK(scope.AddBinding(ToLower(stmt.table), &schema));
  EvalContext ctx;
  ctx.runner = this;

  // Evaluates the assignments over one matched target and records the
  // pre-image; the new rows are applied once every target is known.
  std::vector<std::pair<TupleHandle, Row>> new_rows;
  auto assign = [&](size_t r) -> Status {
    Row& old_row = targets.rows[r];
    scope.SetRow(0, &old_row);
    Row new_row = old_row;
    for (size_t i = 0; i < stmt.assignments.size(); ++i) {
      SOPR_ASSIGN_OR_RETURN(
          Value v, Evaluate(*stmt.assignments[i].value, scope, ctx));
      new_row.at(assigned_cols[i]) = std::move(v);
    }
    DmlEffect::UpdatedTuple updated;
    updated.handle = targets.handles[r];
    updated.columns = assigned_cols;
    updated.old_row = std::move(old_row);
    effect.updated.push_back(std::move(updated));
    new_rows.emplace_back(targets.handles[r],
                          CoerceRow(std::move(new_row), schema));
    return Status::OK();
  };

  bool matched = false;
  if (stmt.where != nullptr && options_.batch) {
    // Batch: match every target first, then assign. With a clean
    // predicate stage the assignments visit the same rows in the same
    // order as the row loop, so any assignment error already matches it.
    std::vector<size_t> matches;
    Status s = MatchTargets(stmt.where.get(), &scope, targets, &matches);
    if (s.ok()) {
      for (size_t r : matches) SOPR_RETURN_NOT_OK(assign(r));
      matched = true;
    } else if (!exec::IsRowOrderError(s.code())) {
      return s;
    }
    // A row-order-class error in the predicate stage falls through to the
    // row loop: it may hit an assignment error on an earlier row first,
    // and that is the authoritative outcome.
  }
  // Row at a time: predicate, then assignment, per row.
  for (size_t r = 0; r < targets.rows.size() && !matched; ++r) {
    if (r % kCancelCheckBatch == 0) {
      SOPR_RETURN_NOT_OK(CheckCancel("update scan"));
    }
    if (stmt.where != nullptr) {
      scope.SetRow(0, &targets.rows[r]);
      SOPR_ASSIGN_OR_RETURN(TriBool t,
                            EvaluatePredicate(*stmt.where, scope, ctx));
      if (t != TriBool::kTrue) continue;
    }
    SOPR_RETURN_NOT_OK(assign(r));
  }

  for (auto& [handle, new_row] : new_rows) {
    SOPR_RETURN_NOT_OK(db_->UpdateRow(stmt.table, handle, std::move(new_row)));
  }
  return effect;
}

Result<DmlEffect> Executor::ExecuteDml(const Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::kInsert:
      return ExecuteInsert(static_cast<const InsertStmt&>(stmt));
    case StmtKind::kDelete:
      return ExecuteDelete(static_cast<const DeleteStmt&>(stmt));
    case StmtKind::kUpdate:
      return ExecuteUpdate(static_cast<const UpdateStmt&>(stmt));
    default:
      return Status::InvalidArgument("not a DML statement: " +
                                     stmt.ToString());
  }
}

}  // namespace sopr
