#include "expr/evaluator.h"

namespace sopr {

Status Scope::AddBinding(std::string name, const TableSchema* schema) {
  for (const Binding& b : bindings_) {
    if (b.name == name) {
      return Status::CatalogError("duplicate table binding: " + name +
                                  " (use an alias)");
    }
  }
  bindings_.push_back(Binding{std::move(name), schema, nullptr});
  return Status::OK();
}

Result<Scope::Resolved> Scope::ResolveColumn(const std::string& qualifier,
                                             const std::string& column) const {
  if (!qualifier.empty()) {
    for (const Binding& b : bindings_) {
      if (b.name == qualifier) {
        auto idx = b.schema->FindColumn(column);
        if (!idx) {
          return Status::CatalogError("no column " + column + " in " +
                                      qualifier);
        }
        return Resolved{&b, *idx};
      }
    }
    if (parent_ != nullptr) return parent_->ResolveColumn(qualifier, column);
    return Status::CatalogError("unknown table or alias: " + qualifier);
  }

  const Binding* found = nullptr;
  size_t found_col = 0;
  for (const Binding& b : bindings_) {
    auto idx = b.schema->FindColumn(column);
    if (idx) {
      if (found != nullptr) {
        return Status::CatalogError("ambiguous column: " + column);
      }
      found = &b;
      found_col = *idx;
    }
  }
  if (found != nullptr) return Resolved{found, found_col};
  if (parent_ != nullptr) return parent_->ResolveColumn(qualifier, column);
  return Status::CatalogError("unknown column: " + column);
}

namespace {

// Value kernels of the evaluator. The batch engine's columnar kernels
// (src/exec/kernels.h) reproduce these lane-exactly; everything else it
// evaluates comes back through Evaluate/EvaluatePredicate
// (docs/EXECUTION.md).

/// Boolean/NULL encoding of a truth value: SQL `unknown` is NULL.
Value TriBoolToValue(TriBool t) {
  switch (t) {
    case TriBool::kTrue:
      return Value::Bool(true);
    case TriBool::kFalse:
      return Value::Bool(false);
    case TriBool::kUnknown:
      return Value::Null();
  }
  return Value::Null();
}

/// Interprets a value as a predicate result; non-boolean non-null values
/// are a type error.
Result<TriBool> PredicateTriFromValue(const Value& v) {
  if (v.is_null()) return TriBool::kUnknown;
  if (v.type() == ValueType::kBool) {
    return v.AsBool() ? TriBool::kTrue : TriBool::kFalse;
  }
  return Status::TypeError("expected a boolean predicate, got " +
                           std::string(ValueTypeName(v.type())) + " value " +
                           v.ToString());
}

/// The non-logical binary operators (arithmetic and comparisons) as a
/// pure value kernel. kAnd/kOr are not handled here — they short-circuit
/// in Evaluate's control flow.
Result<Value> EvaluateBinaryValue(BinaryOp op, const Value& left,
                                  const Value& right) {
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Add(left, right);
    case BinaryOp::kSub:
      return Value::Subtract(left, right);
    case BinaryOp::kMul:
      return Value::Multiply(left, right);
    case BinaryOp::kDiv:
      return Value::Divide(left, right);
    case BinaryOp::kEq:
      return TriBoolToValue(left.SqlEquals(right));
    case BinaryOp::kNe:
      return TriBoolToValue(TriNot(left.SqlEquals(right)));
    case BinaryOp::kLt:
      return TriBoolToValue(left.SqlLess(right));
    case BinaryOp::kGe:
      return TriBoolToValue(TriNot(left.SqlLess(right)));
    case BinaryOp::kGt:
      return TriBoolToValue(right.SqlLess(left));
    case BinaryOp::kLe:
      return TriBoolToValue(TriNot(right.SqlLess(left)));
    default:
      return Status::Internal("not a value binary operator");
  }
}

/// SQL membership test (`needle IN (haystack...)`) with three-valued
/// logic: any kUnknown comparison taints a miss into kUnknown.
TriBool MembershipTri(const Value& needle, const std::vector<Value>& haystack) {
  bool saw_unknown = false;
  for (const Value& candidate : haystack) {
    TriBool eq = needle.SqlEquals(candidate);
    if (eq == TriBool::kTrue) return TriBool::kTrue;
    if (eq == TriBool::kUnknown) saw_unknown = true;
  }
  return saw_unknown ? TriBool::kUnknown : TriBool::kFalse;
}

Result<Value> EvaluateScalarSubquery(const SelectStmt& select,
                                     const Scope& scope, EvalContext& ctx) {
  if (ctx.runner == nullptr) {
    return Status::Internal("no subquery runner in this context");
  }
  SOPR_ASSIGN_OR_RETURN(QueryResult result,
                        ctx.runner->RunSubquery(select, &scope));
  if (result.columns.size() != 1) {
    return Status::ExecutionError(
        "scalar subquery must produce exactly one column, got " +
        std::to_string(result.columns.size()));
  }
  if (result.rows.size() > 1) {
    return Status::ExecutionError(
        "scalar subquery produced more than one row");
  }
  if (result.rows.empty()) return Value::Null();
  return result.rows[0].at(0);
}

}  // namespace

Result<Value> Evaluate(const Expr& expr, const Scope& scope,
                       EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value;

    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      SOPR_ASSIGN_OR_RETURN(Scope::Resolved resolved,
                            scope.ResolveColumn(ref.qualifier, ref.column));
      if (resolved.binding->row == nullptr) {
        return Status::Internal("column " + ref.ToString() +
                                " referenced outside row context");
      }
      return resolved.binding->row->at(resolved.column);
    }

    case ExprKind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      SOPR_ASSIGN_OR_RETURN(Value operand,
                            Evaluate(*unary.operand, scope, ctx));
      if (unary.op == UnaryOp::kNeg) return Value::Negate(operand);
      SOPR_ASSIGN_OR_RETURN(TriBool t, PredicateTriFromValue(operand));
      return TriBoolToValue(TriNot(t));
    }

    case ExprKind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      // Short-circuit logical operators with three-valued logic.
      if (binary.op == BinaryOp::kAnd || binary.op == BinaryOp::kOr) {
        SOPR_ASSIGN_OR_RETURN(Value lv, Evaluate(*binary.left, scope, ctx));
        SOPR_ASSIGN_OR_RETURN(TriBool lt, PredicateTriFromValue(lv));
        if (binary.op == BinaryOp::kAnd && lt == TriBool::kFalse) {
          return Value::Bool(false);
        }
        if (binary.op == BinaryOp::kOr && lt == TriBool::kTrue) {
          return Value::Bool(true);
        }
        SOPR_ASSIGN_OR_RETURN(Value rv, Evaluate(*binary.right, scope, ctx));
        SOPR_ASSIGN_OR_RETURN(TriBool rt, PredicateTriFromValue(rv));
        return TriBoolToValue(binary.op == BinaryOp::kAnd ? TriAnd(lt, rt)
                                                          : TriOr(lt, rt));
      }
      SOPR_ASSIGN_OR_RETURN(Value left, Evaluate(*binary.left, scope, ctx));
      SOPR_ASSIGN_OR_RETURN(Value right, Evaluate(*binary.right, scope, ctx));
      return EvaluateBinaryValue(binary.op, left, right);
    }

    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      SOPR_ASSIGN_OR_RETURN(Value needle, Evaluate(*in.operand, scope, ctx));
      std::vector<Value> items;
      items.reserve(in.items.size());
      for (const ExprPtr& item : in.items) {
        SOPR_ASSIGN_OR_RETURN(Value v, Evaluate(*item, scope, ctx));
        items.push_back(std::move(v));
      }
      TriBool t = MembershipTri(needle, items);
      return TriBoolToValue(in.negated ? TriNot(t) : t);
    }

    case ExprKind::kInSubquery: {
      const auto& in = static_cast<const InSubqueryExpr&>(expr);
      SOPR_ASSIGN_OR_RETURN(Value needle, Evaluate(*in.operand, scope, ctx));
      if (ctx.runner == nullptr) {
        return Status::Internal("no subquery runner in this context");
      }
      SOPR_ASSIGN_OR_RETURN(QueryResult result,
                            ctx.runner->RunSubquery(*in.subquery, &scope));
      if (result.columns.size() != 1) {
        return Status::ExecutionError(
            "IN subquery must produce exactly one column");
      }
      std::vector<Value> items;
      items.reserve(result.rows.size());
      for (const Row& row : result.rows) items.push_back(row.at(0));
      TriBool t = MembershipTri(needle, items);
      return TriBoolToValue(in.negated ? TriNot(t) : t);
    }

    case ExprKind::kExists: {
      const auto& exists = static_cast<const ExistsExpr&>(expr);
      if (ctx.runner == nullptr) {
        return Status::Internal("no subquery runner in this context");
      }
      SOPR_ASSIGN_OR_RETURN(QueryResult result,
                            ctx.runner->RunSubquery(*exists.subquery, &scope));
      return Value::Bool(!result.rows.empty());
    }

    case ExprKind::kScalarSubquery: {
      const auto& sub = static_cast<const ScalarSubqueryExpr&>(expr);
      return EvaluateScalarSubquery(*sub.subquery, scope, ctx);
    }

    case ExprKind::kAggregate: {
      if (ctx.aggregates != nullptr) {
        auto it = ctx.aggregates->find(&expr);
        if (it != ctx.aggregates->end()) return it->second;
      }
      return Status::TypeError("aggregate " + expr.ToString() +
                               " used outside an aggregation context");
    }

    case ExprKind::kIsNull: {
      const auto& isnull = static_cast<const IsNullExpr&>(expr);
      SOPR_ASSIGN_OR_RETURN(Value v, Evaluate(*isnull.operand, scope, ctx));
      bool null = v.is_null();
      return Value::Bool(isnull.negated ? !null : null);
    }

    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(expr);
      SOPR_ASSIGN_OR_RETURN(Value v, Evaluate(*between.operand, scope, ctx));
      SOPR_ASSIGN_OR_RETURN(Value lo, Evaluate(*between.low, scope, ctx));
      SOPR_ASSIGN_OR_RETURN(Value hi, Evaluate(*between.high, scope, ctx));
      // v between lo and hi  ≡  lo <= v and v <= hi.
      TriBool ge = TriNot(v.SqlLess(lo));
      TriBool le = TriNot(hi.SqlLess(v));
      TriBool t = TriAnd(ge, le);
      return TriBoolToValue(between.negated ? TriNot(t) : t);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<TriBool> EvaluatePredicate(const Expr& expr, const Scope& scope,
                                  EvalContext& ctx) {
  SOPR_ASSIGN_OR_RETURN(Value v, Evaluate(expr, scope, ctx));
  return PredicateTriFromValue(v);
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kAggregate) return true;
  switch (expr.kind) {
    case ExprKind::kUnary:
      return ContainsAggregate(*static_cast<const UnaryExpr&>(expr).operand);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return ContainsAggregate(*b.left) || ContainsAggregate(*b.right);
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      if (ContainsAggregate(*in.operand)) return true;
      for (const ExprPtr& item : in.items) {
        if (ContainsAggregate(*item)) return true;
      }
      return false;
    }
    case ExprKind::kInSubquery:
      return ContainsAggregate(
          *static_cast<const InSubqueryExpr&>(expr).operand);
    case ExprKind::kIsNull:
      return ContainsAggregate(*static_cast<const IsNullExpr&>(expr).operand);
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(expr);
      return ContainsAggregate(*b.operand) || ContainsAggregate(*b.low) ||
             ContainsAggregate(*b.high);
    }
    default:
      return false;
  }
}

void CollectAggregates(const Expr& expr,
                       std::vector<const AggregateExpr*>* out) {
  switch (expr.kind) {
    case ExprKind::kAggregate:
      out->push_back(static_cast<const AggregateExpr*>(&expr));
      return;
    case ExprKind::kUnary:
      CollectAggregates(*static_cast<const UnaryExpr&>(expr).operand, out);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      CollectAggregates(*b.left, out);
      CollectAggregates(*b.right, out);
      return;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      CollectAggregates(*in.operand, out);
      for (const ExprPtr& item : in.items) CollectAggregates(*item, out);
      return;
    }
    case ExprKind::kInSubquery:
      CollectAggregates(*static_cast<const InSubqueryExpr&>(expr).operand,
                        out);
      return;
    case ExprKind::kIsNull:
      CollectAggregates(*static_cast<const IsNullExpr&>(expr).operand, out);
      return;
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(expr);
      CollectAggregates(*b.operand, out);
      CollectAggregates(*b.low, out);
      CollectAggregates(*b.high, out);
      return;
    }
    default:
      return;
  }
}

}  // namespace sopr
