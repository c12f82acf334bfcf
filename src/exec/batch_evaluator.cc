#include "exec/batch_evaluator.h"

#include <optional>
#include <utility>

#include "exec/kernels.h"
#include "exec/stats.h"

namespace sopr {
namespace exec {

namespace {

// ---------------------------------------------------------------------------
// Columnar evaluation (docs/EXECUTION.md "The batch model").
//
// A pre-walk (InferTag) statically types each subtree over the decomposed
// columns. Typeable subtrees run the dense kernels of exec/kernels.h;
// every other leaf predicate — subqueries, aggregates, non-decomposed
// columns, string/bool arithmetic, per-lane type divergence — evaluates
// per selected position through the scalar evaluator (ScalarLeaf) over
// the same selection vector, so observable behaviour is identical by
// construction.
// ---------------------------------------------------------------------------

struct BatchCtx {
  Scope* scope;
  EvalContext* ctx;
  const RowBatch* batch;
  const ColumnSet* cols;
};

/// Binds every batch binding of the innermost scope level to the rows at
/// `pos`, for per-position scalar evaluation.
void BindRows(BatchCtx& c, uint32_t pos) {
  for (size_t b = 0; b < c.batch->num_bindings(); ++b) {
    c.scope->SetRow(b, c.batch->row(b, pos));
  }
}

/// Evaluates `e` as a predicate row-at-a-time through the scalar
/// evaluator over the selected positions, stopping at the first error.
Status EvalRowwise(const Expr& e, BatchCtx& c, const SelVec& sel,
                   TriVec* out) {
  out->clear();
  out->reserve(sel.size());
  for (uint32_t pos : sel) {
    BindRows(c, pos);
    auto t = EvaluatePredicate(e, *c.scope, *c.ctx);
    if (!t.ok()) return t.status();
    out->push_back(t.value());
  }
  return Status::OK();
}

/// Resolution of a column ref against the batch: either one of the
/// batch's bindings (gather per position) or an outer-scope binding
/// (one row, constant across the batch).
Status ResolveRef(const ColumnRefExpr& ref, BatchCtx& c, bool* in_batch,
                  size_t* binding, size_t* column, const Row** outer_row) {
  auto resolved = c.scope->ResolveColumn(ref.qualifier, ref.column);
  if (!resolved.ok()) return resolved.status();
  *column = resolved.value().column;
  const Binding* b = resolved.value().binding;
  for (size_t i = 0; i < c.scope->num_bindings(); ++i) {
    if (&c.scope->binding(i) == b) {
      *in_batch = true;
      *binding = i;
      return Status::OK();
    }
  }
  *in_batch = false;
  *outer_row = b->row;
  return Status::OK();
}

/// The authoritative row-order re-run after an evaluation-class error.
Status ScalarRerun(const Expr& expr, BatchCtx& c, const SelVec& sel,
                   TriVec* out) {
  GlobalStats().scalar_fallbacks.fetch_add(1, std::memory_order_relaxed);
  return EvalRowwise(expr, c, sel, out);
}

/// Static type of a columnar-eligible value expression. kNull = the
/// expression is NULL at every lane (its type never materializes).
enum class CTag { kNum, kStr, kBool, kNull };

std::optional<CTag> TagOfValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return CTag::kNull;
    case ValueType::kInt:
    case ValueType::kDouble:
      return CTag::kNum;
    case ValueType::kString:
      return CTag::kStr;
    case ValueType::kBool:
      return CTag::kBool;
  }
  return std::nullopt;
}

CTag TagOfColumn(ColumnVector::Tag t) {
  switch (t) {
    case ColumnVector::Tag::kInt64:
    case ColumnVector::Tag::kDouble:
      return CTag::kNum;
    case ColumnVector::Tag::kString:
      return CTag::kStr;
    case ColumnVector::Tag::kBool:
      return CTag::kBool;
  }
  return CTag::kNum;
}

bool IsCompareOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// Infers the static columnar type of `e`, or nullopt when the subtree
/// must run as a scalar leaf. Eligibility is conservative: a subtree is
/// eligible only when the kernels provably reproduce the scalar
/// evaluator's per-lane values AND per-lane error behaviour. NOT/AND/OR
/// are always eligible at this level because their operands are
/// evaluated as predicates (CEvalPred), which falls back per-side.
std::optional<CTag> InferTag(const Expr& e, BatchCtx& c) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return TagOfValue(static_cast<const LiteralExpr&>(e).value);

    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      bool in_batch = false;
      size_t binding = 0, column = 0;
      const Row* outer_row = nullptr;
      Status s = ResolveRef(ref, c, &in_batch, &binding, &column,
                            &outer_row);
      if (!s.ok()) return std::nullopt;  // the scalar leaf raises it
      if (in_batch) {
        const ColumnVector* cv = c.cols->Find(binding, column);
        if (cv == nullptr) return std::nullopt;  // not decomposed
        return TagOfColumn(cv->tag());
      }
      if (outer_row == nullptr) return std::nullopt;
      return TagOfValue(outer_row->at(column));  // constant broadcast
    }

    case ExprKind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(e);
      if (unary.op == UnaryOp::kNot) return CTag::kBool;
      auto t = InferTag(*unary.operand, c);
      if (!t.has_value()) return std::nullopt;
      // Negate: NULL propagates; numerics negate; anything else is a
      // per-lane TypeError (scalar leaf).
      if (*t == CTag::kNum || *t == CTag::kNull) return *t;
      return std::nullopt;
    }

    case ExprKind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(e);
      if (binary.op == BinaryOp::kAnd || binary.op == BinaryOp::kOr) {
        return CTag::kBool;
      }
      auto lt = InferTag(*binary.left, c);
      auto rt = InferTag(*binary.right, c);
      if (!lt.has_value() || !rt.has_value()) return std::nullopt;
      if (IsCompareOp(binary.op)) return CTag::kBool;
      // Arithmetic. NULL wins before type checks (Value::Add et al.), so
      // an all-NULL side makes the result all-NULL whatever the other
      // side's type; string concatenation and type errors run as scalar leaves.
      if (*lt == CTag::kNull || *rt == CTag::kNull) return CTag::kNull;
      if (*lt == CTag::kNum && *rt == CTag::kNum) return CTag::kNum;
      return std::nullopt;
    }

    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      if (!InferTag(*in.operand, c).has_value()) return std::nullopt;
      for (const ExprPtr& item : in.items) {
        if (!InferTag(*item, c).has_value()) return std::nullopt;
      }
      return CTag::kBool;
    }

    case ExprKind::kIsNull:
      if (!InferTag(*static_cast<const IsNullExpr&>(e).operand, c)
               .has_value()) {
        return std::nullopt;
      }
      return CTag::kBool;

    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(e);
      if (!InferTag(*b.operand, c).has_value() ||
          !InferTag(*b.low, c).has_value() ||
          !InferTag(*b.high, c).has_value()) {
        return std::nullopt;
      }
      return CTag::kBool;
    }

    case ExprKind::kInSubquery:
    case ExprKind::kExists:
    case ExprKind::kScalarSubquery:
    case ExprKind::kAggregate:
      return std::nullopt;
  }
  return std::nullopt;
}

/// A typed dense slice plus its static tag; kNull means "NULL at every
/// lane" and carries no arrays.
struct CSlice {
  CTag tag = CTag::kNull;
  size_t n = 0;
  NumSlice num;
  StrSlice str;
  BoolSlice bools;
};

const std::vector<uint8_t>& NullMaskOf(const CSlice& s) {
  switch (s.tag) {
    case CTag::kNum:
      return s.num.null;
    case CTag::kStr:
      return s.str.null;
    case CTag::kBool:
    case CTag::kNull:
      return s.bools.null;
  }
  return s.bools.null;
}

Status CEvalValue(const Expr& e, BatchCtx& c, const SelVec& sel, CSlice* out);
Status CEvalPred(const Expr& e, BatchCtx& c, const SelVec& sel, TriVec* out);

/// Leaf predicates without a kernel evaluate per selected position
/// through the scalar evaluator over the same selection vector.
Status ScalarLeaf(const Expr& e, BatchCtx& c, const SelVec& sel,
                  TriVec* out) {
  GlobalStats().pointer_fallback_preds.fetch_add(1, std::memory_order_relaxed);
  return EvalRowwise(e, c, sel, out);
}

void TriVecToBoolSlice(const TriVec& t, CSlice* out) {
  out->tag = CTag::kBool;
  out->n = t.size();
  out->bools.Resize(t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    out->bools.null[i] = t[i] == TriBool::kUnknown;
    out->bools.b[i] = t[i] == TriBool::kTrue;
  }
}

void BroadcastValue(const Value& v, CTag tag, size_t n, CSlice* out) {
  out->tag = tag;
  out->n = n;
  switch (tag) {
    case CTag::kNull:
      return;
    case CTag::kNum:
      BroadcastNum(v, n, &out->num);
      return;
    case CTag::kStr:
      BroadcastStr(v, n, &out->str);
      return;
    case CTag::kBool:
      BroadcastBool(v, n, &out->bools);
      return;
  }
}

/// Dispatches a comparison over two evaluated slices. Type-mismatched or
/// all-NULL operands can never decide (SqlEquals/SqlLess return kUnknown
/// for every such lane).
void CmpSlices(BinaryOp op, const CSlice& a, const CSlice& b, size_t n,
               TriVec* out) {
  if (a.tag == CTag::kNull || b.tag == CTag::kNull || a.tag != b.tag) {
    FillUnknown(n, out);
    return;
  }
  switch (a.tag) {
    case CTag::kNum:
      CmpNum(op, a.num, b.num, out);
      return;
    case CTag::kStr:
      CmpStr(op, a.str, b.str, out);
      return;
    case CTag::kBool:
      CmpBool(op, a.bools, b.bools, out);
      return;
    case CTag::kNull:
      return;  // unreachable
  }
}

Status CCompare(const BinaryExpr& binary, BatchCtx& c, const SelVec& sel,
                TriVec* out) {
  CSlice a, b;
  SOPR_RETURN_NOT_OK(CEvalValue(*binary.left, c, sel, &a));
  SOPR_RETURN_NOT_OK(CEvalValue(*binary.right, c, sel, &b));
  CmpSlices(binary.op, a, b, sel.size(), out);
  return Status::OK();
}

/// v BETWEEN lo AND hi ≡ TriAnd(TriNot(v < lo), TriNot(hi < v)) — the
/// exact composition the scalar evaluator uses, built from the kGe/kLe
/// kernels (which implement those TriNot forms, NaN-exactly).
Status CBetween(const BetweenExpr& be, BatchCtx& c, const SelVec& sel,
                TriVec* out) {
  const size_t n = sel.size();
  CSlice v, lo, hi;
  SOPR_RETURN_NOT_OK(CEvalValue(*be.operand, c, sel, &v));
  SOPR_RETURN_NOT_OK(CEvalValue(*be.low, c, sel, &lo));
  SOPR_RETURN_NOT_OK(CEvalValue(*be.high, c, sel, &hi));
  TriVec ge, le;
  CmpSlices(BinaryOp::kGe, v, lo, n, &ge);
  CmpSlices(BinaryOp::kLe, v, hi, n, &le);
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    TriBool t = TriAnd(ge[i], le[i]);
    (*out)[i] = be.negated ? TriNot(t) : t;
  }
  return Status::OK();
}

/// IN list as a TriOr fold of equality kernels: any kTrue wins, else any
/// kUnknown, else kFalse — MembershipTri exactly.
Status CInList(const InListExpr& in, BatchCtx& c, const SelVec& sel,
               TriVec* out) {
  GlobalStats().kernel_membership.fetch_add(1, std::memory_order_relaxed);
  const size_t n = sel.size();
  CSlice needle;
  SOPR_RETURN_NOT_OK(CEvalValue(*in.operand, c, sel, &needle));
  out->assign(n, TriBool::kFalse);
  TriVec eq;
  for (const ExprPtr& item : in.items) {
    CSlice iv;
    SOPR_RETURN_NOT_OK(CEvalValue(*item, c, sel, &iv));
    CmpSlices(BinaryOp::kEq, needle, iv, n, &eq);
    for (size_t i = 0; i < n; ++i) (*out)[i] = TriOr((*out)[i], eq[i]);
  }
  if (in.negated) {
    for (size_t i = 0; i < n; ++i) (*out)[i] = TriNot((*out)[i]);
  }
  return Status::OK();
}

/// Short-circuit AND/OR over the batch: the right operand is evaluated
/// only for positions the left operand did not decide, via a narrowed
/// selection vector — the same (row, subexpression) pairs the scalar
/// evaluator visits, operator-at-a-time. Each side independently picks
/// kernels or a scalar leaf through CEvalPred.
Status CEvalLogical(const BinaryExpr& b, BatchCtx& c, const SelVec& sel,
                    TriVec* out) {
  GlobalStats().kernel_logical.fetch_add(1, std::memory_order_relaxed);
  const bool is_and = b.op == BinaryOp::kAnd;
  std::vector<TriBool> lt;
  SOPR_RETURN_NOT_OK(CEvalPred(*b.left, c, sel, &lt));

  SelVec rhs_sel;
  std::vector<uint32_t> rhs_idx;
  for (size_t i = 0; i < sel.size(); ++i) {
    const bool decided =
        is_and ? lt[i] == TriBool::kFalse : lt[i] == TriBool::kTrue;
    if (!decided) {
      rhs_sel.push_back(sel[i]);
      rhs_idx.push_back(static_cast<uint32_t>(i));
    }
  }

  std::vector<TriBool> rt;
  if (!rhs_sel.empty()) {
    SOPR_RETURN_NOT_OK(CEvalPred(*b.right, c, rhs_sel, &rt));
  }

  *out = std::move(lt);
  for (size_t j = 0; j < rhs_idx.size(); ++j) {
    TriBool& slot = (*out)[rhs_idx[j]];
    slot = is_and ? TriAnd(slot, rt[j]) : TriOr(slot, rt[j]);
  }
  return Status::OK();
}

Status CEvalValue(const Expr& e, BatchCtx& c, const SelVec& sel, CSlice* out) {
  const size_t n = sel.size();
  out->n = n;
  switch (e.kind) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(e).value;
      auto tag = TagOfValue(v);
      BroadcastValue(v, *tag, n, out);
      return Status::OK();
    }

    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      bool in_batch = false;
      size_t binding = 0, column = 0;
      const Row* outer_row = nullptr;
      SOPR_RETURN_NOT_OK(
          ResolveRef(ref, c, &in_batch, &binding, &column, &outer_row));
      if (!in_batch) {
        // Outer-scope binding: one row, constant across the batch.
        const Value& v = outer_row->at(column);
        BroadcastValue(v, *TagOfValue(v), n, out);
        return Status::OK();
      }
      const ColumnVector* cv = c.cols->Find(binding, column);
      out->tag = TagOfColumn(cv->tag());
      switch (out->tag) {
        case CTag::kNum:
          GatherNum(*cv, sel, &out->num);
          break;
        case CTag::kStr:
          GatherStr(*cv, sel, &out->str);
          break;
        case CTag::kBool:
          GatherBool(*cv, sel, &out->bools);
          break;
        case CTag::kNull:
          break;  // unreachable: columns always carry a concrete tag
      }
      return Status::OK();
    }

    case ExprKind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(e);
      if (unary.op == UnaryOp::kNeg) {
        CSlice operand;
        SOPR_RETURN_NOT_OK(CEvalValue(*unary.operand, c, sel, &operand));
        if (operand.tag == CTag::kNull) {
          out->tag = CTag::kNull;
          return Status::OK();
        }
        out->tag = CTag::kNum;
        NegNum(operand.num, &out->num);
        return Status::OK();
      }
      TriVec t;
      SOPR_RETURN_NOT_OK(CEvalPred(*unary.operand, c, sel, &t));
      for (size_t i = 0; i < n; ++i) t[i] = TriNot(t[i]);
      TriVecToBoolSlice(t, out);
      return Status::OK();
    }

    case ExprKind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(e);
      if (binary.op == BinaryOp::kAnd || binary.op == BinaryOp::kOr) {
        TriVec t;
        SOPR_RETURN_NOT_OK(CEvalLogical(binary, c, sel, &t));
        TriVecToBoolSlice(t, out);
        return Status::OK();
      }
      if (IsCompareOp(binary.op)) {
        TriVec t;
        SOPR_RETURN_NOT_OK(CCompare(binary, c, sel, &t));
        TriVecToBoolSlice(t, out);
        return Status::OK();
      }
      // Arithmetic. Both operands always evaluate (nested errors must
      // surface) even when an all-NULL side fixes the result.
      CSlice a, b;
      SOPR_RETURN_NOT_OK(CEvalValue(*binary.left, c, sel, &a));
      SOPR_RETURN_NOT_OK(CEvalValue(*binary.right, c, sel, &b));
      if (a.tag == CTag::kNull || b.tag == CTag::kNull) {
        out->tag = CTag::kNull;
        return Status::OK();
      }
      out->tag = CTag::kNum;
      return ArithNum(binary.op, a.num, b.num, &out->num);
    }

    case ExprKind::kInList: {
      TriVec t;
      SOPR_RETURN_NOT_OK(
          CInList(static_cast<const InListExpr&>(e), c, sel, &t));
      TriVecToBoolSlice(t, out);
      return Status::OK();
    }

    case ExprKind::kIsNull: {
      TriVec t;
      SOPR_RETURN_NOT_OK(CEvalPred(e, c, sel, &t));
      TriVecToBoolSlice(t, out);
      return Status::OK();
    }

    case ExprKind::kBetween: {
      TriVec t;
      SOPR_RETURN_NOT_OK(
          CBetween(static_cast<const BetweenExpr&>(e), c, sel, &t));
      TriVecToBoolSlice(t, out);
      return Status::OK();
    }

    case ExprKind::kInSubquery:
    case ExprKind::kExists:
    case ExprKind::kScalarSubquery:
    case ExprKind::kAggregate:
      break;  // never eligible; InferTag routed these to a scalar leaf
  }
  return Status::Internal("columnar evaluation of ineligible expression");
}

Status CEvalPred(const Expr& e, BatchCtx& c, const SelVec& sel, TriVec* out) {
  const size_t n = sel.size();
  switch (e.kind) {
    case ExprKind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(e);
      if (binary.op == BinaryOp::kAnd || binary.op == BinaryOp::kOr) {
        return CEvalLogical(binary, c, sel, out);
      }
      if (IsCompareOp(binary.op)) {
        if (InferTag(*binary.left, c).has_value() &&
            InferTag(*binary.right, c).has_value()) {
          return CCompare(binary, c, sel, out);
        }
        return ScalarLeaf(e, c, sel, out);
      }
      break;  // arithmetic as a predicate: generic leaf handling below
    }

    case ExprKind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(e);
      if (unary.op == UnaryOp::kNot) {
        SOPR_RETURN_NOT_OK(CEvalPred(*unary.operand, c, sel, out));
        for (size_t i = 0; i < n; ++i) (*out)[i] = TriNot((*out)[i]);
        return Status::OK();
      }
      break;
    }

    case ExprKind::kIsNull: {
      const auto& isnull = static_cast<const IsNullExpr&>(e);
      if (!InferTag(*isnull.operand, c).has_value()) {
        return ScalarLeaf(e, c, sel, out);
      }
      CSlice s;
      SOPR_RETURN_NOT_OK(CEvalValue(*isnull.operand, c, sel, &s));
      if (s.tag == CTag::kNull) {
        GlobalStats().kernel_null_check.fetch_add(1,
                                                  std::memory_order_relaxed);
        out->assign(n, isnull.negated ? TriBool::kFalse : TriBool::kTrue);
        return Status::OK();
      }
      IsNullMask(NullMaskOf(s), isnull.negated, out);
      return Status::OK();
    }

    case ExprKind::kInList:
      if (InferTag(e, c).has_value()) {
        return CInList(static_cast<const InListExpr&>(e), c, sel, out);
      }
      return ScalarLeaf(e, c, sel, out);

    case ExprKind::kBetween:
      if (InferTag(e, c).has_value()) {
        return CBetween(static_cast<const BetweenExpr&>(e), c, sel, out);
      }
      return ScalarLeaf(e, c, sel, out);

    default:
      break;
  }

  // Generic leaf: a boolean-or-NULL value expression converts lanewise
  // (NULL -> kUnknown, exactly PredicateTriFromValue); any other static
  // type is a per-lane TypeError or unsupported node -> scalar leaf.
  auto tag = InferTag(e, c);
  if (!tag.has_value() ||
      (*tag != CTag::kBool && *tag != CTag::kNull)) {
    return ScalarLeaf(e, c, sel, out);
  }
  CSlice s;
  SOPR_RETURN_NOT_OK(CEvalValue(e, c, sel, &s));
  if (s.tag == CTag::kNull) {
    out->assign(n, TriBool::kUnknown);
    return Status::OK();
  }
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*out)[i] = s.bools.null[i] ? TriBool::kUnknown
                                : (s.bools.b[i] ? TriBool::kTrue
                                                : TriBool::kFalse);
  }
  return Status::OK();
}

}  // namespace

bool IsRowOrderError(StatusCode code) {
  switch (code) {
    case StatusCode::kTypeError:
    case StatusCode::kExecutionError:
    case StatusCode::kCatalogError:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

Status EvaluatePredicateColumnar(const Expr& expr, Scope* scope,
                                 EvalContext& ctx, const RowBatch& batch,
                                 const ColumnSet& cols, const SelVec& sel,
                                 std::vector<TriBool>* out) {
  out->clear();
  if (sel.empty()) return Status::OK();
  GlobalStats().batches.fetch_add(1, std::memory_order_relaxed);
  GlobalStats().columnar_chunks.fetch_add(1, std::memory_order_relaxed);

  BatchCtx c{scope, &ctx, &batch, &cols};
  Status s = CEvalPred(expr, c, sel, out);
  if (s.ok()) return s;
  if (!IsRowOrderError(s.code())) return s;

  // The batch pass hit an evaluation error, possibly out of row order
  // (kernels check whole lanes). Re-run the same positions row-at-a-time:
  // both passes visit the same (row, subexpression) pairs, so whatever
  // the row path reports — the same error at its first erroring row, or
  // (if the batch error was spurious) a clean result — is authoritative.
  return ScalarRerun(expr, c, sel, out);
}

}  // namespace exec
}  // namespace sopr
