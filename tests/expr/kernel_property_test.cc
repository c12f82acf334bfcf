// Differential property suite for the columnar predicate kernels
// (src/exec/kernels.h via exec::EvaluatePredicateColumnar): generated
// expression trees over adversarial decomposed columns must be
// indistinguishable from the row-at-a-time scalar evaluator — same
// TriBool per selected position when both succeed, and the SAME error
// (code and message, taken from the authoritative row-order scalar
// re-run) when the scalar run fails. This is the kernel-level part of
// the differential-oracle contract in docs/EXECUTION.md; the scalar-leaf
// fallback is covered by tests/expr/batch_evaluator_test.cc and the
// engine-level part by tests/rules/vectorized_differential_test.cc.
//
// Adversarial inputs: NULL-heavy columns, INT64 min/max (overflow
// promotion), -0.0 vs +0.0, NaN, empty and long strings, division by
// zero, type-mismatched comparisons, bool-typed columns, and
// full/subset/singleton/empty selection vectors (a skipped row must not
// leak an error into the result). kernel_property_asan_test reruns the
// suite under ASan+UBSan when -DSOPR_SANITIZE=ON, checking the borrowed
// string pointers and dummy-lane reads of the columnar layout.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "exec/batch_evaluator.h"
#include "exec/column_vector.h"
#include "exec/row_batch.h"
#include "exec/stats.h"
#include "expr/evaluator.h"
#include "sql/parser.h"
#include "test_util.h"

namespace sopr {
namespace {

using exec::ColumnSet;
using exec::ColumnVector;
using exec::RowBatch;
using exec::SelVec;

constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min();

// --- Adversarial column pool ----------------------------------------------
// NULL-heavy (~1/3) so null-mask handling is exercised on every kernel.

Value RandomInt(std::mt19937& rng) {
  static const int64_t kPool[] = {0,       1,        -1,          2,
                                  7,       -7,       100,         kIntMax,
                                  kIntMin, kIntMax - 1, kIntMin + 1};
  if (rng() % 3 == 0) return Value::Null();
  return Value::Int(kPool[rng() % (sizeof(kPool) / sizeof(kPool[0]))]);
}

Value RandomDouble(std::mt19937& rng) {
  static const double kNan = std::numeric_limits<double>::quiet_NaN();
  static const double kPool[] = {0.0,  -0.0, 1.0,   -1.0,   0.5,  -0.5,
                                 2.0,  kNan, 1e300, -1e300, 1e-300};
  if (rng() % 3 == 0) return Value::Null();
  return Value::Double(kPool[rng() % (sizeof(kPool) / sizeof(kPool[0]))]);
}

Value RandomString(std::mt19937& rng) {
  static const std::string kLong(300, 'q');
  static const std::string kPool[] = {"", "a", "b", "ab", "A", "zz", "0",
                                      kLong};
  if (rng() % 3 == 0) return Value::Null();
  return Value::String(kPool[rng() % (sizeof(kPool) / sizeof(kPool[0]))]);
}

Value RandomBool(std::mt19937& rng) {
  if (rng() % 3 == 0) return Value::Null();
  return Value::Bool(rng() % 2 == 0);
}

Row RandomRow(std::mt19937& rng) {
  return Row({RandomInt(rng), RandomDouble(rng), RandomString(rng),
              RandomBool(rng)});
}

// --- Expression grammar ---------------------------------------------------
// Predicates over columns i (int), d (double), s (string), bl (bool).
// Deliberately includes type errors (s + 1), division by zero, NULL
// literals, and negation, because the contract covers error equivalence
// (via the authoritative scalar re-run), not just value equivalence.

std::string GenScalar(std::mt19937& rng, int depth) {
  if (depth <= 0 || rng() % 3 == 0) {
    switch (rng() % 9) {
      case 0: return "i";
      case 1: return "d";
      case 2: return "s";
      case 3: return "0";
      case 4: return "1";
      case 5: return "null";
      case 6: return "2.5";
      case 7: return "(- i)";
      default: return "'a'";
    }
  }
  static const char* kOps[] = {"+", "-", "*", "/"};
  return "(" + GenScalar(rng, depth - 1) + " " + kOps[rng() % 4] + " " +
         GenScalar(rng, depth - 1) + ")";
}

std::string GenPred(std::mt19937& rng, int depth) {
  if (depth <= 0 || rng() % 4 == 0) {
    switch (rng() % 8) {
      case 0: {
        static const char* kCmp[] = {"=", "<>", "<", "<=", ">", ">="};
        return "(" + GenScalar(rng, 2) + " " + kCmp[rng() % 6] + " " +
               GenScalar(rng, 2) + ")";
      }
      case 1: return "(" + GenScalar(rng, 1) + " is null)";
      case 2: return "(" + GenScalar(rng, 1) + " is not null)";
      case 3: return "(i in (0, 1, null, " + GenScalar(rng, 1) + "))";
      case 4: return "(d between -1.0 and " + GenScalar(rng, 1) + ")";
      case 5: return "(bl = (i > 0))";
      case 6: return "(bl is null)";
      default: return "(s in ('', 'a', 'zz'))";
    }
  }
  switch (rng() % 3) {
    case 0: return "(" + GenPred(rng, depth - 1) + " and " +
                   GenPred(rng, depth - 1) + ")";
    case 1: return "(" + GenPred(rng, depth - 1) + " or " +
                   GenPred(rng, depth - 1) + ")";
    default: return "(not " + GenPred(rng, depth - 1) + ")";
  }
}

// --- The columnar-vs-scalar differential oracle ---------------------------

class KernelDifferential : public ::testing::TestWithParam<uint32_t> {
 protected:
  KernelDifferential()
      : schema_("t", {{"i", ValueType::kInt},
                      {"d", ValueType::kDouble},
                      {"s", ValueType::kString},
                      {"bl", ValueType::kBool}}) {
    EXPECT_TRUE(scope_.AddBinding("t", &schema_).ok());
  }

  /// Runs `expr` two ways over `rows` restricted to `sel`: columnar (all
  /// four columns decomposed) and the row-order scalar reference.
  /// Asserts the columnar result is indistinguishable from the scalar
  /// run (first scalar error or elementwise TriBools).
  void CheckOne(const Expr& expr, const std::vector<Row>& rows,
                const SelVec& sel, const std::string& sql) {
    RowBatch batch(1);
    for (const Row& r : rows) {
      batch.AppendAllNull();
      batch.SetBack(0, &r);
    }
    std::vector<ColumnVector> storage(schema_.num_columns());
    ColumnSet cols;
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      ASSERT_TRUE(exec::BuildColumn(rows, c, schema_.columns()[c].type,
                                    &storage[c]))
          << "column " << c << " must decompose (typed storage)";
      cols.Add(0, c, &storage[c]);
    }

    EvalContext ctx;  // no subquery runner: subqueries would error alike
    std::vector<TriBool> got;
    Status columnar_status = exec::EvaluatePredicateColumnar(
        expr, &scope_, ctx, batch, cols, sel, &got);

    // Row-order scalar reference. `want[i]` pairs with `sel[i]`.
    Status scalar_status = Status::OK();
    std::vector<TriBool> want;
    for (uint32_t pos : sel) {
      scope_.SetRow(0, &rows[pos]);
      auto r = EvaluatePredicate(expr, scope_, ctx);
      if (!r.ok()) {
        scalar_status = r.status();
        break;
      }
      want.push_back(r.value());
    }
    scope_.SetRow(0, nullptr);

    if (!scalar_status.ok()) {
      ASSERT_FALSE(columnar_status.ok())
          << sql << ": scalar failed (" << scalar_status
          << ") but columnar succeeded";
      EXPECT_EQ(columnar_status.code(), scalar_status.code()) << sql;
      EXPECT_EQ(columnar_status.message(), scalar_status.message()) << sql;
      return;
    }
    ASSERT_TRUE(columnar_status.ok()) << sql << " -> " << columnar_status;
    ASSERT_EQ(got.size(), want.size()) << sql;
    for (size_t i = 0; i < sel.size(); ++i) {
      EXPECT_EQ(got[i], want[i])
          << sql << " columnar diverges from scalar at selected position "
          << sel[i];
    }
  }

  TableSchema schema_;
  Scope scope_;
};

TEST_P(KernelDifferential, RandomTreesOverAdversarialColumns) {
  std::mt19937 rng(GetParam() * 2654435761u + 29);
  std::vector<Row> rows;
  const size_t n = 1 + rng() % 200;
  for (size_t i = 0; i < n; ++i) rows.push_back(RandomRow(rng));

  for (int t = 0; t < 40; ++t) {
    const std::string sql = GenPred(rng, 3);
    auto expr = Parser::ParseExpression(sql);
    ASSERT_TRUE(expr.ok()) << sql << " -> " << expr.status();

    // Full selection.
    SelVec full;
    for (uint32_t i = 0; i < rows.size(); ++i) full.push_back(i);
    CheckOne(*expr.value(), rows, full, sql);

    // Random subset (may skip the very rows that would error).
    SelVec subset;
    for (uint32_t i = 0; i < rows.size(); ++i) {
      if (rng() % 2 == 0) subset.push_back(i);
    }
    CheckOne(*expr.value(), rows, subset, sql);

    // Singleton and empty selections — the degenerate batch edges.
    CheckOne(*expr.value(), rows,
             SelVec{static_cast<uint32_t>(rng() % rows.size())}, sql);
    CheckOne(*expr.value(), rows, SelVec{}, sql);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferential,
                         ::testing::Range(0u, 12u));

// --- Pinned kernel edge cases ---------------------------------------------

class KernelFixed : public KernelDifferential {};

TEST_F(KernelFixed, KernelsActuallyEngage) {
  // Guard against the suite silently passing because every expression
  // fell back to the scalar leaf path: a plainly kernel-eligible predicate
  // must bump the engagement counters.
  std::vector<Row> rows = {
      Row({Value::Int(1), Value::Double(2.0), Value::String("a"),
           Value::Bool(true)}),
      Row({Value::Null(), Value::Null(), Value::Null(), Value::Null()})};
  const uint64_t chunks = exec::GlobalStats().columnar_chunks.load();
  const uint64_t compares = exec::GlobalStats().kernel_compare.load();
  const uint64_t ariths = exec::GlobalStats().kernel_arith.load();
  const uint64_t nullchecks = exec::GlobalStats().kernel_null_check.load();
  auto expr =
      Parser::ParseExpression("(i + 1 > 0 and d * 2 < 10) or s is null");
  ASSERT_OK(expr.status());
  CheckOne(*expr.value(), rows, SelVec{0, 1},
           "(i + 1 > 0 and d * 2 < 10) or s is null");
  EXPECT_GT(exec::GlobalStats().columnar_chunks.load(), chunks);
  EXPECT_GT(exec::GlobalStats().kernel_compare.load(), compares);
  EXPECT_GT(exec::GlobalStats().kernel_arith.load(), ariths);
  EXPECT_GT(exec::GlobalStats().kernel_null_check.load(), nullchecks);
}

TEST_F(KernelFixed, ShortCircuitSuppressesErrorsIdentically) {
  // Scalar short-circuits `false and X` without evaluating X; the
  // columnar path must narrow the rhs selection identically, so the
  // division by zero is never evaluated on any path.
  std::vector<Row> rows = {Row({Value::Int(0), Value::Double(1.0),
                                Value::String("x"), Value::Bool(false)})};
  auto expr = Parser::ParseExpression("(i = 1) and (1 / i = 1)");
  ASSERT_OK(expr.status());
  CheckOne(*expr.value(), rows, SelVec{0}, "(i = 1) and (1 / i = 1)");

  auto expr2 = Parser::ParseExpression("(i = 0) or (1 / i = 1)");
  ASSERT_OK(expr2.status());
  CheckOne(*expr2.value(), rows, SelVec{0}, "(i = 0) or (1 / i = 1)");
}

TEST_F(KernelFixed, DivisionEdgesMatchScalar) {
  // Division by zero (the scalar re-run's error must surface), the
  // int-exact vs inexact quotient split (7 / 2 = 3.5 promotes to
  // double), and INT64_MIN / -1 (overflow promotes to double).
  std::vector<Row> rows = {
      Row({Value::Int(0), Value::Double(0.0), Value::String(""),
           Value::Bool(false)}),
      Row({Value::Int(2), Value::Double(2.0), Value::String(""),
           Value::Bool(false)}),
      Row({Value::Int(-1), Value::Double(-0.5), Value::String(""),
           Value::Bool(false)}),
      Row({Value::Int(kIntMin), Value::Null(), Value::Null(),
           Value::Null()})};
  for (const char* sql :
       {"10 / i > 1", "7 / 2 = 3.5", "i / (- 1) > 0", "d / 2 < 1",
        "(i / d) >= 0"}) {
    auto expr = Parser::ParseExpression(sql);
    ASSERT_TRUE(expr.ok()) << sql << " -> " << expr.status();
    CheckOne(*expr.value(), rows, SelVec{0, 1, 2, 3}, sql);
    CheckOne(*expr.value(), rows, SelVec{1, 2, 3}, sql);
    CheckOne(*expr.value(), rows, SelVec{1}, sql);
  }
}

TEST_F(KernelFixed, OverflowPromotionMatchesScalar) {
  // INT64 boundary arithmetic: the kernels must promote exactly where
  // Value::Add/Sub/Mul promote, and produce the identical widened
  // double, including above 2^53 where (double)a op (double)b differs
  // from (double)(a op b).
  std::vector<Row> rows = {
      Row({Value::Int(kIntMax), Value::Double(1.0), Value::String(""),
           Value::Bool(true)}),
      Row({Value::Int(kIntMin), Value::Double(-1.0), Value::String(""),
           Value::Bool(true)}),
      Row({Value::Int((int64_t{1} << 53) + 1), Value::Double(0.0),
           Value::String(""), Value::Bool(true)})};
  for (const char* sql :
       {"i + 1 > 0", "i - 1 < 0", "i * 2 > i", "i + 0 = i", "(- i) < 0",
        "i * i >= 0"}) {
    auto expr = Parser::ParseExpression(sql);
    ASSERT_TRUE(expr.ok()) << sql << " -> " << expr.status();
    CheckOne(*expr.value(), rows, SelVec{0, 1, 2}, sql);
  }
}

TEST_F(KernelFixed, NegativeZeroAndNaN) {
  static const double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Row> rows = {
      Row({Value::Int(0), Value::Double(-0.0), Value::String(""),
           Value::Bool(false)}),
      Row({Value::Int(1), Value::Double(0.0), Value::String(""),
           Value::Bool(true)}),
      Row({Value::Int(2), Value::Double(kNan), Value::String(""),
           Value::Bool(true)})};
  for (const char* sql :
       {"d = 0", "d < 0", "d <= 0", "d > 0", "d >= 0", "d <> 0",
        "d between -0.0 and 0.0", "d = d", "d < d", "d <= d"}) {
    auto expr = Parser::ParseExpression(sql);
    ASSERT_TRUE(expr.ok()) << sql << " -> " << expr.status();
    CheckOne(*expr.value(), rows, SelVec{0, 1, 2}, sql);
  }
}

TEST_F(KernelFixed, StringsEmptyAndLong) {
  static const std::string kLong(300, 'q');
  std::vector<Row> rows = {
      Row({Value::Int(0), Value::Double(0.0), Value::String(""),
           Value::Bool(false)}),
      Row({Value::Int(1), Value::Double(0.0), Value::String(kLong),
           Value::Bool(false)}),
      Row({Value::Int(2), Value::Double(0.0), Value::String("a"),
           Value::Bool(false)}),
      Row({Value::Int(3), Value::Double(0.0), Value::Null(),
           Value::Bool(false)})};
  const std::string long_lit = "'" + kLong + "'";
  const std::vector<std::string> preds = {
      "s = ''",           "s < 'b'",
      "s >= 'a'",         "s <> 'a'",
      "s = " + long_lit,  "s <= " + long_lit,
      "s in ('', 'a', " + long_lit + ")", "s is not null"};
  for (const std::string& sql : preds) {
    auto expr = Parser::ParseExpression(sql);
    ASSERT_TRUE(expr.ok()) << sql << " -> " << expr.status();
    CheckOne(*expr.value(), rows, SelVec{0, 1, 2, 3}, sql);
  }
}

TEST_F(KernelFixed, BoolColumnsAndTypeMismatches) {
  std::vector<Row> rows = {
      Row({Value::Int(1), Value::Double(0.0), Value::String("a"),
           Value::Bool(true)}),
      Row({Value::Int(0), Value::Double(1.0), Value::String("b"),
           Value::Bool(false)}),
      Row({Value::Int(-1), Value::Double(2.0), Value::Null(),
           Value::Null()})};
  for (const char* sql :
       {"bl = (i > 0)", "bl <> (d > 0)", "bl is null", "bl is not null",
        // Cross-type comparisons are Unknown lanewise, and bool < bool
        // is Unknown too — both must match the scalar evaluator.
        "s = 1", "bl < bl", "i = d", "s = bl"}) {
    auto expr = Parser::ParseExpression(sql);
    ASSERT_TRUE(expr.ok()) << sql << " -> " << expr.status();
    CheckOne(*expr.value(), rows, SelVec{0, 1, 2}, sql);
  }
}

TEST_F(KernelFixed, TypeErrorsMatchScalar) {
  std::vector<Row> rows = {Row({Value::Int(1), Value::Double(0.0),
                                Value::String("a"), Value::Bool(true)})};
  for (const char* sql : {"s + 1 = 2", "s * 2 > 0", "i and d", "bl + 1 = 1"}) {
    auto expr = Parser::ParseExpression(sql);
    ASSERT_TRUE(expr.ok()) << sql << " -> " << expr.status();
    CheckOne(*expr.value(), rows, SelVec{0}, sql);
  }
}

TEST_F(KernelFixed, EmptyColumnsAndEmptySelection) {
  std::vector<Row> rows;
  RowBatch batch(1);
  ColumnSet cols;  // nothing decomposed: every leaf would fall back
  EvalContext ctx;
  auto expr = Parser::ParseExpression("i > 0");
  ASSERT_OK(expr.status());
  std::vector<TriBool> out;
  ASSERT_OK(exec::EvaluatePredicateColumnar(*expr.value(), &scope_, ctx,
                                            batch, cols, SelVec{}, &out));
  EXPECT_TRUE(out.empty());
}

TEST_F(KernelFixed, MissingColumnsFallBackToScalarLeaves) {
  // An empty ColumnSet must still produce scalar-identical results (the
  // per-leaf scalar fallback), counted in pointer_fallback_preds.
  std::vector<Row> rows = {Row({Value::Int(5), Value::Double(1.5),
                                Value::String("a"), Value::Bool(true)})};
  RowBatch batch(1);
  batch.AppendAllNull();
  batch.SetBack(0, &rows[0]);
  ColumnSet cols;
  EvalContext ctx;
  const uint64_t fallbacks =
      exec::GlobalStats().pointer_fallback_preds.load();
  auto expr = Parser::ParseExpression("i > 4 and d < 2.0");
  ASSERT_OK(expr.status());
  std::vector<TriBool> out;
  ASSERT_OK(exec::EvaluatePredicateColumnar(*expr.value(), &scope_, ctx,
                                            batch, cols, SelVec{0}, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], TriBool::kTrue);
  EXPECT_GT(exec::GlobalStats().pointer_fallback_preds.load(), fallbacks);
}

}  // namespace
}  // namespace sopr
