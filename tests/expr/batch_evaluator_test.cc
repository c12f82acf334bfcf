// Differential property suite for the batch predicate evaluator's
// scalar-leaf fallback (src/exec/batch_evaluator.h): generated expression
// trees over adversarial columns, evaluated batch-at-a-time with NO
// decomposed columns (an empty ColumnSet, so every column-reading leaf is
// evaluated per row by the scalar evaluator) and row-at-a-time, must
// agree bit-exactly — same TriBool per selected position when both
// succeed, and the SAME error (code and message) when the row-order
// scalar run fails. The kernel side of the same contract is
// tests/expr/kernel_property_test.cc; the engine-level side is
// tests/rules/vectorized_differential_test.cc (docs/EXECUTION.md).
//
// Adversarial inputs: NULLs in every column, INT64 boundaries, -0.0 vs
// +0.0, empty strings, division by zero, type-mismatched comparisons,
// empty batches, 1-row batches, and selection vectors that skip rows
// (including the rows that would error — a skipped row must not leak an
// error into the batch result).

#include "exec/batch_evaluator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "exec/row_batch.h"
#include "exec/stats.h"
#include "expr/evaluator.h"
#include "sql/parser.h"
#include "test_util.h"

namespace sopr {
namespace {

using exec::ColumnSet;
using exec::RowBatch;
using exec::SelVec;

// --- Adversarial row pool -------------------------------------------------

constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min();

Value RandomInt(std::mt19937& rng) {
  static const int64_t kPool[] = {0, 1, -1, 2, 7, -7, 100, kIntMax, kIntMin,
                                  kIntMax - 1, kIntMin + 1};
  if (rng() % 4 == 0) return Value::Null();
  return Value::Int(kPool[rng() % (sizeof(kPool) / sizeof(kPool[0]))]);
}

Value RandomDouble(std::mt19937& rng) {
  static const double kPool[] = {0.0,  -0.0, 1.0,   -1.0,  0.5,
                                 -0.5, 2.0,  1e300, -1e300, 1e-300};
  if (rng() % 4 == 0) return Value::Null();
  return Value::Double(kPool[rng() % (sizeof(kPool) / sizeof(kPool[0]))]);
}

Value RandomString(std::mt19937& rng) {
  static const char* kPool[] = {"", "a", "b", "ab", "A", "zz", "0"};
  if (rng() % 4 == 0) return Value::Null();
  return Value::String(kPool[rng() % (sizeof(kPool) / sizeof(kPool[0]))]);
}

Row RandomRow(std::mt19937& rng) {
  return Row({RandomInt(rng), RandomDouble(rng), RandomString(rng)});
}

// --- Expression grammar ---------------------------------------------------
// Produces predicate SQL over columns i (int), d (double), s (string).
// Deliberately includes type errors (s + 1), division by zero (x / 0 for
// rows where the divisor lands on zero), and NULL literals, because the
// contract covers error equivalence, not just value equivalence.

std::string GenScalar(std::mt19937& rng, int depth) {
  if (depth <= 0 || rng() % 3 == 0) {
    switch (rng() % 8) {
      case 0: return "i";
      case 1: return "d";
      case 2: return "s";
      case 3: return "0";
      case 4: return "1";
      case 5: return "null";
      case 6: return "2.5";
      default: return "'a'";
    }
  }
  static const char* kOps[] = {"+", "-", "*", "/"};
  return "(" + GenScalar(rng, depth - 1) + " " + kOps[rng() % 4] + " " +
         GenScalar(rng, depth - 1) + ")";
}

std::string GenPred(std::mt19937& rng, int depth) {
  if (depth <= 0 || rng() % 4 == 0) {
    switch (rng() % 6) {
      case 0: {
        static const char* kCmp[] = {"=", "<>", "<", "<=", ">", ">="};
        return "(" + GenScalar(rng, 2) + " " + kCmp[rng() % 6] + " " +
               GenScalar(rng, 2) + ")";
      }
      case 1: return "(" + GenScalar(rng, 1) + " is null)";
      case 2: return "(" + GenScalar(rng, 1) + " is not null)";
      case 3: return "(i in (0, 1, null, " + GenScalar(rng, 1) + "))";
      case 4: return "(d between -1.0 and " + GenScalar(rng, 1) + ")";
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

// --- The differential oracle ---------------------------------------------

class BatchDifferential : public ::testing::TestWithParam<uint32_t> {
 protected:
  BatchDifferential()
      : schema_("t", {{"i", ValueType::kInt},
                      {"d", ValueType::kDouble},
                      {"s", ValueType::kString}}) {
    EXPECT_TRUE(scope_.AddBinding("t", &schema_).ok());
  }

  /// Runs `expr` both ways over `rows` restricted to `sel` and asserts
  /// the batch result is indistinguishable from the row-order scalar
  /// run: first scalar error == batch error, otherwise elementwise
  /// equal TriBools.
  void CheckOne(const Expr& expr, const std::vector<Row>& rows,
                const SelVec& sel, const std::string& sql) {
    RowBatch batch(1);
    for (const Row& r : rows) {
      batch.AppendAllNull();
      batch.SetBack(0, &r);
    }

    EvalContext ctx;  // no subquery runner: subqueries would error alike
    std::vector<TriBool> got;
    Status batch_status = exec::EvaluatePredicateColumnar(
        expr, &scope_, ctx, batch, ColumnSet(), sel, &got);

    // Row-order scalar reference. `want[i]` pairs with `sel[i]`, the
    // same layout the batch evaluator uses for its output.
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
      ASSERT_FALSE(batch_status.ok())
          << sql << ": scalar failed (" << scalar_status
          << ") but batch succeeded";
      EXPECT_EQ(batch_status.code(), scalar_status.code()) << sql;
      EXPECT_EQ(batch_status.message(), scalar_status.message()) << sql;
      return;
    }
    ASSERT_TRUE(batch_status.ok()) << sql << " -> " << batch_status;
    ASSERT_EQ(got.size(), want.size()) << sql;
    for (size_t i = 0; i < sel.size(); ++i) {
      EXPECT_EQ(got[i], want[i])
          << sql << " diverges at selected position " << sel[i];
    }
  }

  TableSchema schema_;
  Scope scope_;
};

TEST_P(BatchDifferential, RandomTreesOverAdversarialColumns) {
  std::mt19937 rng(GetParam() * 2654435761u + 17);
  std::vector<Row> rows;
  const size_t n = 1 + rng() % 200;
  for (size_t i = 0; i < n; ++i) rows.push_back(RandomRow(rng));
  const uint64_t fallbacks =
      exec::GlobalStats().pointer_fallback_preds.load();

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
  // The trees really went through the scalar-leaf fallback.
  EXPECT_GT(exec::GlobalStats().pointer_fallback_preds.load(), fallbacks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferential,
                         ::testing::Range(0u, 12u));

// --- Pinned regression cases ---------------------------------------------

class BatchFixed : public BatchDifferential {};

TEST_F(BatchFixed, ShortCircuitSuppressesErrorsIdentically) {
  // Scalar short-circuits `false and X` without evaluating X; the batch
  // path must narrow the rhs selection identically, so the division by
  // zero is never evaluated on either path.
  std::vector<Row> rows = {
      Row({Value::Int(0), Value::Double(1.0), Value::String("x")})};
  auto expr = Parser::ParseExpression("(i = 1) and (1 / i = 1)");
  ASSERT_OK(expr.status());
  CheckOne(*expr.value(), rows, SelVec{0}, "(i = 1) and (1 / i = 1)");

  // And the dual: `true or X` suppresses the rhs.
  auto expr2 = Parser::ParseExpression("(i = 0) or (1 / i = 1)");
  ASSERT_OK(expr2.status());
  CheckOne(*expr2.value(), rows, SelVec{0}, "(i = 0) or (1 / i = 1)");
}

TEST_F(BatchFixed, MixedRowsFirstErrorInRowOrderWins) {
  // Rows 0 and 2 divide by zero; row 1 is fine. The batch error must be
  // the row-0 error, exactly as the scalar loop reports it.
  std::vector<Row> rows = {
      Row({Value::Int(0), Value::Double(1.0), Value::String("")}),
      Row({Value::Int(2), Value::Double(1.0), Value::String("")}),
      Row({Value::Int(0), Value::Double(1.0), Value::String("")})};
  auto expr = Parser::ParseExpression("10 / i > 1");
  ASSERT_OK(expr.status());
  CheckOne(*expr.value(), rows, SelVec{0, 1, 2}, "10 / i > 1");
  // Skipping row 0 must surface row 2's error instead (same code, and
  // no error at all when only row 1 is selected).
  CheckOne(*expr.value(), rows, SelVec{1, 2}, "10 / i > 1");
  CheckOne(*expr.value(), rows, SelVec{1}, "10 / i > 1");
}

TEST_F(BatchFixed, TypeErrorsMatchScalar) {
  std::vector<Row> rows = {
      Row({Value::Int(1), Value::Double(0.0), Value::String("a")})};
  for (const char* sql : {"s + 1 = 2", "s * 2 > 0", "i and d"}) {
    auto expr = Parser::ParseExpression(sql);
    ASSERT_TRUE(expr.ok()) << sql << " -> " << expr.status();
    CheckOne(*expr.value(), rows, SelVec{0}, sql);
  }
}

TEST_F(BatchFixed, NegativeZeroAndIntBoundaries) {
  std::vector<Row> rows = {
      Row({Value::Int(kIntMax), Value::Double(-0.0), Value::String("")}),
      Row({Value::Int(kIntMin), Value::Double(0.0), Value::String("")}),
      Row({Value::Null(), Value::Null(), Value::Null()})};
  for (const char* sql :
       {"d = 0", "d < 0", "i > 0", "i + 1 > 0", "i - 1 < 0",
        "d between -0.0 and 0.0", "i is null", "s = ''"}) {
    auto expr = Parser::ParseExpression(sql);
    ASSERT_TRUE(expr.ok()) << sql << " -> " << expr.status();
    CheckOne(*expr.value(), rows, SelVec{0, 1, 2}, sql);
  }
}

TEST_F(BatchFixed, EmptyBatch) {
  std::vector<Row> rows;
  RowBatch batch(1);
  EvalContext ctx;
  auto expr = Parser::ParseExpression("i > 0");
  ASSERT_OK(expr.status());
  std::vector<TriBool> out;
  ASSERT_OK(exec::EvaluatePredicateColumnar(*expr.value(), &scope_, ctx,
                                            batch, ColumnSet(), SelVec{},
                                            &out));
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace sopr
