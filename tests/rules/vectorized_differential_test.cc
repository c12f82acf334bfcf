// Engine-level row-vs-batch differential oracle (docs/EXECUTION.md): the
// batch engine in src/exec/ must be observationally indistinguishable
// from the row-at-a-time path it replaces. Three engines differing ONLY
// in execution strategy — row (batch_execution = false), batch (the
// default: typed kernels, scalar-leaf fallback, build/probe hash join),
// and batch with the build-side budget forced down to one row
// (nested-loop fallback) — run identical seeded random workloads over a
// rule set with cascades, aggregate conditions, NULL-heavy predicates, a
// transition ⋈ base join, and priorities.
// After every block: identical status codes, identical firing traces
// (considered rules, condition outcomes, fired rules, detached flags,
// rollbacks, retrieved result sets), and bit-identical
// Database::Checksum / Engine::StateChecksum.
//
// The suite is deterministic (fixed seeds, no timing dependence), so a
// 30x rerun is stable by construction; vectorized_differential_tsan_test
// reruns it under TSan when -DSOPR_SANITIZE=thread.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/row_batch.h"
#include "exec/stats.h"
#include "query/result_set.h"
#include "test_util.h"

namespace sopr {
namespace {

/// Cascades + aggregate condition + NULL-heavy predicate + transition ⋈
/// base join + priorities: every execution feature the batch layer
/// touches, in one rule set.
void DefineRuleSet(Engine* engine) {
  ASSERT_OK(engine->Execute("create table t (a int, b int)"));
  ASSERT_OK(engine->Execute("create table u (a int, c int)"));
  ASSERT_OK(engine->Execute("create table log (a int)"));
  // Cascade: deleting from t deletes matching u rows, which triggers up.
  ASSERT_OK(engine->Execute(
      "create rule cas when deleted from t "
      "then delete from u where a in (select a from deleted t)"));
  ASSERT_OK(engine->Execute(
      "create rule up when deleted from u "
      "then update t set b = b + 1 where a in (select a from deleted u)"));
  // Aggregate condition over the transition set.
  ASSERT_OK(engine->Execute(
      "create rule lg when inserted into t "
      "if (select count(*) from inserted t) > 1 "
      "then insert into log (select a from inserted t)"));
  // Transition ⋈ base join in the action: the hash-join path.
  ASSERT_OK(engine->Execute(
      "create rule jn when updated t.b "
      "then insert into log (select u.c from new updated t.b x, u "
      "where x.a = u.a)"));
  // NULL-heavy predicate over the base table.
  ASSERT_OK(engine->Execute(
      "create rule nn when inserted into u "
      "if exists (select * from inserted u where c is null) "
      "then update u set c = 0 where c is null"));
  ASSERT_OK(engine->Execute("create rule priority lg before cas"));
  ASSERT_OK(engine->Execute("create rule priority jn before nn"));
}

/// Random block: multi-row inserts (some NULL), IN/OR/IS NULL deletes,
/// arithmetic updates, reads, and occasional division-by-zero ops so
/// error codes get differentially checked too.
std::string RandomBlock(std::mt19937* rng, int step) {
  std::uniform_int_distribution<int> key(0, 15);
  std::uniform_int_distribution<int> pick(0, 6);
  std::string block;
  int ops = 1 + (*rng)() % 3;
  for (int i = 0; i < ops; ++i) {
    if (!block.empty()) block += "; ";
    switch (pick(*rng)) {
      case 0:
        block += "insert into t values (" + std::to_string(key(*rng)) + ", " +
                 std::to_string(step) + "), (" + std::to_string(key(*rng)) +
                 ", null)";
        break;
      case 1:
        block += "insert into u values (" + std::to_string(key(*rng)) +
                 ", null), (" + std::to_string(key(*rng)) + ", " +
                 std::to_string(step) + ")";
        break;
      case 2:
        block += "delete from t where a = " + std::to_string(key(*rng)) +
                 " or b is null";
        break;
      case 3:
        block += "delete from u where a in (" + std::to_string(key(*rng)) +
                 ", " + std::to_string(key(*rng)) + ")";
        break;
      case 4:
        block += "update t set b = b * 2 + 1 where a < " +
                 std::to_string(key(*rng));
        break;
      case 5:
        block += "select a, b from t where b between 0 and " +
                 std::to_string(10 + key(*rng)) + " order by a, b";
        break;
      default:
        // Errors on any row with b = step (division by zero): both
        // paths must fail with the identical code and roll back alike.
        block += "update t set b = 1 / (b - " + std::to_string(step) +
                 ") where a = " + std::to_string(key(*rng));
        break;
    }
  }
  return block;
}

/// Canonical trace signature: everything ExecutionTrace reports, in
/// execution order.
std::string TraceSig(const ExecutionTrace& trace) {
  std::string sig;
  for (const Consideration& c : trace.considered) {
    sig += "C:" + c.rule + (c.condition_held ? "+" : "-") + ";";
  }
  for (const RuleFiring& f : trace.firings) {
    sig += "F:" + f.rule + (f.detached ? "*" : "") + ";";
  }
  for (const QueryResult& r : trace.retrieved) {
    sig += "R:" + FormatResult(r) + ";";
  }
  if (trace.rolled_back) sig += "RB:" + trace.rollback_rule + ";";
  for (const std::string& e : trace.detached_errors) sig += "DE:" + e + ";";
  return sig;
}

std::string Dump(Engine* engine, const std::string& table,
                 const std::string& cols) {
  auto result =
      engine->Query("select " + cols + " from " + table + " order by " + cols);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? FormatResult(result.value()) : "<error>";
}

class VectorizedDifferential : public ::testing::TestWithParam<uint32_t> {};

TEST_P(VectorizedDifferential, RowAndBatchPathsAreBitIdentical) {
  RuleEngineOptions row_opts;
  row_opts.batch_execution = false;
  RuleEngineOptions batch_opts;  // batch_execution on by default
  RuleEngineOptions capped_opts = batch_opts;
  capped_opts.max_hash_build_rows = 1;  // multi-row builds all fall back

  Engine row(row_opts);
  Engine batch(batch_opts);
  Engine capped(capped_opts);
  DefineRuleSet(&row);
  DefineRuleSet(&batch);
  DefineRuleSet(&capped);

  const uint64_t builds_before =
      exec::GlobalStats().hash_join_builds.load();
  const uint64_t fallbacks_before =
      exec::GlobalStats().hash_join_fallbacks.load();
  const uint64_t chunks_before =
      exec::GlobalStats().columnar_chunks.load();

  std::mt19937 rng(GetParam() * 7919u + 1);
  for (int step = 0; step < 30; ++step) {
    std::string block = RandomBlock(&rng, step);

    auto tr = row.ExecuteBlock(block);
    auto tb = batch.ExecuteBlock(block);
    auto tc = capped.ExecuteBlock(block);

    ASSERT_EQ(tr.ok(), tb.ok()) << "step " << step << ": " << block;
    ASSERT_EQ(tr.ok(), tc.ok()) << "step " << step << ": " << block;
    if (!tr.ok()) {
      EXPECT_EQ(tr.status().code(), tb.status().code())
          << "step " << step << ": " << block;
      EXPECT_EQ(tr.status().message(), tb.status().message())
          << "step " << step << ": " << block;
      EXPECT_EQ(tr.status().code(), tc.status().code())
          << "step " << step << ": " << block;
    } else {
      EXPECT_EQ(TraceSig(tr.value()), TraceSig(tb.value()))
          << "step " << step << ": " << block;
      EXPECT_EQ(TraceSig(tr.value()), TraceSig(tc.value()))
          << "step " << step << ": " << block;
    }

    // Bit-exact state after EVERY block, not just at the end: handles,
    // values, undo state — everything Checksum folds in.
    ASSERT_EQ(row.db().Checksum(), batch.db().Checksum())
        << "step " << step << ": " << block;
    ASSERT_EQ(row.db().Checksum(), capped.db().Checksum())
        << "step " << step << ": " << block;
    ASSERT_EQ(row.StateChecksum(), batch.StateChecksum())
        << "step " << step << ": " << block;
  }

  EXPECT_EQ(Dump(&row, "t", "a, b"), Dump(&batch, "t", "a, b"));
  EXPECT_EQ(Dump(&row, "u", "a, c"), Dump(&batch, "u", "a, c"));
  EXPECT_EQ(Dump(&row, "log", "a"), Dump(&batch, "log", "a"));
  EXPECT_EQ(Dump(&row, "t", "a, b"), Dump(&capped, "t", "a, b"));

  // The workload actually exercised every strategy: the batch engine
  // built hash tables, the capped engine took the counted nested-loop
  // fallback, and both evaluated columnar chunks. (GlobalStats is
  // process-wide; deltas only.)
  EXPECT_GT(exec::GlobalStats().hash_join_builds.load(), builds_before);
  EXPECT_GT(exec::GlobalStats().hash_join_fallbacks.load(), fallbacks_before);
  EXPECT_GT(exec::GlobalStats().columnar_chunks.load(), chunks_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedDifferential,
                         ::testing::Range(0u, 10u));

// The paper schema end to end: Example 4.1's cascade plus an aggregate
// guard, row vs batch, including a rollback path.
TEST(VectorizedDifferentialFixed, PaperCascadeAndRollbackMatch) {
  RuleEngineOptions row_opts;
  row_opts.batch_execution = false;
  Engine row(row_opts);
  Engine batch;  // batch execution by default
  for (Engine* e : {&row, &batch}) {
    CreatePaperSchema(e);
    LoadOrgChart(e);
    ASSERT_OK(e->Execute(
        "create rule chain when deleted from emp "
        "then delete from emp where dept_no in "
        "  (select dept_no from dept where mgr_no in "
        "   (select emp_no from deleted emp)); "
        "delete from dept where mgr_no in (select emp_no from deleted emp)"));
    ASSERT_OK(e->Execute(
        "create rule guard when deleted from emp "
        "if (select count(*) from emp) < 3 then rollback"));
  }

  for (const char* victim : {"Jane", "Jim", "Mary", "Bill"}) {
    std::string sql = std::string("delete from emp where name = '") + victim +
                      "'";
    auto tr = row.ExecuteBlock(sql);
    auto tb = batch.ExecuteBlock(sql);
    ASSERT_EQ(tr.ok(), tb.ok()) << sql;
    if (tr.ok()) {
      EXPECT_EQ(TraceSig(tr.value()), TraceSig(tb.value())) << sql;
    } else {
      EXPECT_EQ(tr.status().code(), tb.status().code()) << sql;
    }
    ASSERT_EQ(row.db().Checksum(), batch.db().Checksum()) << sql;
  }
  EXPECT_EQ(Dump(&row, "emp", "name, emp_no, salary, dept_no"),
            Dump(&batch, "emp", "name, emp_no, salary, dept_no"));
}

// DML whose subquery reads its own target table: both engines evaluate
// the subquery against the pre-statement state, including NOT IN over a
// set that holds a NULL. A fresh pair of engines per statement, so each
// one starts from the same rows.
TEST(VectorizedDifferentialFixed, SelfReadingDmlMatches) {
  const char* statements[] = {
      "delete from t where a in (select a + 1 from t)",
      "update t set b = b + 1 where a in (select max(a) from t)",
      "update t set a = a + 1 where a + 1 in (select a from t)",
      "update t set b = 0 where a not in (select b from t)",
      "delete from t where b is null or a not in (select b from t)",
  };
  for (const char* sql : statements) {
    RuleEngineOptions row_opts;
    row_opts.batch_execution = false;
    Engine row(row_opts);
    Engine batch;
    for (Engine* e : {&row, &batch}) {
      ASSERT_OK(e->Execute("create table t (a int, b int)"));
      ASSERT_OK(e->Execute(
          "insert into t values (1, 10), (2, null), (3, 1), (5, 3)"));
    }
    auto tr = row.ExecuteBlock(sql);
    auto tb = batch.ExecuteBlock(sql);
    ASSERT_TRUE(tr.ok()) << sql << ": " << tr.status();
    ASSERT_TRUE(tb.ok()) << sql << ": " << tb.status();
    EXPECT_EQ(TraceSig(tr.value()), TraceSig(tb.value())) << sql;
    EXPECT_EQ(row.db().Checksum(), batch.db().Checksum()) << sql;
    EXPECT_EQ(Dump(&row, "t", "a, b"), Dump(&batch, "t", "a, b")) << sql;
  }
}

// Every chunk-forming seam over inputs that span several chunks, the last
// one partial: a pushed filter, a residual over join combos, full-scan
// DELETE and UPDATE, and an index-probed UPDATE. `big` holds 3,000 rows
// (chunks of 1024, 1024 and 952), NULL-heavy in both its int and its
// string column; the join produces 5,571 combos.
TEST(VectorizedDifferentialFixed, MultiChunkSeamsMatch) {
  constexpr size_t kRows = 3000;
  static_assert(kRows * 2 >= exec::kBatchRows * 5 &&
                    kRows % exec::kBatchRows != 0,
                "big must span at least 2.5 chunks, the last one partial");
  std::string load = "insert into big values ";
  for (size_t i = 0; i < kRows; ++i) {
    if (i > 0) load += ", ";
    const std::string v = i % 3 == 0 ? "null" : std::to_string(i % 97);
    const std::string s =
        i % 4 == 0 ? "null" : "'k" + std::to_string(i % 50) + "'";
    load += "(" + std::to_string(i) + ", " + (i % 7 == 0 ? "1" : "0") +
            ", " + v + ", " + s + ")";
  }
  RuleEngineOptions row_opts;
  row_opts.batch_execution = false;
  Engine row(row_opts);
  Engine batch;
  for (Engine* e : {&row, &batch}) {
    ASSERT_OK(e->Execute("create table big (k int, g int, v int, s string)"));
    ASSERT_OK(e->Execute("create table side (g int, w int, t string)"));
    ASSERT_OK(e->Execute(load));
    ASSERT_OK(e->Execute(
        "insert into side values (0, 50, 'k3'), (1, 80, null), "
        "(0, null, 'k9')"));
    ASSERT_OK(e->Execute("create index on big (g)"));
  }

  const char* statements[] = {
      // Pushed filters: two single-table conjuncts over 3,000 rows.
      "select k, v, s from big where (v > 40 or s = 'k7') and s is not null "
      "order by k",
      // g = 0 matches 2,571 rows and g = 1 matches 429: 2 x 2,571 + 429
      // combos reach the non-equi residual.
      "select big.k, side.w from big, side "
      "where big.g = side.g and (big.v < side.w or big.s = side.t) "
      "order by big.k, side.w",
      "update big set v = v * 2 + 1, s = 'u' where v between 5 and 60 "
      "or s is null",
      // Index-probed: the g = 0 probe yields 2,571 candidates.
      "update big set v = v + 1 where g = 0 and (s = 'u' or v is null)",
      "delete from big where v is null or s <> 'u'",
  };
  for (const char* sql : statements) {
    auto tr = row.ExecuteBlock(sql);
    const uint64_t batches_before = exec::GlobalStats().batches.load();
    auto tb = batch.ExecuteBlock(sql);
    const uint64_t batches = exec::GlobalStats().batches.load() -
                             batches_before;
    ASSERT_TRUE(tr.ok()) << sql << ": " << tr.status();
    ASSERT_TRUE(tb.ok()) << sql << ": " << tb.status();
    EXPECT_GE(batches, 3u) << sql;
    EXPECT_EQ(TraceSig(tr.value()), TraceSig(tb.value())) << sql;
    ASSERT_EQ(row.db().Checksum(), batch.db().Checksum()) << sql;
  }
  EXPECT_EQ(Dump(&row, "big", "k, g, v, s"), Dump(&batch, "big", "k, g, v, s"));
}

// When a batch statement fails, it reports the error the row path meets
// first. The UPDATE's assignment divides by zero on its first matching
// row, while its predicate raises a type error on a later row; the batch
// engine evaluates the predicate stage first, so it must fall back to the
// row loop to surface the division by zero. The DELETE's predicate
// divides by zero on an earlier row than the one where it raises the type
// error, in an OR branch the batch engine evaluates second.
TEST(VectorizedDifferentialFixed, ErrorOrderMatches) {
  const struct {
    const char* sql;
    StatusCode code;
  } cases[] = {
      {"update e set b = 10 / b where a < 3 or s + 1 > 0",
       StatusCode::kExecutionError},
      {"delete from e where (a = 2 and s + 1 > 0) or (a = 4 and 10 / b > 0)",
       StatusCode::kExecutionError},
      {"delete from e where a > 1 and s * 2 > 0", StatusCode::kTypeError},
  };
  for (const auto& c : cases) {
    RuleEngineOptions row_opts;
    row_opts.batch_execution = false;
    Engine row(row_opts);
    Engine batch;
    for (Engine* e : {&row, &batch}) {
      ASSERT_OK(e->Execute("create table e (a int, b int, s string)"));
      ASSERT_OK(e->Execute(
          "insert into e values (1, 0, 'x'), (4, 0, 'p'), (3, 2, 'y'), "
          "(2, 1, 'q')"));
    }
    auto tr = row.ExecuteBlock(c.sql);
    auto tb = batch.ExecuteBlock(c.sql);
    ASSERT_FALSE(tr.ok()) << c.sql;
    ASSERT_FALSE(tb.ok()) << c.sql;
    EXPECT_EQ(tr.status().code(), c.code) << c.sql << ": " << tr.status();
    EXPECT_EQ(tr.status().code(), tb.status().code()) << c.sql;
    EXPECT_EQ(tr.status().message(), tb.status().message()) << c.sql;
    EXPECT_EQ(row.db().Checksum(), batch.db().Checksum()) << c.sql;
  }
}

// Generated uncorrelated subqueries — IN, NOT IN, EXISTS and NOT EXISTS —
// over NULL-heavy base and transition tables, in rule conditions and in
// DML predicates, some of them behind an index probe. NOT IN over a set
// holding a NULL is never TRUE, so both engines must agree on every
// unknown as well as every match.
void DefineSubqueryRuleSet(Engine* engine) {
  ASSERT_OK(engine->Execute("create table p (k int, v int)"));
  ASSERT_OK(engine->Execute("create table q (k int, w int)"));
  ASSERT_OK(engine->Execute("create table hits (x int)"));
  ASSERT_OK(engine->Execute("create index on p (k)"));
  ASSERT_OK(engine->Execute(
      "create rule pin when inserted into p "
      "if exists (select * from inserted p where v not in (select w from q)) "
      "then insert into hits (select k from inserted p "
      "where k in (select k from q))"));
  ASSERT_OK(engine->Execute(
      "create rule qdel when deleted from q "
      "if (select count(*) from p where v not in "
      "(select w from deleted q)) > 0 "
      "then delete from p where k in (select k from deleted q) "
      "and v is not null"));
  ASSERT_OK(engine->Execute(
      "create rule pup when updated p.v "
      "if exists (select * from new updated p.v where v is not null) "
      "then update q set w = null where k not in "
      "(select k from new updated p.v)"));
}

/// A random uncorrelated subquery predicate on `operand`, reading `table`.
std::string RandomSubqueryPredicate(std::mt19937* rng,
                                    const std::string& operand,
                                    const std::string& table,
                                    const std::string& column) {
  std::uniform_int_distribution<int> key(0, 7);
  const char* filters[] = {"", " is null", " is not null", " < "};
  const int f = (*rng)() % 4;
  std::string where;
  if (f > 0) {
    where = " where " + column + filters[f] +
            (f == 3 ? std::to_string(key(*rng)) : "");
  }
  switch ((*rng)() % 4) {
    case 0:
      return operand + " in (select " + column + " from " + table + where +
             ")";
    case 1:
      return operand + " not in (select " + column + " from " + table +
             where + ")";
    case 2:
      return "exists (select * from " + table + where + ")";
    default:
      return "not exists (select * from " + table + where + ")";
  }
}

std::string RandomSubqueryBlock(std::mt19937* rng) {
  std::uniform_int_distribution<int> key(0, 7);
  auto value = [&] {
    return (*rng)() % 3 == 0 ? std::string("null")
                             : std::to_string(key(*rng));
  };
  std::string block;
  const int ops = 1 + (*rng)() % 3;
  for (int i = 0; i < ops; ++i) {
    if (!block.empty()) block += "; ";
    switch ((*rng)() % 9) {
      case 0:
      case 7:
        block += "insert into p values (" + value() + ", " + value() +
                 "), (" + value() + ", " + value() + "), (" + value() +
                 ", " + value() + ")";
        break;
      case 1:
      case 8:
        block += "insert into q values (" + value() + ", " + value() +
                 "), (" + value() + ", " + value() + ")";
        break;
      case 2:
        block += "delete from q where " +
                 RandomSubqueryPredicate(rng, "w", "p", "v");
        break;
      case 3:
        // Index-probed target read, then a subquery predicate.
        block += "delete from p where k = " + std::to_string(key(*rng)) +
                 " and " + RandomSubqueryPredicate(rng, "v", "q", "w");
        break;
      case 4:
        block += "update p set v = v + 1 where " +
                 RandomSubqueryPredicate(rng, "k", "q", "k");
        break;
      case 5:
        block += "update p set v = k where " +
                 RandomSubqueryPredicate(rng, "v", "q", "w");
        break;
      default:
        block += "select k, v from p where " +
                 RandomSubqueryPredicate(rng, "v", "q", "w") +
                 " order by k, v";
        break;
    }
  }
  return block;
}

class VectorizedSubqueryDifferential
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(VectorizedSubqueryDifferential, GeneratedSubqueriesMatch) {
  RuleEngineOptions row_opts;
  row_opts.batch_execution = false;
  Engine row(row_opts);
  Engine batch;
  DefineSubqueryRuleSet(&row);
  DefineSubqueryRuleSet(&batch);

  std::mt19937 rng(GetParam() * 104729u + 3);
  int fired = 0;
  for (int step = 0; step < 40; ++step) {
    const std::string block = RandomSubqueryBlock(&rng);
    auto tr = row.ExecuteBlock(block);
    auto tb = batch.ExecuteBlock(block);
    ASSERT_EQ(tr.ok(), tb.ok()) << "step " << step << ": " << block;
    if (!tr.ok()) {
      EXPECT_EQ(tr.status().code(), tb.status().code())
          << "step " << step << ": " << block;
      EXPECT_EQ(tr.status().message(), tb.status().message())
          << "step " << step << ": " << block;
    } else {
      EXPECT_EQ(TraceSig(tr.value()), TraceSig(tb.value()))
          << "step " << step << ": " << block;
      fired += static_cast<int>(tr.value().firings.size());
    }
    ASSERT_EQ(row.db().Checksum(), batch.db().Checksum())
        << "step " << step << ": " << block;
  }
  // The rules' subqueries over transition tables actually ran.
  EXPECT_GT(fired, 0);
  EXPECT_EQ(Dump(&row, "p", "k, v"), Dump(&batch, "p", "k, v"));
  EXPECT_EQ(Dump(&row, "q", "k, w"), Dump(&batch, "q", "k, w"));
  EXPECT_EQ(Dump(&row, "hits", "x"), Dump(&batch, "hits", "x"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedSubqueryDifferential,
                         ::testing::Range(0u, 6u));

}  // namespace
}  // namespace sopr
