// Unit tests for JoinHashTable key-digest normalization
// (docs/EXECUTION.md): rows with a NULL key column are never inserted and
// a NULL probe key matches nothing; numeric keys are normalized through
// double so int 2 and double 2.0 share a bucket and -0.0 collapses with
// +0.0; composite keys mix per-column digests in column order; and bucket
// contents come back in ascending build-row order.

#include "exec/hash_join.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "exec/stats.h"
#include "types/row.h"
#include "types/value.h"

namespace sopr {
namespace exec {
namespace {

std::vector<uint32_t> ProbeOne(const JoinHashTable& table,
                               const std::vector<Value>& key) {
  std::vector<const Value*> ptrs;
  for (const Value& v : key) ptrs.push_back(&v);
  std::vector<uint32_t> out;
  table.Probe(ptrs, &out);
  return out;
}

/// Builds `table` over `rows` with no row cap, asserting success.
void BuildOk(const std::vector<Row>& rows,
             const std::vector<size_t>& key_cols, JoinHashTable* table) {
  auto built = table->Build(rows, key_cols, 0);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value());
}

TEST(HashJoinKeyValueTest, NumericNormalization) {
  // int 2 and double 2.0 SqlEquals, so they must share a digest; -0.0
  // and +0.0 likewise. Distinct values may collide in principle (it is
  // a hash), but these sanity pairs must never split.
  EXPECT_EQ(HashJoinKeyValue(Value::Int(2)),
            HashJoinKeyValue(Value::Double(2.0)));
  EXPECT_EQ(HashJoinKeyValue(Value::Double(-0.0)),
            HashJoinKeyValue(Value::Double(0.0)));
  EXPECT_EQ(HashJoinKeyValue(Value::Int(0)),
            HashJoinKeyValue(Value::Double(-0.0)));
  EXPECT_NE(HashJoinKeyValue(Value::String("")),
            HashJoinKeyValue(Value::String("a")));
}

TEST(JoinHashTableTest, NullKeysNeverInsertedOrMatched) {
  std::vector<Row> rows = {
      Row({Value::Int(1), Value::String("a")}),
      Row({Value::Null(), Value::String("null-key")}),
      Row({Value::Int(1), Value::String("b")}),
  };
  JoinHashTable table;
  auto built = table.Build(rows, {0}, 0);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value());

  // The NULL-keyed row 1 is not in the table: probing every non-NULL
  // key present can only surface rows 0 and 2.
  EXPECT_EQ(ProbeOne(table, {Value::Int(1)}),
            (std::vector<uint32_t>{0, 2}));
  // A NULL probe key matches nothing — not even the NULL-keyed row.
  EXPECT_TRUE(ProbeOne(table, {Value::Null()}).empty());
}

TEST(JoinHashTableTest, NullKeysSkippedAmongDuplicates) {
  std::vector<Row> rows = {
      Row({Value::Null(), Value::Int(0)}),
      Row({Value::Int(7), Value::Int(1)}),
      Row({Value::Null(), Value::Int(2)}),
      Row({Value::Int(7), Value::Int(3)}),
  };
  JoinHashTable table;
  BuildOk(rows, {0}, &table);
  EXPECT_EQ(ProbeOne(table, {Value::Int(7)}), (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(ProbeOne(table, {Value::Double(7.0)}),
            (std::vector<uint32_t>{1, 3}));
  EXPECT_TRUE(ProbeOne(table, {Value::Null()}).empty());
  EXPECT_TRUE(ProbeOne(table, {Value::Int(8)}).empty());
}

TEST(JoinHashTableTest, NegativeZeroCollapses) {
  // Keys -0.0, +0.0, and int 0 all SqlEquals; the build must put all of
  // them in one bucket, emitted in ascending build-row order, and a
  // probe by any spelling of zero finds all of them.
  std::vector<Row> rows = {
      Row({Value::Double(-0.0)}),
      Row({Value::Double(0.0)}),
      Row({Value::Double(1.5)}),
      Row({Value::Double(-0.0)}),
  };
  JoinHashTable table;
  BuildOk(rows, {0}, &table);
  const std::vector<uint32_t> zeros{0, 1, 3};
  const std::vector<std::vector<Value>> keys = {
      {Value::Double(-0.0)}, {Value::Double(0.0)}, {Value::Int(0)}};
  for (const auto& key : keys) {
    EXPECT_EQ(ProbeOne(table, key), zeros);
  }
}

TEST(JoinHashTableTest, IntDoubleKeysShareBuckets) {
  // An int build column probed by double keys (and vice versa): the
  // digest normalization through double bits must line up, including
  // values above 2^53 where (double) conversion is lossy — lossy
  // identically on both sides, so SqlEquals-equal keys still meet.
  constexpr int64_t kBig = (int64_t{1} << 53) + 1;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  std::vector<Row> rows = {
      Row({Value::Int(2)}),
      Row({Value::Int(-3)}),
      Row({Value::Int(kBig)}),
      Row({Value::Int(kMin)}),
  };
  JoinHashTable table;
  BuildOk(rows, {0}, &table);
  EXPECT_EQ(ProbeOne(table, {Value::Double(2.0)}),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(ProbeOne(table, {Value::Int(2)}), (std::vector<uint32_t>{0}));
  EXPECT_EQ(ProbeOne(table, {Value::Double(-3.0)}),
            (std::vector<uint32_t>{1}));
  EXPECT_EQ(ProbeOne(table, {Value::Int(kBig)}), (std::vector<uint32_t>{2}));
  EXPECT_EQ(ProbeOne(table, {Value::Int(kMin)}), (std::vector<uint32_t>{3}));
}

TEST(JoinHashTableTest, MultiColumnKeys) {
  // Composite (int, string) keys: per-column digests are mixed in
  // column order, NULL in ANY key column drops the row, and bucket
  // order stays ascending.
  static const std::string kLong(300, 'q');
  std::vector<Row> rows = {
      Row({Value::Int(1), Value::String("a")}),
      Row({Value::Int(1), Value::String("b")}),
      Row({Value::Int(1), Value::Null()}),
      Row({Value::Null(), Value::String("a")}),
      Row({Value::Int(1), Value::String("a")}),
      Row({Value::Int(2), Value::String(kLong)}),
      Row({Value::Int(1), Value::String("")}),
  };
  JoinHashTable table;
  BuildOk(rows, {0, 1}, &table);
  EXPECT_EQ(ProbeOne(table, {Value::Int(1), Value::String("a")}),
            (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(ProbeOne(table, {Value::Double(1.0), Value::String("a")}),
            (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(ProbeOne(table, {Value::Int(1), Value::String("b")}),
            (std::vector<uint32_t>{1}));
  EXPECT_EQ(ProbeOne(table, {Value::Int(1), Value::String("")}),
            (std::vector<uint32_t>{6}));
  EXPECT_EQ(ProbeOne(table, {Value::Int(2), Value::String(kLong)}),
            (std::vector<uint32_t>{5}));
  EXPECT_TRUE(ProbeOne(table, {Value::Int(1), Value::Null()}).empty());
  EXPECT_TRUE(ProbeOne(table, {Value::Null(), Value::String("a")}).empty());
}

TEST(JoinHashTableTest, BuildHonorsMaxBuildRows) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(Row({Value::Int(i)}));
  const uint64_t fallbacks = GlobalStats().hash_join_fallbacks.load();
  JoinHashTable table;
  auto built = table.Build(rows, {0}, 4);
  ASSERT_TRUE(built.ok());
  EXPECT_FALSE(built.value()) << "cap of 4 must reject a 10-row build";
  EXPECT_GT(GlobalStats().hash_join_fallbacks.load(), fallbacks);
}

TEST(JoinHashTableTest, BuildBumpsEngagementCounter) {
  std::vector<Row> rows = {Row({Value::Int(1)}), Row({Value::Int(2)})};
  const uint64_t builds = GlobalStats().hash_join_builds.load();
  JoinHashTable table;
  BuildOk(rows, {0}, &table);
  EXPECT_GT(GlobalStats().hash_join_builds.load(), builds);
}

}  // namespace
}  // namespace exec
}  // namespace sopr
