#include <gtest/gtest.h>

#include "exec/expr.h"
#include "exec/layout.h"

namespace popdb {
namespace {

ResolvedPredicate RP(int pos, PredKind kind, Value op,
                     Value op2 = Value::Null()) {
  ResolvedPredicate p;
  p.pos = pos;
  p.kind = kind;
  p.operand = std::move(op);
  p.operand2 = std::move(op2);
  return p;
}

// ----------------------------------------------------------- predicates.

TEST(EvalPredicateTest, Comparisons) {
  const Row row = {Value::Int(5)};
  EXPECT_TRUE(EvalPredicate(RP(0, PredKind::kEq, Value::Int(5)), row));
  EXPECT_FALSE(EvalPredicate(RP(0, PredKind::kEq, Value::Int(6)), row));
  EXPECT_TRUE(EvalPredicate(RP(0, PredKind::kNe, Value::Int(6)), row));
  EXPECT_TRUE(EvalPredicate(RP(0, PredKind::kLt, Value::Int(6)), row));
  EXPECT_FALSE(EvalPredicate(RP(0, PredKind::kLt, Value::Int(5)), row));
  EXPECT_TRUE(EvalPredicate(RP(0, PredKind::kLe, Value::Int(5)), row));
  EXPECT_TRUE(EvalPredicate(RP(0, PredKind::kGt, Value::Int(4)), row));
  EXPECT_TRUE(EvalPredicate(RP(0, PredKind::kGe, Value::Int(5)), row));
  EXPECT_FALSE(EvalPredicate(RP(0, PredKind::kGe, Value::Int(6)), row));
}

TEST(EvalPredicateTest, Between) {
  const Row row = {Value::Int(5)};
  EXPECT_TRUE(EvalPredicate(
      RP(0, PredKind::kBetween, Value::Int(5), Value::Int(7)), row));
  EXPECT_TRUE(EvalPredicate(
      RP(0, PredKind::kBetween, Value::Int(3), Value::Int(5)), row));
  EXPECT_FALSE(EvalPredicate(
      RP(0, PredKind::kBetween, Value::Int(6), Value::Int(9)), row));
}

TEST(EvalPredicateTest, InList) {
  ResolvedPredicate p;
  p.pos = 0;
  p.kind = PredKind::kIn;
  p.in_list = {Value::Int(1), Value::Int(3), Value::Int(5)};
  EXPECT_TRUE(EvalPredicate(p, {Value::Int(3)}));
  EXPECT_FALSE(EvalPredicate(p, {Value::Int(2)}));
}

TEST(EvalPredicateTest, Like) {
  const Row row = {Value::String("PROMO BRASS")};
  EXPECT_TRUE(
      EvalPredicate(RP(0, PredKind::kLike, Value::String("%BRASS%")), row));
  EXPECT_FALSE(
      EvalPredicate(RP(0, PredKind::kLike, Value::String("%STEEL%")), row));
}

TEST(EvalPredicateTest, LikeOnNonStringIsFalse) {
  EXPECT_FALSE(EvalPredicate(RP(0, PredKind::kLike, Value::String("%")),
                             {Value::Int(1)}));
}

TEST(EvalPredicateTest, NullNeverSatisfies) {
  const Row row = {Value::Null()};
  EXPECT_FALSE(EvalPredicate(RP(0, PredKind::kEq, Value::Null()), row));
  EXPECT_FALSE(EvalPredicate(RP(0, PredKind::kLt, Value::Int(100)), row));
  EXPECT_FALSE(EvalPredicate(RP(0, PredKind::kNe, Value::Int(1)), row));
}

TEST(EvalPredicateTest, PositionIsRespected) {
  const Row row = {Value::Int(1), Value::Int(2)};
  EXPECT_TRUE(EvalPredicate(RP(1, PredKind::kEq, Value::Int(2)), row));
  EXPECT_FALSE(EvalPredicate(RP(0, PredKind::kEq, Value::Int(2)), row));
}

TEST(ResolvePredicateTest, BindsParameterMarker) {
  Predicate p;
  p.col = {0, 3};
  p.kind = PredKind::kLt;
  p.is_param = true;
  p.param_index = 1;
  const std::vector<Value> params = {Value::Int(9), Value::Int(42)};
  const ResolvedPredicate r = ResolvePredicate(p, 3, params);
  EXPECT_EQ(3, r.pos);
  EXPECT_EQ(Value::Int(42), r.operand);
}

TEST(ResolvePredicateTest, LiteralPassesThrough) {
  Predicate p;
  p.kind = PredKind::kBetween;
  p.operand = Value::Int(1);
  p.operand2 = Value::Int(5);
  const ResolvedPredicate r = ResolvePredicate(p, 0, {});
  EXPECT_EQ(Value::Int(1), r.operand);
  EXPECT_EQ(Value::Int(5), r.operand2);
}

TEST(PredicateToStringTest, Renders) {
  Predicate p;
  p.col = {1, 2};
  p.kind = PredKind::kEq;
  p.operand = Value::Int(7);
  EXPECT_EQ("t1.c2 = 7", p.ToString());
  p.is_param = true;
  p.param_index = 0;
  EXPECT_EQ("t1.c2 = ?0", p.ToString());
}

// ------------------------------------------------------------- RowLayout.

TEST(RowLayoutTest, SingleTable) {
  const TableColumns columns = {AllColumns(3), AllColumns(2), AllColumns(4)};
  RowLayout layout(TableBit(1), columns);
  EXPECT_EQ(2, layout.width());
  EXPECT_EQ(0, layout.Resolve({1, 0}));
  EXPECT_EQ(1, layout.Resolve({1, 1}));
  EXPECT_EQ(-1, layout.Resolve({0, 0}));
}

TEST(RowLayoutTest, TablesAppearInTableIdOrder) {
  const TableColumns columns = {AllColumns(3), AllColumns(2), AllColumns(4)};
  RowLayout layout(TableBit(0) | TableBit(2), columns);
  EXPECT_EQ(7, layout.width());
  EXPECT_EQ(0, layout.Resolve({0, 0}));
  EXPECT_EQ(2, layout.Resolve({0, 2}));
  EXPECT_EQ(3, layout.Resolve({2, 0}));
  EXPECT_EQ(6, layout.Resolve({2, 3}));
}

TEST(RowLayoutTest, LayoutIsFunctionOfSetNotJoinOrder) {
  const TableColumns columns(4, AllColumns(1));
  // Any join order over {0,1,3} must agree on positions.
  RowLayout layout(TableBit(0) | TableBit(1) | TableBit(3), columns);
  EXPECT_EQ(0, layout.Resolve({0, 0}));
  EXPECT_EQ(1, layout.Resolve({1, 0}));
  EXPECT_EQ(2, layout.Resolve({3, 0}));
}

TEST(RowLayoutTest, CarriesOnlyListedColumns) {
  // Table 0 carries columns 1 and 3, table 1 none, table 2 column 0.
  const TableColumns columns = {{1, 3}, {}, {0}};
  RowLayout layout(TableBit(0) | TableBit(1) | TableBit(2), columns);
  EXPECT_EQ(3, layout.width());
  EXPECT_EQ(0, layout.Resolve({0, 1}));
  EXPECT_EQ(1, layout.Resolve({0, 3}));
  EXPECT_EQ(2, layout.Resolve({2, 0}));
  EXPECT_EQ(-1, layout.Resolve({0, 0}));
  EXPECT_EQ(-1, layout.Resolve({1, 0}));
  EXPECT_EQ(0, RowLayout(TableBit(1), columns).width());
}

TEST(RowLayoutTest, StoredLayoutIsEverySchemaColumn) {
  const RowLayout stored = RowLayout::Stored(2, 4);
  EXPECT_EQ(TableBit(2), stored.table_set());
  EXPECT_EQ(4, stored.width());
  EXPECT_EQ(3, stored.Resolve({2, 3}));
  EXPECT_EQ(-1, stored.Resolve({1, 0}));
}

// ------------------------------------------------------------- MergeSpec.

TEST(MergeSpecTest, MergesIntoTableIdOrder) {
  const TableColumns columns = {AllColumns(2), AllColumns(1), AllColumns(2)};
  RowLayout left(TableBit(2), columns);   // Table 2 first on the left side!
  RowLayout right(TableBit(0), columns);  // Table 0 on the right side.
  RowLayout out(TableBit(0) | TableBit(2), columns);
  const MergeSpec spec = MergeSpec::Make(left, right, out);

  const Row lrow = {Value::Int(20), Value::Int(21)};  // Table 2 columns.
  const Row rrow = {Value::Int(0), Value::Int(1)};    // Table 0 columns.
  const Row merged = spec.Merge(lrow, rrow);
  ASSERT_EQ(4u, merged.size());
  // Table 0 columns first, then table 2.
  EXPECT_EQ(Value::Int(0), merged[0]);
  EXPECT_EQ(Value::Int(1), merged[1]);
  EXPECT_EQ(Value::Int(20), merged[2]);
  EXPECT_EQ(Value::Int(21), merged[3]);
}

TEST(MergeSpecTest, NarrowsAStoredRightRow) {
  // An NLJN over a base-table inner: the inner is its stored row, the
  // output carries only columns 1 and 3 of it.
  const TableColumns columns = {{0}, {1, 3}};
  const MergeSpec spec =
      MergeSpec::Make(RowLayout(TableBit(0), columns), RowLayout::Stored(1, 4),
                      RowLayout(TableBit(0) | TableBit(1), columns));
  const Row merged =
      spec.Merge({Value::Int(7)}, {Value::Int(10), Value::Int(11),
                                   Value::Int(12), Value::Int(13)});
  EXPECT_EQ(Row({Value::Int(7), Value::Int(11), Value::Int(13)}), merged);
}

TEST(MergeSpecTest, ColumnsGathersListedColumnsInOrder) {
  const Row stored = {Value::Int(0), Value::Int(1), Value::Int(2)};
  EXPECT_EQ(Row({Value::Int(0), Value::Int(2)}),
            MergeSpec::Columns({0, 2}).Merge({}, stored));
  EXPECT_TRUE(MergeSpec::Columns({}).Merge({}, stored).empty());
}

// Property: for any disjoint pair of table sets and any carried column
// subsets (empty ones included), merging then resolving a carried column
// gives the same value as reading it from its source row.
class MergeSpecPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MergeSpecPropertyTest, ResolveAfterMergeMatchesSource) {
  const int seed = GetParam();
  const std::vector<int> widths = {2, 3, 1, 2, 1};
  TableColumns columns(widths.size());
  for (int t = 0; t < 5; ++t) {
    for (int c = 0; c < widths[static_cast<size_t>(t)]; ++c) {
      if ((seed + 3 * t + c) % 3 != 0) {
        columns[static_cast<size_t>(t)].push_back(c);
      }
    }
  }
  const TableSet left_set =
      (static_cast<TableSet>(seed) * 7 + 1) % 31 == 0
          ? 1
          : ((static_cast<TableSet>(seed) * 5 + 3) % 31) | 1;
  TableSet right_set = ((static_cast<TableSet>(seed) * 11 + 7) % 31);
  right_set &= ~left_set;
  if (right_set == 0) right_set = (~left_set) & 0x10;
  if (right_set == 0) return;  // Degenerate draw; other seeds cover it.

  RowLayout left(left_set, columns);
  RowLayout right(right_set, columns);
  RowLayout out(left_set | right_set, columns);
  const MergeSpec spec = MergeSpec::Make(left, right, out);
  ASSERT_EQ(static_cast<size_t>(out.width()), spec.sources.size());

  // Fill rows with values encoding (table, column).
  auto fill = [&](const RowLayout& layout) {
    Row row(static_cast<size_t>(layout.width()));
    for (const ColRef& col : layout.columns()) {
      row[static_cast<size_t>(layout.Resolve(col))] =
          Value::Int(col.table_id * 100 + col.column);
    }
    return row;
  };
  const Row merged = spec.Merge(fill(left), fill(right));
  for (int t = 0; t < 5; ++t) {
    if (!ContainsTable(left_set | right_set, t)) continue;
    for (int c : columns[static_cast<size_t>(t)]) {
      EXPECT_EQ(Value::Int(t * 100 + c),
                merged[static_cast<size_t>(out.Resolve({t, c}))])
          << "table " << t << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeSpecPropertyTest,
                         ::testing::Range(0, 16));

TEST(TableSetTest, Helpers) {
  EXPECT_EQ(TableSet{1}, TableBit(0));
  EXPECT_EQ(TableSet{8}, TableBit(3));
  EXPECT_TRUE(ContainsTable(0b1010, 1));
  EXPECT_FALSE(ContainsTable(0b1010, 0));
  EXPECT_EQ(2, PopCount(0b1010));
}

}  // namespace
}  // namespace popdb
