#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/rng.h"
#include "common/string_util.h"
#include "exec/expr.h"
#include "exec/layout.h"
#include "storage/table.h"

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

/// The column types a stored cell can sit in: its own, or any for NULL.
std::vector<ValueType> StoredTypes(const Value& v) {
  if (!v.is_null()) return {v.type()};
  return {ValueType::kInt, ValueType::kDouble, ValueType::kString};
}

/// EvalPredicate's answer on `row`, checked against the typed kernels: the
/// row stored in a one-row table (each NULL cell in a column of every
/// type), tested as a single row and filtered as a chunk.
bool Eval(const ResolvedPredicate& p, const Row& row) {
  const bool expected = EvalPredicate(p, row);
  for (ValueType type : StoredTypes(row[static_cast<size_t>(p.pos)])) {
    std::vector<ColumnDef> defs;
    for (size_t c = 0; c < row.size(); ++c) {
      defs.push_back({"c" + std::to_string(c),
                      static_cast<int>(c) == p.pos
                          ? type
                          : StoredTypes(row[c]).front()});
    }
    Table t("t", Schema(defs));
    t.AppendRow(row);
    const TableSnapshot snap = t.Snapshot();
    const ColumnPredicate kernel(p, type);
    const ColumnChunk& col =
        snap.chunk(0).columns[static_cast<size_t>(p.pos)];
    EXPECT_EQ(expected, kernel.Test(col, 0)) << ValueTypeName(type);
    std::vector<int32_t> sel = {0};
    kernel.Filter(col, &sel);
    EXPECT_EQ(expected, sel.size() == 1) << ValueTypeName(type);
  }
  return expected;
}

// ----------------------------------------------------------- predicates.

TEST(EvalPredicateTest, Comparisons) {
  const Row row = {Value::Int(5)};
  EXPECT_TRUE(Eval(RP(0, PredKind::kEq, Value::Int(5)), row));
  EXPECT_FALSE(Eval(RP(0, PredKind::kEq, Value::Int(6)), row));
  EXPECT_TRUE(Eval(RP(0, PredKind::kNe, Value::Int(6)), row));
  EXPECT_TRUE(Eval(RP(0, PredKind::kLt, Value::Int(6)), row));
  EXPECT_FALSE(Eval(RP(0, PredKind::kLt, Value::Int(5)), row));
  EXPECT_TRUE(Eval(RP(0, PredKind::kLe, Value::Int(5)), row));
  EXPECT_TRUE(Eval(RP(0, PredKind::kGt, Value::Int(4)), row));
  EXPECT_TRUE(Eval(RP(0, PredKind::kGe, Value::Int(5)), row));
  EXPECT_FALSE(Eval(RP(0, PredKind::kGe, Value::Int(6)), row));
}

TEST(EvalPredicateTest, Between) {
  const Row row = {Value::Int(5)};
  EXPECT_TRUE(Eval(
      RP(0, PredKind::kBetween, Value::Int(5), Value::Int(7)), row));
  EXPECT_TRUE(Eval(
      RP(0, PredKind::kBetween, Value::Int(3), Value::Int(5)), row));
  EXPECT_FALSE(Eval(
      RP(0, PredKind::kBetween, Value::Int(6), Value::Int(9)), row));
}

TEST(EvalPredicateTest, InList) {
  ResolvedPredicate p;
  p.pos = 0;
  p.kind = PredKind::kIn;
  p.in_list = {Value::Int(1), Value::Int(3), Value::Int(5)};
  EXPECT_TRUE(Eval(p, {Value::Int(3)}));
  EXPECT_FALSE(Eval(p, {Value::Int(2)}));
}

TEST(EvalPredicateTest, Like) {
  const Row row = {Value::String("PROMO BRASS")};
  EXPECT_TRUE(
      Eval(RP(0, PredKind::kLike, Value::String("%BRASS%")), row));
  EXPECT_FALSE(
      Eval(RP(0, PredKind::kLike, Value::String("%STEEL%")), row));
}

TEST(EvalPredicateTest, LikeOnNonStringIsFalse) {
  EXPECT_FALSE(Eval(RP(0, PredKind::kLike, Value::String("%")),
                             {Value::Int(1)}));
}

/// One predicate of every kind on column 0, with `operand` as its
/// operand, both BETWEEN bounds and the IN list's one element.
std::vector<ResolvedPredicate> EveryKind(const Value& operand) {
  std::vector<ResolvedPredicate> preds;
  for (PredKind kind :
       {PredKind::kEq, PredKind::kNe, PredKind::kLt, PredKind::kLe,
        PredKind::kGt, PredKind::kGe, PredKind::kBetween, PredKind::kIn,
        PredKind::kLike}) {
    ResolvedPredicate p = RP(0, kind, operand, operand);
    if (kind == PredKind::kIn) p.in_list = {operand};
    preds.push_back(p);
  }
  return preds;
}

TEST(EvalPredicateTest, NullNeverSatisfies) {
  // A NULL cell satisfies no predicate of any kind, whatever the operand.
  for (const Value& operand : {Value::Int(1), Value::Double(1.5),
                               Value::String("%"), Value::Null()}) {
    for (const ResolvedPredicate& p : EveryKind(operand)) {
      EXPECT_FALSE(Eval(p, {Value::Null()}))
          << PredKindName(p.kind) << " " << operand.ToString();
    }
  }
  // A NULL operand or bound is SQL's UNKNOWN: no cell satisfies it, so
  // `5 <> NULL`, `5 > NULL` and `5 >= NULL` are false, not true.
  for (const Value& cell :
       {Value::Int(5), Value::Double(5.0), Value::String("x")}) {
    for (const ResolvedPredicate& p : EveryKind(Value::Null())) {
      EXPECT_FALSE(Eval(p, {cell}))
          << PredKindName(p.kind) << " on " << cell.ToString();
    }
    EXPECT_FALSE(Eval(RP(0, PredKind::kBetween, Value::Null(), Value::Int(9)),
                      {cell}));
    EXPECT_FALSE(Eval(RP(0, PredKind::kBetween, Value::Int(0), Value::Null()),
                      {cell}));
  }
  // An IN list's NULL elements match nothing; its other elements still do.
  ResolvedPredicate in = RP(0, PredKind::kIn, Value::Null());
  in.in_list = {Value::Null(), Value::Int(5)};
  EXPECT_TRUE(Eval(in, {Value::Int(5)}));
  EXPECT_FALSE(Eval(in, {Value::Int(6)}));
}

TEST(EvalPredicateTest, PositionIsRespected) {
  const Row row = {Value::Int(1), Value::Int(2)};
  EXPECT_TRUE(Eval(RP(1, PredKind::kEq, Value::Int(2)), row));
  EXPECT_FALSE(Eval(RP(0, PredKind::kEq, Value::Int(2)), row));
}

// Property: over random int, double and string columns whose cells include
// NULL, NaN, +-0.0, ints around +-2^53 and the int64 extremes, a predicate
// of every kind with operands of every type (BETWEEN with lo > hi, IN lists
// mixing types, LIKE) gives exactly EvalPredicateValue's answer on every
// cell, through the chunk filter over a random window and through the
// single-row test; tombstoned rows never pass the filter.
class KernelPropertyTest : public ::testing::TestWithParam<int> {};

Value RandomValue(Rng* rng, ValueType type) {
  constexpr int64_t k53 = int64_t{1} << 53;
  static const int64_t kInts[] = {0,       1,        -1,
                                  k53 - 1, k53,      k53 + 1,
                                  -k53,    -k53 - 1, std::numeric_limits<int64_t>::max(),
                                  std::numeric_limits<int64_t>::min()};
  static const double kDoubles[] = {
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(), 1.0, -1.0, 0.5,
      static_cast<double>(k53), static_cast<double>(k53) + 2.0, 9.3e18,
      -9.3e18, std::numeric_limits<double>::infinity()};
  static const char* kStrings[] = {"", "a", "ab", "abc", "b", "%", "a%",
                                   "%b%", "_b", "a_c", "PROMO BRASS"};
  const bool special = rng->Bernoulli(0.5);
  switch (type) {
    case ValueType::kInt:
      return Value::Int(special ? kInts[rng->UniformInt(0, 9)]
                                : rng->UniformInt(-3, 3));
    case ValueType::kDouble:
      return Value::Double(special ? kDoubles[rng->UniformInt(0, 10)]
                                   : 0.5 * static_cast<double>(
                                               rng->UniformInt(-6, 6)));
    case ValueType::kString:
      return Value::String(kStrings[rng->UniformInt(0, 10)]);
    default:
      return Value::Null();
  }
}

/// NULL one time in eight, else a value of `type` (any type when kNull).
Value RandomCellOrOperand(Rng* rng, ValueType type) {
  if (rng->Bernoulli(0.125)) return Value::Null();
  if (type == ValueType::kNull) {
    type = static_cast<ValueType>(rng->UniformInt(1, 3));
  }
  return RandomValue(rng, type);
}

TEST_P(KernelPropertyTest, FilterAndTestMatchEvalPredicateValue) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1);
  Table t("t", Schema({{"i", ValueType::kInt},
                       {"d", ValueType::kDouble},
                       {"s", ValueType::kString}}));
  for (int64_t r = 0; r < 2500; ++r) {  // Three chunks, the last partial.
    Row row;
    for (int c = 0; c < 3; ++c) {
      row.push_back(RandomCellOrOperand(&rng, t.schema().column(c).type));
    }
    t.AppendRow(std::move(row));
  }
  std::vector<int64_t> dead;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (rng.Bernoulli(0.1)) dead.push_back(r);
  }
  t.DeleteRows(dead);
  const TableSnapshot snap = t.Snapshot();
  std::vector<int32_t> sel;
  for (int trial = 0; trial < 300; ++trial) {
    ResolvedPredicate p;
    p.pos = static_cast<int>(rng.UniformInt(0, 2));
    p.kind = static_cast<PredKind>(rng.UniformInt(0, 8));
    p.operand = RandomCellOrOperand(&rng, ValueType::kNull);
    p.operand2 = RandomCellOrOperand(&rng, ValueType::kNull);
    for (int64_t k = rng.UniformInt(0, 4); k > 0; --k) {
      p.in_list.push_back(RandomCellOrOperand(&rng, ValueType::kNull));
    }
    SCOPED_TRACE(StrFormat("trial %d: c%d %s %s / %s", trial, p.pos,
                           PredKindName(p.kind),
                           p.operand.ToString().c_str(),
                           p.operand2.ToString().c_str()));
    const ColumnPredicate kernel(p, t.schema().column(p.pos).type);
    const ChunkFilter filter({p}, t.schema());
    for (size_t ci = 0; ci < snap.num_chunks(); ++ci) {
      const TableChunk& chunk = snap.chunk(ci);
      const ColumnChunk& col = chunk.columns[static_cast<size_t>(p.pos)];
      const size_t begin = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(chunk.size())));
      const size_t end = static_cast<size_t>(rng.UniformInt(
          static_cast<int64_t>(begin), static_cast<int64_t>(chunk.size())));
      filter.Select(chunk, begin, end, &sel);
      size_t k = 0;
      for (size_t off = 0; off < chunk.size(); ++off) {
        const int64_t rid = (static_cast<int64_t>(ci) << kTableChunkShift) +
                            static_cast<int64_t>(off);
        const Value cell = snap.Cell(rid, p.pos);
        const bool want = EvalPredicateValue(p, cell);
        ASSERT_EQ(want, kernel.Test(col, off)) << "cell " << cell.ToString();
        if (off < begin || off >= end) continue;
        const bool selected =
            k < sel.size() && sel[k] == static_cast<int32_t>(off);
        if (selected) ++k;
        ASSERT_EQ(want && chunk.live[off] != 0, selected)
            << "cell " << cell.ToString();
      }
      ASSERT_EQ(k, sel.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelPropertyTest, ::testing::Range(0, 8));

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
