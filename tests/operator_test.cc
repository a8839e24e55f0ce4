#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/agg.h"
#include "exec/check.h"
#include "exec/join.h"
#include "exec/parallel.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "storage/index.h"
#include "storage/table.h"

namespace popdb {
namespace {

/// Drains `op` through NextBatch with the context's batch size; records
/// the terminal status in *final_status.
std::vector<Row> DrainBatches(Operator* op, ExecContext* ctx,
                              ExecStatus* final_status) {
  std::vector<Row> out;
  EXPECT_EQ(ExecStatus::kOk, op->Open(ctx));
  RowBatch batch;
  ExecStatus s;
  while ((s = op->NextBatch(ctx, &batch)) == ExecStatus::kRow) {
    batch.MoveRowsInto(&out);
  }
  *final_status = s;
  op->Close(ctx);
  return out;
}

/// Drains `op` one row per batch (batch size 1); EXPECTs clean EOF.
std::vector<Row> Drain(Operator* op, ExecContext* ctx) {
  ctx->batch_rows = 1;
  ExecStatus s;
  std::vector<Row> out = DrainBatches(op, ctx, &s);
  EXPECT_EQ(ExecStatus::kEof, s);
  return out;
}

std::vector<std::string> Canon(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(RowToString(r));
  std::sort(out.begin(), out.end());
  return out;
}

/// Two joinable tables shared by the operator tests:
///   left(key int, tag int)    40 rows, key = i % 10
///   right(key int, val int)   25 rows, key = i % 5
struct JoinFixture {
  JoinFixture()
      : left_("left", Schema({{"key", ValueType::kInt},
                              {"tag", ValueType::kInt}})),
        right_("right", Schema({{"key", ValueType::kInt},
                                {"val", ValueType::kInt}})) {
    for (int64_t i = 0; i < 40; ++i) {
      left_.AppendRow({Value::Int(i % 10), Value::Int(i)});
    }
    for (int64_t i = 0; i < 25; ++i) {
      right_.AppendRow({Value::Int(i % 5), Value::Int(100 + i)});
    }
  }

  std::unique_ptr<TableScanOp> ScanLeft(
      std::vector<ResolvedPredicate> preds = {}) {
    return std::make_unique<TableScanOp>(&left_, 0, std::move(preds));
  }
  std::unique_ptr<TableScanOp> ScanRight(
      std::vector<ResolvedPredicate> preds = {}) {
    return std::make_unique<TableScanOp>(&right_, 1, std::move(preds));
  }
  MergeSpec JoinMerge() {
    return MergeSpec::Make(RowLayout(TableBit(0), columns_),
                           RowLayout(TableBit(1), columns_),
                           RowLayout(TableBit(0) | TableBit(1), columns_));
  }
  /// Reference join result via HSJN in plentiful memory.
  std::vector<Row> ReferenceJoin() {
    ExecContext ctx;
    HsjnOp join(ScanLeft(), ScanRight(), {0}, {0}, JoinMerge(),
                TableBit(0) | TableBit(1), CheckSpec{}, false);
    return Drain(&join, &ctx);
  }

  Table left_;
  Table right_;
  TableColumns columns_ = {AllColumns(2), AllColumns(2)};
};

class OperatorTest : public ::testing::Test, protected JoinFixture {};

// -------------------------------------------------------------- TableScan.

TEST_F(OperatorTest, TableScanReturnsAllRows) {
  ExecContext ctx;
  auto scan = ScanLeft();
  EXPECT_EQ(40u, Drain(scan.get(), &ctx).size());
  EXPECT_TRUE(scan->eof_seen());
  EXPECT_EQ(40, scan->rows_produced());
  EXPECT_EQ(40, ctx.work);
}

TEST_F(OperatorTest, TableScanAppliesPredicates) {
  ExecContext ctx;
  ResolvedPredicate p;
  p.pos = 0;
  p.kind = PredKind::kEq;
  p.operand = Value::Int(3);
  auto scan = ScanLeft({p});
  const std::vector<Row> rows = Drain(scan.get(), &ctx);
  ASSERT_EQ(4u, rows.size());
  for (const Row& r : rows) EXPECT_EQ(Value::Int(3), r[0]);
}

TEST_F(OperatorTest, TableScanConjunction) {
  ExecContext ctx;
  ResolvedPredicate p1{0, PredKind::kEq, Value::Int(3), {}, {}};
  ResolvedPredicate p2{1, PredKind::kGt, Value::Int(20), {}, {}};
  auto scan = ScanLeft({p1, p2});
  const std::vector<Row> rows = Drain(scan.get(), &ctx);
  ASSERT_EQ(2u, rows.size());  // tags 23 and 33.
}

// ------------------------------------------------------------ MatViewScan.

TEST_F(OperatorTest, MatViewScanStreamsStoredRows) {
  const std::vector<Row> stored = {{Value::Int(1)}, {Value::Int(2)}};
  ExecContext ctx;
  MatViewScanOp scan(std::make_shared<const std::vector<Row>>(stored),
                     TableBit(0));
  EXPECT_EQ(Canon(stored), Canon(Drain(&scan, &ctx)));
}

// ------------------------------------------------------------- Temp/Sort.

TEST_F(OperatorTest, TempPreservesRowsAndHarvests) {
  ExecContext ctx;
  SortOp temp(ScanLeft(), {}, TableBit(0));
  EXPECT_STREQ("TEMP", temp.name());
  const std::vector<Row> rows = Drain(&temp, &ctx);
  ExecContext scan_ctx;
  EXPECT_EQ(Drain(ScanLeft().get(), &scan_ctx), rows);  // Input order.
  HarvestedResult info;
  ASSERT_TRUE(temp.HarvestInfo(&info));
  EXPECT_TRUE(info.complete);
  EXPECT_EQ(40, info.count);
  EXPECT_EQ(TableBit(0), info.table_set);
  ASSERT_NE(nullptr, info.rows);
  EXPECT_EQ(40u, info.rows->size());
  // Registered itself for harvesting.
  ASSERT_EQ(1u, ctx.materializers.size());
}

TEST_F(OperatorTest, SortOrdersAscending) {
  ExecContext ctx;
  SortOp sort(ScanLeft(), {SortKey{0, false}, SortKey{1, false}},
              TableBit(0));
  const std::vector<Row> rows = Drain(&sort, &ctx);
  ASSERT_EQ(40u, rows.size());
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1][0].AsInt(), rows[i][0].AsInt());
  }
}

TEST_F(OperatorTest, SortDescending) {
  ExecContext ctx;
  SortOp sort(ScanLeft(), {SortKey{1, true}}, TableBit(0));
  const std::vector<Row> rows = Drain(&sort, &ctx);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1][1].AsInt(), rows[i][1].AsInt());
  }
}

// Property: external sort (tiny memory, spilled runs + merge) produces the
// same ordering as in-memory sort, for various memory budgets.
class SortSpillTest : public ::testing::TestWithParam<int> {};

TEST_P(SortSpillTest, ExternalSortMatchesInMemory) {
  Table t("t", Schema({{"v", ValueType::kInt}}));
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    t.AppendRow({Value::Int(rng.UniformInt(0, 100))});
  }
  auto run = [&](int64_t mem) {
    ExecContext ctx;
    ctx.mem_rows = mem;
    SortOp sort(std::make_unique<TableScanOp>(
                    &t, 0, std::vector<ResolvedPredicate>{}),
                {SortKey{0, false}}, TableBit(0));
    return Drain(&sort, &ctx);
  };
  const std::vector<Row> in_memory = run(1 << 20);
  const std::vector<Row> external = run(GetParam());
  ASSERT_EQ(in_memory.size(), external.size());
  for (size_t i = 0; i < in_memory.size(); ++i) {
    EXPECT_EQ(in_memory[i][0], external[i][0]) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(MemoryBudgets, SortSpillTest,
                         ::testing::Values(1, 3, 7, 16, 63, 128, 499));

// ------------------------------------------------------------------ HSJN.

TEST_F(OperatorTest, HsjnInMemoryJoin) {
  const std::vector<Row> rows = ReferenceJoin();
  // Each left row with key < 5 matches 5 right rows: 20 * 5 = 100.
  EXPECT_EQ(100u, rows.size());
  // Output layout is canonical: left columns then right columns.
  for (const Row& r : rows) {
    ASSERT_EQ(4u, r.size());
    EXPECT_EQ(r[0], r[2]);  // Join keys equal.
  }
}

class HsjnSpillTest : public ::testing::TestWithParam<int> {};

TEST_P(HsjnSpillTest, PartitionedJoinMatchesInMemory) {
  JoinFixture fixture;
  const std::vector<Row> expected = fixture.ReferenceJoin();
  ExecContext ctx;
  ctx.mem_rows = GetParam();  // Below build size: forces partitioning.
  HsjnOp join(fixture.ScanLeft(), fixture.ScanRight(), {0}, {0},
              fixture.JoinMerge(), TableBit(0) | TableBit(1), CheckSpec{},
              false);
  EXPECT_EQ(Canon(expected), Canon(Drain(&join, &ctx)));
}

INSTANTIATE_TEST_SUITE_P(MemoryBudgets, HsjnSpillTest,
                         ::testing::Values(1, 2, 5, 10, 24));

TEST_F(OperatorTest, HsjnEmptyBuild) {
  ExecContext ctx;
  ResolvedPredicate never{0, PredKind::kEq, Value::Int(-1), {}, {}};
  HsjnOp join(ScanLeft(), ScanRight({never}), {0}, {0}, JoinMerge(),
              TableBit(0) | TableBit(1), CheckSpec{}, false);
  EXPECT_TRUE(Drain(&join, &ctx).empty());
}

TEST_F(OperatorTest, HsjnBuildCheckFires) {
  ExecContext ctx;
  CheckSpec check;
  check.enabled = true;
  check.lo = 0;
  check.hi = 10;  // Build has 25 rows: violated.
  check.edge_set = TableBit(1);
  HsjnOp join(ScanLeft(), ScanRight(), {0}, {0}, JoinMerge(),
              TableBit(0) | TableBit(1), check, false);
  EXPECT_EQ(ExecStatus::kReoptimize, join.Open(&ctx));
  EXPECT_TRUE(ctx.reopt.triggered);
  EXPECT_EQ(25, ctx.reopt.observed_rows);
  EXPECT_TRUE(ctx.reopt.exact);
  EXPECT_EQ(TableBit(1), ctx.reopt.edge_set);
}

TEST_F(OperatorTest, HsjnHarvestOffersBuildOnlyWhenEnabled) {
  for (const bool offer : {false, true}) {
    ExecContext ctx;
    HsjnOp join(ScanLeft(), ScanRight(), {0}, {0}, JoinMerge(),
                TableBit(0) | TableBit(1), CheckSpec{}, offer);
    Drain(&join, &ctx);
    HarvestedResult info;
    ASSERT_TRUE(join.HarvestInfo(&info));
    EXPECT_TRUE(info.complete);
    EXPECT_EQ(25, info.count);
    EXPECT_EQ(offer, info.rows != nullptr);
  }
}

// ------------------------------------------------------------------ MGJN.

TEST_F(OperatorTest, MgjnMatchesHsjn) {
  const std::vector<Row> expected = ReferenceJoin();
  ExecContext ctx;
  auto lsort =
      std::make_unique<SortOp>(ScanLeft(), std::vector<SortKey>{{0, false}},
                               TableBit(0));
  auto rsort =
      std::make_unique<SortOp>(ScanRight(), std::vector<SortKey>{{0, false}},
                               TableBit(1));
  MgjnOp join(std::move(lsort), std::move(rsort), {0}, {0}, JoinMerge(),
              TableBit(0) | TableBit(1));
  EXPECT_EQ(Canon(expected), Canon(Drain(&join, &ctx)));
}

TEST_F(OperatorTest, MgjnEmptySide) {
  ExecContext ctx;
  ResolvedPredicate never{0, PredKind::kEq, Value::Int(-1), {}, {}};
  auto lsort = std::make_unique<SortOp>(
      ScanLeft({never}), std::vector<SortKey>{{0, false}}, TableBit(0));
  auto rsort = std::make_unique<SortOp>(
      ScanRight(), std::vector<SortKey>{{0, false}}, TableBit(1));
  MgjnOp join(std::move(lsort), std::move(rsort), {0}, {0}, JoinMerge(),
              TableBit(0) | TableBit(1));
  EXPECT_TRUE(Drain(&join, &ctx).empty());
}

// ------------------------------------------------------------------ NLJN.

TEST_F(OperatorTest, NljnScanInnerMatchesHsjn) {
  const std::vector<Row> expected = ReferenceJoin();
  ExecContext ctx;
  InnerAccess inner;
  inner.table = &right_;
  inner.table_id = 1;
  inner.join_conds = {{0, 0}};
  NljnOp join(ScanLeft(), std::move(inner), JoinMerge(),
              TableBit(0) | TableBit(1));
  EXPECT_EQ(Canon(expected), Canon(Drain(&join, &ctx)));
}

TEST_F(OperatorTest, NljnIndexInnerMatchesHsjn) {
  const std::vector<Row> expected = ReferenceJoin();
  const HashIndex index(right_, 0);
  ExecContext ctx;
  InnerAccess inner;
  inner.table = &right_;
  inner.table_id = 1;
  inner.join_conds = {{0, 0}};
  inner.index = &index;
  NljnOp join(ScanLeft(), std::move(inner), JoinMerge(),
              TableBit(0) | TableBit(1));
  EXPECT_EQ(Canon(expected), Canon(Drain(&join, &ctx)));
}

TEST_F(OperatorTest, NljnInnerLocalPredicates) {
  ExecContext ctx;
  InnerAccess inner;
  inner.table = &right_;
  inner.table_id = 1;
  inner.join_conds = {{0, 0}};
  inner.local_preds = {{1, PredKind::kGe, Value::Int(120), {}, {}}};
  NljnOp join(ScanLeft(), std::move(inner), JoinMerge(),
              TableBit(0) | TableBit(1));
  const std::vector<Row> rows = Drain(&join, &ctx);
  for (const Row& r : rows) EXPECT_GE(r[3].AsInt(), 120);
  EXPECT_EQ(20u, rows.size());  // right vals 120..124, keys 0..4: 20*1 each?
}

TEST_F(OperatorTest, NljnMatviewInner) {
  // Inner over a materialized view instead of a base table.
  std::vector<Row> mv_rows;
  for (int64_t i = 0; i < 25; ++i) {
    mv_rows.push_back({Value::Int(i % 5), Value::Int(100 + i)});
  }
  const std::vector<Row> expected = ReferenceJoin();
  ExecContext ctx;
  InnerAccess inner;
  inner.mv_rows = std::make_shared<const std::vector<Row>>(std::move(mv_rows));
  inner.table_id = 1;
  inner.join_conds = {{0, 0}};
  NljnOp join(ScanLeft(), std::move(inner), JoinMerge(),
              TableBit(0) | TableBit(1));
  EXPECT_EQ(Canon(expected), Canon(Drain(&join, &ctx)));
}

// --------------------------------------------------------------- HashAgg.

TEST_F(OperatorTest, HashAggCountSumMinMaxAvg) {
  ExecContext ctx;
  std::vector<ResolvedAgg> aggs = {{AggFunc::kCount, 0},
                                   {AggFunc::kSum, 1},
                                   {AggFunc::kMin, 1},
                                   {AggFunc::kMax, 1},
                                   {AggFunc::kAvg, 1}};
  HashAggOp agg(ScanLeft(), {0}, aggs);
  const std::vector<Row> rows = Drain(&agg, &ctx);
  ASSERT_EQ(10u, rows.size());  // 10 distinct keys.
  for (const Row& r : rows) {
    const int64_t key = r[0].AsInt();
    EXPECT_EQ(4, r[1].AsInt());  // 4 rows per key.
    // tags are key, key+10, key+20, key+30.
    EXPECT_DOUBLE_EQ(static_cast<double>(4 * key + 60), r[2].AsDouble());
    EXPECT_EQ(Value::Int(key), r[3]);
    EXPECT_EQ(Value::Int(key + 30), r[4]);
    EXPECT_DOUBLE_EQ(static_cast<double>(key) + 15.0, r[5].AsDouble());
  }
}

TEST_F(OperatorTest, HashAggGlobalAggregation) {
  ExecContext ctx;
  HashAggOp agg(ScanLeft(), {}, {{AggFunc::kCount, 0}});
  const std::vector<Row> rows = Drain(&agg, &ctx);
  ASSERT_EQ(1u, rows.size());
  EXPECT_EQ(Value::Int(40), rows[0][0]);
}

TEST_F(OperatorTest, HashAggIgnoresNullsInAggregates) {
  Table t("t", Schema({{"g", ValueType::kInt}, {"v", ValueType::kInt}}));
  t.AppendRow({Value::Int(1), Value::Int(10)});
  t.AppendRow({Value::Int(1), Value::Null()});
  ExecContext ctx;
  HashAggOp agg(std::make_unique<TableScanOp>(
                    &t, 0, std::vector<ResolvedPredicate>{}),
                {0}, {{AggFunc::kSum, 1}, {AggFunc::kCount, 0}});
  const std::vector<Row> rows = Drain(&agg, &ctx);
  ASSERT_EQ(1u, rows.size());
  EXPECT_DOUBLE_EQ(10.0, rows[0][1].AsDouble());
  EXPECT_EQ(Value::Int(2), rows[0][2]);  // COUNT counts rows.
}

// -------------------------------------------------------- Project/Filter.

TEST_F(OperatorTest, ProjectSelectsPositions) {
  ExecContext ctx;
  ProjectOp project(ScanLeft(), {1});
  const std::vector<Row> rows = Drain(&project, &ctx);
  ASSERT_EQ(40u, rows.size());
  EXPECT_EQ(1u, rows[0].size());
}

TEST_F(OperatorTest, FilterDropsRows) {
  ExecContext ctx;
  FilterOp filter(ScanLeft(),
                  {{0, PredKind::kLt, Value::Int(2), {}, {}}}, TableBit(0));
  EXPECT_EQ(8u, Drain(&filter, &ctx).size());
}

// ----------------------------------------------------------------- CHECK.

CheckSpec MakeCheck(double lo, double hi, bool observe = false) {
  CheckSpec c;
  c.enabled = true;
  c.lo = lo;
  c.hi = hi;
  c.edge_set = TableBit(0);
  c.observe_only = observe;
  return c;
}

TEST_F(OperatorTest, CheckPassesWithinRange) {
  ExecContext ctx;
  CheckOp check(ScanLeft(), MakeCheck(10, 100));
  EXPECT_EQ(40u, Drain(&check, &ctx).size());
  EXPECT_FALSE(ctx.reopt.triggered);
  ASSERT_EQ(1u, ctx.check_events.size());
  EXPECT_FALSE(ctx.check_events[0].fired);
  EXPECT_EQ(40, ctx.check_events[0].count);
}

TEST_F(OperatorTest, CheckFiresAboveUpperBoundWithLowerBoundSignal) {
  ExecContext ctx;
  ctx.batch_rows = 1;
  CheckOp check(ScanLeft(), MakeCheck(0, 9.5));
  ExecStatus s = ExecStatus::kOk;
  const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
  EXPECT_EQ(ExecStatus::kReoptimize, s);
  EXPECT_EQ(9u, rows.size());  // Fired while processing the 10th row.
  EXPECT_TRUE(ctx.reopt.triggered);
  EXPECT_FALSE(ctx.reopt.exact);  // Count is only a lower bound.
  EXPECT_EQ(10, ctx.reopt.observed_rows);
}

TEST_F(OperatorTest, CheckFiresBelowLowerBoundAtEofExactly) {
  ExecContext ctx;
  ctx.batch_rows = 1;
  CheckOp check(ScanLeft(), MakeCheck(50, 1e9));
  ExecStatus s = ExecStatus::kOk;
  const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
  EXPECT_EQ(ExecStatus::kReoptimize, s);
  EXPECT_EQ(40u, rows.size());  // Everything flowed; violation found at EOF.
  EXPECT_TRUE(ctx.reopt.exact);
  EXPECT_EQ(40, ctx.reopt.observed_rows);
}

TEST_F(OperatorTest, CheckObserveOnlyNeverFires) {
  ExecContext ctx;
  CheckOp check(ScanLeft(), MakeCheck(0, 1, /*observe=*/true));
  EXPECT_EQ(40u, Drain(&check, &ctx).size());
  EXPECT_FALSE(ctx.reopt.triggered);
  ASSERT_EQ(1u, ctx.check_events.size());
  EXPECT_TRUE(ctx.check_events[0].fired);
}

TEST_F(OperatorTest, CheckMaterializedEvaluatesOnceAtOpen) {
  ExecContext ctx;
  auto temp = std::make_unique<SortOp>(ScanLeft(), std::vector<SortKey>{},
                                       TableBit(0));
  CheckMaterializedOp check(std::move(temp), MakeCheck(0, 10));
  EXPECT_EQ(ExecStatus::kReoptimize, check.Open(&ctx));
  EXPECT_TRUE(ctx.reopt.triggered);
  EXPECT_TRUE(ctx.reopt.exact);
  EXPECT_EQ(40, ctx.reopt.observed_rows);
}

TEST_F(OperatorTest, CheckMaterializedPassesAndStreams) {
  ExecContext ctx;
  auto temp = std::make_unique<SortOp>(ScanLeft(), std::vector<SortKey>{},
                                       TableBit(0));
  CheckMaterializedOp check(std::move(temp), MakeCheck(0, 100));
  EXPECT_EQ(40u, Drain(&check, &ctx).size());
  EXPECT_FALSE(ctx.reopt.triggered);
}

// ----------------------------------------- CHECK at batch boundaries.

TEST_F(OperatorTest, CheckBatchMidBatchViolationFiresOnceAtBoundary) {
  // Batch size 1 reference: hi = 9.5 over a 40-row scan emits 9 rows, then
  // fires while processing the 10th (observed_rows = 10, inexact). Larger
  // batches must do exactly the same even when the threshold row sits
  // mid-batch, and must evaluate once per batch, not per row.
  ExecContext row_ctx;
  row_ctx.batch_rows = 1;
  std::vector<Row> row_rows;
  {
    CheckOp check(ScanLeft(), MakeCheck(0, 9.5));
    ExecStatus s;
    row_rows = DrainBatches(&check, &row_ctx, &s);
    EXPECT_EQ(ExecStatus::kReoptimize, s);
  }

  for (const int64_t batch_rows : {2, 3, 8, 1024}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    ExecContext ctx;
    ctx.batch_rows = batch_rows;
    CheckOp check(ScanLeft(), MakeCheck(0, 9.5));
    ExecStatus s;
    const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
    EXPECT_EQ(ExecStatus::kReoptimize, s);
    // Bit-identical emitted prefix (values and order).
    ASSERT_EQ(row_rows.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(row_rows[i], rows[i]);
    // Same re-opt decision payload.
    EXPECT_TRUE(ctx.reopt.triggered);
    EXPECT_FALSE(ctx.reopt.exact);
    EXPECT_EQ(row_ctx.reopt.observed_rows, ctx.reopt.observed_rows);
    // Fired exactly once, with the batch-size-1 observed count.
    ASSERT_EQ(1u, ctx.check_events.size());
    EXPECT_TRUE(ctx.check_events[0].fired);
    EXPECT_EQ(row_ctx.check_events[0].count, ctx.check_events[0].count);
    // The child's produced-row accounting was reconciled to consumed rows.
    EXPECT_EQ(10, check.children()[0]->rows_produced());
    EXPECT_EQ(9, check.rows_produced());
  }
}

TEST_F(OperatorTest, CheckBatchObserveOnlyRecordsRowExactCount) {
  ExecContext ctx;
  ctx.batch_rows = 8;
  CheckOp check(ScanLeft(), MakeCheck(0, 9.5, /*observe=*/true));
  ExecStatus s;
  const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
  EXPECT_EQ(ExecStatus::kEof, s);
  EXPECT_EQ(40u, rows.size());  // Observation never truncates.
  EXPECT_FALSE(ctx.reopt.triggered);
  ASSERT_EQ(1u, ctx.check_events.size());
  EXPECT_TRUE(ctx.check_events[0].fired);
  EXPECT_EQ(10, ctx.check_events[0].count);  // Row-exact count at the fire.
}

TEST_F(OperatorTest, CheckBatchLowerBoundFiresAtEofExactly) {
  ExecContext ctx;
  ctx.batch_rows = 16;
  CheckOp check(ScanLeft(), MakeCheck(50, 1e9));
  ExecStatus s;
  const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
  EXPECT_EQ(ExecStatus::kReoptimize, s);
  EXPECT_EQ(40u, rows.size());  // Everything flowed; violation at EOF.
  EXPECT_TRUE(ctx.reopt.exact);
  EXPECT_EQ(40, ctx.reopt.observed_rows);
}

TEST_F(OperatorTest, BufCheckBatchDrainFiresWithRowExactCount) {
  // BUFCHECK buffers like a valve: on a finite-hi violation nothing was
  // emitted and the count is a lower bound through the violating row.
  ExecContext ctx;
  ctx.batch_rows = 8;
  BufCheckOp check(ScanLeft(), MakeCheck(0, 9.5));
  EXPECT_EQ(ExecStatus::kReoptimize, check.Open(&ctx));
  EXPECT_TRUE(ctx.reopt.triggered);
  EXPECT_FALSE(ctx.reopt.exact);
  EXPECT_EQ(10, ctx.reopt.observed_rows);
  EXPECT_EQ(10, check.children()[0]->rows_produced());
  ASSERT_EQ(1u, ctx.check_events.size());
  EXPECT_TRUE(ctx.check_events[0].fired);
  EXPECT_EQ(10, ctx.check_events[0].count);
}

TEST_F(OperatorTest, BufCheckBatchValvePassesAndServesBatches) {
  // [lo, inf) succeeds mid-stream; the batched consumer must see all rows
  // (buffered prefix then pass-through) exactly as at batch size 1.
  ExecContext ctx;
  ctx.batch_rows = 8;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  BufCheckOp check(ScanLeft(), MakeCheck(5, kInf));
  ExecStatus s;
  const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
  EXPECT_EQ(ExecStatus::kEof, s);
  EXPECT_EQ(40u, rows.size());
  EXPECT_FALSE(ctx.reopt.triggered);
  ASSERT_EQ(1u, ctx.check_events.size());
  EXPECT_FALSE(ctx.check_events[0].fired);
  EXPECT_EQ(5, ctx.check_events[0].count);  // Released at the lo-th row.
}

TEST_F(OperatorTest, ObserveOnlyBufCheckStreamsEveryJoinRow) {
  // An observe-only BUFCHECK records its violation at the row-exact count
  // and then streams the rest of its child: over a hash join (which emits
  // every match of a probe batch) and over an index NLJN (which resumes an
  // outer row across batches) every join row arrives, at any batch size.
  const std::vector<Row> expected = ReferenceJoin();
  const HashIndex index(right_, 0);
  const std::vector<
      std::pair<std::string, std::function<std::unique_ptr<Operator>()>>>
      joins = {
          {"HSJN",
           [&] {
             return std::make_unique<HsjnOp>(
                 ScanLeft(), ScanRight(), std::vector<int>{0},
                 std::vector<int>{0}, JoinMerge(), TableBit(0) | TableBit(1),
                 CheckSpec{}, false);
           }},
          {"index NLJN",
           [&] {
             InnerAccess inner;
             inner.table = &right_;
             inner.table_id = 1;
             inner.join_conds = {{0, 0}};
             inner.index = &index;
             return std::make_unique<NljnOp>(ScanLeft(), std::move(inner),
                                             JoinMerge(),
                                             TableBit(0) | TableBit(1));
           }},
      };
  for (const auto& [name, make] : joins) {
    for (const int64_t batch_rows : {int64_t{1}, int64_t{3}, int64_t{1024}}) {
      SCOPED_TRACE(name + " batch_rows=" + std::to_string(batch_rows));
      ExecContext ctx;
      ctx.batch_rows = batch_rows;
      BufCheckOp check(make(), MakeCheck(0, 7, /*observe=*/true));
      ExecStatus s;
      const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
      EXPECT_EQ(ExecStatus::kEof, s);
      EXPECT_EQ(Canon(expected), Canon(rows));
      EXPECT_FALSE(ctx.reopt.triggered);
      ASSERT_EQ(1u, ctx.check_events.size());
      EXPECT_TRUE(ctx.check_events[0].fired);
      EXPECT_EQ(8, ctx.check_events[0].count);
    }
  }
}

TEST_F(OperatorTest, BufCheckValveChargesTheSameWorkAtEveryBatchSize) {
  // A [lo, inf) valve over a hash join: the join returns every match of
  // the probe rows the clamp let through, so rows past the release row sit
  // in the buffer. They pass through uncharged, like the rows pulled after
  // the release.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  int64_t work_at_one = -1;
  for (const int64_t batch_rows :
       {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{1024}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    ExecContext ctx;
    ctx.batch_rows = batch_rows;
    BufCheckOp check(
        std::make_unique<HsjnOp>(ScanLeft(), ScanRight(), std::vector<int>{0},
                                 std::vector<int>{0}, JoinMerge(),
                                 TableBit(0) | TableBit(1), CheckSpec{},
                                 false),
        MakeCheck(7, kInf));
    ExecStatus s;
    EXPECT_EQ(100u, DrainBatches(&check, &ctx, &s).size());
    EXPECT_EQ(ExecStatus::kEof, s);
    ASSERT_EQ(1u, ctx.check_events.size());
    EXPECT_EQ(7, ctx.check_events[0].count);  // Released at the lo-th row.
    if (work_at_one < 0) work_at_one = ctx.work;
    EXPECT_EQ(work_at_one, ctx.work);
  }
}

TEST_F(OperatorTest, CheckOverJoinChargesTheSameWorkAtEveryBatchSize) {
  // An enforced CHECK over a join of the 40-row scan fires mid-batch. HSJN
  // returns every match of the probe rows the clamp let through and NLJN
  // holds an outer batch of them; either way scan rows were read and
  // charged that batch size 1 never reads, and they go back to the scan
  // (HSJN at the violation, NLJN at Close, through a passing CHECK), which
  // un-reads them. [0, 7.5] over HSJN or NLJN fires at the 8th match,
  // found while probing the 2nd scan row; [0, 11.5] over an NLJN whose
  // outer is a passing CHECK over the HSJN fires at the NLJN's 12th row,
  // found while probing its 3rd outer row, which the 1st scan row made.
  // [0, 24.5] over HSJN fires at the last match of the 5th scan row; at
  // batch size 3 the join also probed the 6th, which matches nothing, so
  // the CHECK hands back zero rows and the join still un-reads that one.
  const auto hsjn = [&] {
    return std::make_unique<HsjnOp>(ScanLeft(), ScanRight(),
                                    std::vector<int>{0}, std::vector<int>{0},
                                    JoinMerge(), TableBit(0) | TableBit(1),
                                    CheckSpec{}, false);
  };
  const auto nljn = [&](std::unique_ptr<Operator> outer, int inner_id) {
    const TableColumns columns(3, AllColumns(2));
    const TableSet outer_set = outer->table_set();
    InnerAccess inner;
    inner.table = &right_;
    inner.table_id = inner_id;
    inner.join_conds = {{0, 0}};
    return std::make_unique<NljnOp>(
        std::move(outer), std::move(inner),
        MergeSpec::Make(RowLayout(outer_set, columns),
                        RowLayout(TableBit(inner_id), columns),
                        RowLayout(outer_set | TableBit(inner_id), columns)),
        outer_set | TableBit(inner_id));
  };
  struct Case {
    const char* name;
    double hi;
    int64_t scan_rows;
    std::function<std::unique_ptr<Operator>()> make;
  };
  const std::vector<Case> cases = {
      {"hsjn", 7.5, 2, hsjn},
      {"hsjn/trailing unmatched", 24.5, 5, hsjn},
      {"nljn", 7.5, 2, [&] { return nljn(ScanLeft(), 1); }},
      {"nljn/check/hsjn", 11.5, 1,
       [&] {
         return nljn(std::make_unique<CheckOp>(hsjn(), MakeCheck(0, 1000)),
                     2);
       }},
  };
  for (const Case& c : cases) {
    int64_t work_at_one = -1;
    for (const int64_t batch_rows :
         {int64_t{1}, int64_t{3}, int64_t{1024}}) {
      SCOPED_TRACE(std::string(c.name) +
                   " batch_rows=" + std::to_string(batch_rows));
      ExecContext ctx;
      ctx.batch_rows = batch_rows;
      CheckOp check(c.make(), MakeCheck(0, c.hi));
      ExecStatus s;
      EXPECT_EQ(static_cast<size_t>(c.hi),
                DrainBatches(&check, &ctx, &s).size());
      EXPECT_EQ(ExecStatus::kReoptimize, s);
      ASSERT_EQ(1u, ctx.check_events.size());
      EXPECT_EQ(static_cast<int64_t>(c.hi) + 1, ctx.check_events[0].count);
      const Operator* scan = &check;
      while (std::string(scan->name()) != "TBSCAN") {
        scan = scan->children()[0];
      }
      EXPECT_EQ(c.scan_rows, scan->rows_produced());
      if (work_at_one < 0) work_at_one = ctx.work;
      EXPECT_EQ(work_at_one, ctx.work);
    }
  }
}

TEST_F(OperatorTest, HashJoinHandBacksComposeAcrossCalls) {
  // Keeping 7 rows of the join and handing the rest back a row at a time,
  // or all at once, leaves the probe scan where batch size 1 leaves it:
  // each hand-back starts where the one before it ended.
  int64_t work_at_one = -1;
  for (const int64_t batch_rows : {int64_t{1}, int64_t{3}, int64_t{1024}}) {
    for (const bool one_at_a_time : {true, false}) {
      SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows) +
                   (one_at_a_time ? " one at a time" : " at once"));
      ExecContext ctx;
      ctx.batch_rows = batch_rows;
      HsjnOp join(ScanLeft(), ScanRight(), {0}, {0}, JoinMerge(),
                  TableBit(0) | TableBit(1), CheckSpec{}, false);
      ASSERT_EQ(ExecStatus::kOk, join.Open(&ctx));
      RowBatch batch;
      int64_t pulled = 0;
      while (pulled < 7) {
        ASSERT_EQ(ExecStatus::kRow, join.NextBatch(&ctx, &batch));
        pulled += batch.ActiveRows();
      }
      for (; pulled > 7; pulled = one_at_a_time ? pulled - 1 : 7) {
        join.ReturnUnconsumed(&ctx, one_at_a_time ? 1 : pulled - 7);
      }
      EXPECT_EQ(7, join.rows_produced());
      EXPECT_EQ(2, join.children()[0]->rows_produced());
      if (work_at_one < 0) work_at_one = ctx.work;
      EXPECT_EQ(work_at_one, ctx.work);
      join.Close(&ctx);
    }
  }
}

TEST_F(OperatorTest, CheckMaterializedStreamsBatchesAfterOpenEvaluation) {
  ExecContext ctx;
  ctx.batch_rows = 8;
  auto temp = std::make_unique<SortOp>(ScanLeft(), std::vector<SortKey>{},
                                       TableBit(0));
  CheckMaterializedOp check(std::move(temp), MakeCheck(0, 100));
  ExecStatus s;
  const std::vector<Row> rows = DrainBatches(&check, &ctx, &s);
  EXPECT_EQ(ExecStatus::kEof, s);
  EXPECT_EQ(40u, rows.size());
  EXPECT_FALSE(ctx.reopt.triggered);
}

TEST_F(OperatorTest, WorkChargesMatchBatchSizeOne) {
  // ctx.work parity is what keeps WORKBOUND decisions and check-event
  // work columns independent of the batch size; spot-check it on a scan
  // drain.
  ExecContext row_ctx;
  {
    auto scan = ScanLeft();
    Drain(scan.get(), &row_ctx);
  }
  ExecContext batch_ctx;
  batch_ctx.batch_rows = 7;
  auto scan = ScanLeft();
  ExecStatus s;
  const std::vector<Row> rows = DrainBatches(scan.get(), &batch_ctx, &s);
  EXPECT_EQ(ExecStatus::kEof, s);
  EXPECT_EQ(40u, rows.size());
  EXPECT_EQ(row_ctx.work, batch_ctx.work);
}

// ------------------------------------------------- RidTrack/AntiCompensate.

TEST_F(OperatorTest, RidTrackRecordsReturnedRows) {
  ExecContext ctx;
  RidTrackOp track(ScanLeft(), TableBit(0));
  EXPECT_EQ(40u, Drain(&track, &ctx).size());
  EXPECT_EQ(40u, ctx.returned_rows.size());
}

TEST_F(OperatorTest, AntiCompensateSuppressesMultisetOnce) {
  // Previously returned: two copies of one row, one of another.
  const Row a = {Value::Int(0), Value::Int(0)};
  const Row b = {Value::Int(1), Value::Int(1)};
  std::vector<Row> previous = {a, a, b};
  ExecContext ctx;
  AntiCompensateOp comp(ScanLeft(), previous, TableBit(0));
  const std::vector<Row> rows = Drain(&comp, &ctx);
  // left has exactly one copy of each (key=i%10, tag=i) pair; rows a and b
  // occur once each, so one 'a' and one 'b' are suppressed, leaving 38.
  EXPECT_EQ(38u, rows.size());
  for (const Row& r : rows) {
    EXPECT_NE(Canon({a})[0], RowToString(r));
    EXPECT_NE(Canon({b})[0], RowToString(r));
  }
}

TEST_F(OperatorTest, AntiCompensateEmptySideTablePassesEverything) {
  ExecContext ctx;
  AntiCompensateOp comp(ScanLeft(), {}, TableBit(0));
  EXPECT_EQ(40u, Drain(&comp, &ctx).size());
}

// ------------------------------------------ Join kernels vs. nested loops.
//
// HSJN, index NLJN, MGJN and the filtered scan are checked against loops
// written here — not against another operator — in output order: HSJN
// returns each probe row's matches in build order, index NLJN each outer
// row's candidates in rid order, MGJN each left row's right key group in
// sorted order, the scan its rows in rid order. Each case runs at batch
// sizes 1, 3 and 1024 and must charge the same work at each.

/// probe/outer side: (a int, b int); build/inner side: (x int, y int,
/// z double). Query table ids 0 and 1.
struct KernelCase {
  std::string name;
  std::vector<Row> left;
  std::vector<Row> right;
  /// Join keys as (left column, right column) pairs.
  std::vector<std::pair<int, int>> keys;
};

Table MakeTable(const std::string& name, const Schema& schema,
                const std::vector<Row>& rows) {
  Table t(name, schema);
  for (const Row& r : rows) t.AppendRow(r);
  return t;
}

Table LeftTable(const std::vector<Row>& rows) {
  return MakeTable("l", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}),
                   rows);
}

Table RightTable(const std::vector<Row>& rows) {
  return MakeTable("r",
                   Schema({{"x", ValueType::kInt},
                           {"y", ValueType::kInt},
                           {"z", ValueType::kDouble}}),
                   rows);
}

std::vector<KernelCase> KernelCases() {
  std::vector<KernelCase> cases;
  const auto right_row = [](Value x, int64_t i) {
    return Row{std::move(x), Value::Int(100 + i),
               Value::Double(static_cast<double>(i % 16) / 2)};
  };
  {
    KernelCase c{"duplicate keys", {}, {}, {{0, 0}}};
    for (int64_t i = 0; i < 300; ++i) {
      c.left.push_back({Value::Int(i % 10), Value::Int(i)});
    }
    for (int64_t i = 0; i < 40; ++i) {
      c.right.push_back(right_row(Value::Int(i % 5), i));
    }
    cases.push_back(std::move(c));
  }
  {
    // Key groups of 7 left and 3 right rows straddle the boundaries of 3-
    // and 1024-row batches on both sides (rows 1022-1028 and 1023-1025);
    // right keys run past the last left key.
    KernelCase c{"groups across batches", {}, {}, {{0, 0}}};
    for (int64_t i = 0; i < 1100; ++i) {
      c.left.push_back({Value::Int(i / 7), Value::Int(i)});
    }
    for (int64_t i = 0; i < 1100; ++i) {
      c.right.push_back(right_row(Value::Int(i / 3), i));
    }
    cases.push_back(std::move(c));
  }
  {
    // Value equality makes NULL join NULL, in every join kernel alike.
    KernelCase c{"null keys", {}, {}, {{0, 0}}};
    for (int64_t i = 0; i < 120; ++i) {
      c.left.push_back(
          {i % 4 == 0 ? Value::Null() : Value::Int(i % 6), Value::Int(i)});
    }
    for (int64_t i = 0; i < 30; ++i) {
      c.right.push_back(
          right_row(i % 3 == 0 ? Value::Null() : Value::Int(i % 6), i));
    }
    cases.push_back(std::move(c));
  }
  {
    KernelCase c{"multi-column keys", {}, {}, {{0, 0}, {1, 1}}};
    for (int64_t i = 0; i < 150; ++i) {
      c.left.push_back({Value::Int(i % 5), Value::Int(100 + i % 7)});
    }
    for (int64_t i = 0; i < 60; ++i) {
      c.right.push_back({Value::Int(i % 5), Value::Int(100 + i % 4),
                         Value::Double(static_cast<double>(i))});
    }
    cases.push_back(std::move(c));
  }
  {
    // Int keys probing a double column: Int(3) joins Double(3.0).
    KernelCase c{"mixed int/double keys", {}, {}, {{0, 2}}};
    for (int64_t i = 0; i < 100; ++i) {
      c.left.push_back({Value::Int(i % 9), Value::Int(i)});
    }
    for (int64_t i = 0; i < 50; ++i) c.right.push_back(right_row(Value::Int(i), i));
    cases.push_back(std::move(c));
  }
  {
    KernelCase c{"empty build", {}, {}, {{0, 0}}};
    for (int64_t i = 0; i < 20; ++i) {
      c.left.push_back({Value::Int(i), Value::Int(i)});
    }
    cases.push_back(std::move(c));
  }
  {
    KernelCase c{"one-row build", {}, {}, {{0, 0}}};
    for (int64_t i = 0; i < 20; ++i) {
      c.left.push_back({Value::Int(i % 4), Value::Int(i)});
    }
    c.right.push_back(right_row(Value::Int(3), 0));
    cases.push_back(std::move(c));
  }
  {
    KernelCase c{"empty probe", {}, {}, {{0, 0}}};
    for (int64_t i = 0; i < 20; ++i) c.right.push_back(right_row(Value::Int(i), i));
    cases.push_back(std::move(c));
  }
  {
    KernelCase c{"one-row probe", {}, {}, {{0, 0}}};
    c.left.push_back({Value::Int(2), Value::Int(7)});
    for (int64_t i = 0; i < 20; ++i) {
      c.right.push_back(right_row(Value::Int(i % 4), i));
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

/// For each left row in order, every right row in order whose keys are
/// equal (Value equality), merged left columns first.
std::vector<Row> NestedLoopJoin(const std::vector<Row>& left,
                                const std::vector<Row>& right,
                                const std::vector<std::pair<int, int>>& keys) {
  std::vector<Row> out;
  for (const Row& l : left) {
    for (const Row& r : right) {
      bool equal = true;
      for (const auto& [lk, rk] : keys) {
        if (l[static_cast<size_t>(lk)] != r[static_cast<size_t>(rk)]) {
          equal = false;
          break;
        }
      }
      if (!equal) continue;
      Row merged = l;
      merged.insert(merged.end(), r.begin(), r.end());
      out.push_back(std::move(merged));
    }
  }
  return out;
}

std::vector<std::string> InOrder(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(RowToString(r));
  return out;
}

MergeSpec LeftRightMerge() {
  const TableColumns columns = {AllColumns(2), AllColumns(3)};
  return MergeSpec::Make(RowLayout(TableBit(0), columns),
                         RowLayout(TableBit(1), columns),
                         RowLayout(TableBit(0) | TableBit(1), columns));
}

std::unique_ptr<Operator> MakeHsjn(const Table& left, const Table& right,
                                   const std::vector<std::pair<int, int>>& keys) {
  std::vector<int> probe_keys, build_keys;
  for (const auto& [lk, rk] : keys) {
    probe_keys.push_back(lk);
    build_keys.push_back(rk);
  }
  return std::make_unique<HsjnOp>(
      std::make_unique<TableScanOp>(&left, 0, std::vector<ResolvedPredicate>{}),
      std::make_unique<TableScanOp>(&right, 1,
                                    std::vector<ResolvedPredicate>{}),
      probe_keys, build_keys, LeftRightMerge(), TableBit(0) | TableBit(1),
      CheckSpec{}, false);
}

std::unique_ptr<Operator> MakeIndexNljn(
    std::unique_ptr<Operator> outer, const Table& right, const HashIndex* index,
    const std::vector<std::pair<int, int>>& keys) {
  InnerAccess inner;
  inner.table = &right;
  inner.table_id = 1;
  for (const auto& [lk, rk] : keys) inner.join_conds.push_back({lk, rk});
  inner.index = index;
  return std::make_unique<NljnOp>(std::move(outer), std::move(inner),
                                  LeftRightMerge(), TableBit(0) | TableBit(1));
}

/// Sort keys for a merge-join input: the join columns, then every other
/// column, so the order is total and a reference loop can follow it.
std::vector<SortKey> JoinColumnsFirst(const std::vector<int>& join_cols,
                                      int width) {
  std::vector<SortKey> keys;
  for (int c : join_cols) keys.push_back({c, false});
  for (int c = 0; c < width; ++c) {
    if (std::find(join_cols.begin(), join_cols.end(), c) == join_cols.end()) {
      keys.push_back({c, false});
    }
  }
  return keys;
}

std::vector<Row> SortedRows(std::vector<Row> rows,
                            const std::vector<SortKey>& keys) {
  std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    return CompareRowsByKeys(a, b, keys) < 0;
  });
  return rows;
}

/// The merge join of the optimizer's plans: both inputs sorted first.
/// `left` and `right` are the inputs' rows in `left_sort`/`right_sort`
/// order.
std::unique_ptr<Operator> MakeMgjn(std::unique_ptr<Operator> left,
                                   const Table& right,
                                   const std::vector<SortKey>& right_sort,
                                   const std::vector<std::pair<int, int>>& keys) {
  std::vector<int> left_keys, right_keys;
  for (const auto& [lk, rk] : keys) {
    left_keys.push_back(lk);
    right_keys.push_back(rk);
  }
  return std::make_unique<MgjnOp>(
      std::move(left),
      std::make_unique<SortOp>(
          std::make_unique<TableScanOp>(&right, 1,
                                        std::vector<ResolvedPredicate>{}),
          right_sort, TableBit(1)),
      left_keys, right_keys, LeftRightMerge(), TableBit(0) | TableBit(1));
}

/// Drains fresh operators from `make` at batch sizes 1, 3 and 1024; every
/// run must produce exactly `expected`, in order, and charge the work of
/// the batch-size-1 run.
void ExpectRowsInOrder(const std::function<std::unique_ptr<Operator>()>& make,
                       const std::vector<Row>& expected) {
  int64_t work_at_one = -1;
  for (const int64_t batch_rows : {int64_t{1}, int64_t{3}, int64_t{1024}}) {
    SCOPED_TRACE("batch_rows " + std::to_string(batch_rows));
    ExecContext ctx;
    ctx.batch_rows = batch_rows;
    std::unique_ptr<Operator> op = make();
    ExecStatus s;
    const std::vector<Row> got = DrainBatches(op.get(), &ctx, &s);
    EXPECT_EQ(ExecStatus::kEof, s);
    EXPECT_EQ(InOrder(expected), InOrder(got));
    if (work_at_one < 0) work_at_one = ctx.work;
    EXPECT_EQ(work_at_one, ctx.work);
  }
}

TEST(JoinKernelTest, HsjnMatchesNestedLoopInOrder) {
  for (const KernelCase& c : KernelCases()) {
    SCOPED_TRACE(c.name);
    const Table left = LeftTable(c.left);
    const Table right = RightTable(c.right);
    const std::vector<Row> expected = NestedLoopJoin(c.left, c.right, c.keys);
    ExpectRowsInOrder([&] { return MakeHsjn(left, right, c.keys); },
                      expected);
    // Spilled (partitioned) joins reorder by partition: same multiset.
    for (const int64_t mem_rows : {int64_t{1}, int64_t{7}}) {
      for (const int64_t batch_rows : {int64_t{1}, int64_t{5}}) {
        ExecContext ctx;
        ctx.mem_rows = mem_rows;
        ctx.batch_rows = batch_rows;
        std::unique_ptr<Operator> op = MakeHsjn(left, right, c.keys);
        ExecStatus s = ExecStatus::kOk;
        const std::vector<Row> got = DrainBatches(op.get(), &ctx, &s);
        EXPECT_EQ(ExecStatus::kEof, s);
        EXPECT_EQ(Canon(expected), Canon(got))
            << "mem_rows " << mem_rows << " batch_rows " << batch_rows;
      }
    }
  }
}

TEST(JoinKernelTest, IndexNljnMatchesNestedLoopInOrder) {
  for (const KernelCase& c : KernelCases()) {
    SCOPED_TRACE(c.name);
    const Table left = LeftTable(c.left);
    const Table right = RightTable(c.right);
    const HashIndex index(right, c.keys[0].second);
    ExpectRowsInOrder(
        [&] {
          return MakeIndexNljn(std::make_unique<TableScanOp>(
                                   &left, 0, std::vector<ResolvedPredicate>{}),
                               right, &index, c.keys);
        },
        NestedLoopJoin(c.left, c.right, c.keys));
  }
}

TEST(JoinKernelTest, MgjnMatchesNestedLoopInOrder) {
  for (const KernelCase& c : KernelCases()) {
    SCOPED_TRACE(c.name);
    std::vector<int> left_cols, right_cols;
    for (const auto& [lk, rk] : c.keys) {
      left_cols.push_back(lk);
      right_cols.push_back(rk);
    }
    const std::vector<SortKey> left_sort = JoinColumnsFirst(left_cols, 2);
    const std::vector<SortKey> right_sort = JoinColumnsFirst(right_cols, 3);
    const Table left = LeftTable(c.left);
    const Table right = RightTable(c.right);
    ExpectRowsInOrder(
        [&] {
          return MakeMgjn(
              std::make_unique<SortOp>(
                  std::make_unique<TableScanOp>(
                      &left, 0, std::vector<ResolvedPredicate>{}),
                  left_sort, TableBit(0)),
              right, right_sort, c.keys);
        },
        NestedLoopJoin(SortedRows(c.left, left_sort),
                       SortedRows(c.right, right_sort), c.keys));
  }
}

TEST(JoinKernelTest, FilteredScanMatchesLoopInOrder) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 3000; ++i) {  // Spans several table chunks.
    rows.push_back({i % 13 == 0 ? Value::Null() : Value::Int(i % 50),
                    Value::Int(i)});
  }
  const Table t = LeftTable(rows);
  const std::vector<std::vector<ResolvedPredicate>> pred_sets = {
      {},
      {{0, PredKind::kLt, Value::Int(10), {}, {}}},
      {{0, PredKind::kGe, Value::Int(5), {}, {}},
       {1, PredKind::kLt, Value::Int(2000), {}, {}}},
      {{0, PredKind::kEq, Value::Int(-1), {}, {}}},
  };
  for (const std::vector<ResolvedPredicate>& preds : pred_sets) {
    SCOPED_TRACE(std::to_string(preds.size()) + " predicates");
    std::vector<Row> expected;
    for (const Row& r : rows) {
      bool pass = true;
      for (const ResolvedPredicate& p : preds) pass = pass && EvalPredicate(p, r);
      if (pass) expected.push_back(r);
    }
    ExpectRowsInOrder(
        [&] { return std::make_unique<TableScanOp>(&t, 0, preds); }, expected);
  }
}

/// Task runners for the parallel HSJN build: one runs every offered task
/// at once on the submitting thread, the other rejects every offer
/// (backpressure), leaving all slices to the calling worker.
class InlineRunner : public TaskRunner {
 public:
  bool TrySubmit(std::shared_ptr<ParallelTask> task) override {
    task->RunIfUnclaimed();
    return true;
  }
};

class RejectingRunner : public TaskRunner {
 public:
  bool TrySubmit(std::shared_ptr<ParallelTask>) override { return false; }
};

TEST(JoinKernelTest, ParallelBuildMatchesNestedLoopInOrder) {
  // Above kMinParallelBuildRows, so dop 4 hashes the build in slices.
  KernelCase c{"parallel build", {}, {}, {{0, 0}}};
  for (int64_t i = 0; i < 500; ++i) {
    c.left.push_back({Value::Int(i % 40), Value::Int(i)});
  }
  for (int64_t i = 0; i < 3 * HsjnOp::kMinParallelBuildRows + 17; ++i) {
    c.right.push_back({Value::Int(i % 97), Value::Int(i), Value::Double(0)});
  }
  const Table left = LeftTable(c.left);
  const Table right = RightTable(c.right);
  const std::vector<Row> expected = NestedLoopJoin(c.left, c.right, c.keys);
  InlineRunner inline_runner;
  RejectingRunner rejecting_runner;
  for (TaskRunner* runner :
       std::vector<TaskRunner*>{&inline_runner, &rejecting_runner}) {
    for (const int64_t batch_rows : {int64_t{1}, int64_t{256}}) {
      ExecContext ctx;
      ctx.tasks = runner;
      ctx.dop = 4;
      ctx.batch_rows = batch_rows;
      std::unique_ptr<Operator> op = MakeHsjn(left, right, c.keys);
      ExecStatus s = ExecStatus::kOk;
      const std::vector<Row> got = DrainBatches(op.get(), &ctx, &s);
      EXPECT_EQ(ExecStatus::kEof, s);
      EXPECT_EQ(InOrder(expected), InOrder(got))
          << (runner == &inline_runner ? "inline" : "rejecting")
          << " runner, batch_rows " << batch_rows;
    }
  }
}

/// Serves `rows` as table 0 in one batch, then requests cancellation: the
/// consumer observes the cancel at its next poll, partway through probing
/// this batch.
class RowsThenCancelOp : public Operator {
 public:
  RowsThenCancelOp(std::vector<Row> rows, CancelToken* token)
      : Operator(TableBit(0)), rows_(std::move(rows)), token_(token) {}
  const char* name() const override { return "ROWS"; }

 protected:
  ExecStatus OpenImpl(ExecContext*) override { return ExecStatus::kOk; }
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override {
    if (served_) return ExecStatus::kEof;
    served_ = true;
    out->Clear();
    for (const Row& r : rows_) out->AppendRow(r);
    // Restart the context's poll stride here, so the consumer processes
    // some rows before its next poll sees the cancel.
    EXPECT_FALSE(ctx->CancelPending());
    token_->RequestCancel();
    return ExecStatus::kRow;
  }
  void CloseImpl(ExecContext*) override {}

 private:
  std::vector<Row> rows_;
  CancelToken* token_;
  bool served_ = false;
};

/// Opens `op`, then drains it through NextBatch until it stops, which
/// must be on the cancel. `*open_work` gets the work charged by Open.
std::vector<Row> DrainUntilCancelled(Operator* op, ExecContext* ctx,
                                     int64_t* open_work) {
  EXPECT_EQ(ExecStatus::kOk, op->Open(ctx));
  *open_work = ctx->work;
  std::vector<Row> got;
  RowBatch batch;
  ExecStatus s;
  while ((s = op->NextBatch(ctx, &batch)) == ExecStatus::kRow) {
    batch.MoveRowsInto(&got);
  }
  EXPECT_EQ(ExecStatus::kCancelled, s);
  op->Close(ctx);
  return got;
}

TEST(JoinKernelTest, CancelMidGatherFlushesMatchesFound) {
  KernelCase c = KernelCases()[0];  // Duplicate keys.
  c.left.clear();
  for (int64_t i = 0; i < 2000; ++i) {
    c.left.push_back({Value::Int(i % 10), Value::Int(i)});
  }
  const Table right = RightTable(c.right);
  const HashIndex index(right, 0);
  const auto prefix_join = [&](int64_t left_rows) {
    return NestedLoopJoin(
        std::vector<Row>(c.left.begin(), c.left.begin() + left_rows), c.right,
        c.keys);
  };
  {
    SCOPED_TRACE("HSJN");
    CancelToken token;
    ExecContext ctx;
    ctx.cancel = &token;
    ctx.batch_rows = 4096;
    std::vector<int> build_keys = {0};
    HsjnOp join(std::make_unique<RowsThenCancelOp>(c.left, &token),
                std::make_unique<TableScanOp>(
                    &right, 1, std::vector<ResolvedPredicate>{}),
                {0}, build_keys, LeftRightMerge(), TableBit(0) | TableBit(1),
                CheckSpec{}, false);
    int64_t build_work = 0;
    const std::vector<Row> got = DrainUntilCancelled(&join, &ctx, &build_work);
    // After the build, one work unit per probe row probed.
    const int64_t probed = ctx.work - build_work;
    EXPECT_GT(probed, 0);
    EXPECT_LT(probed, static_cast<int64_t>(c.left.size()));
    EXPECT_FALSE(got.empty());
    EXPECT_EQ(InOrder(prefix_join(probed)), InOrder(got));
  }
  {
    SCOPED_TRACE("index NLJN");
    CancelToken token;
    ExecContext ctx;
    ctx.cancel = &token;
    ctx.batch_rows = 4096;
    std::unique_ptr<Operator> join = MakeIndexNljn(
        std::make_unique<RowsThenCancelOp>(c.left, &token), right, &index,
        c.keys);
    int64_t open_work = 0;
    const std::vector<Row> got = DrainUntilCancelled(join.get(), &ctx, &open_work);
    // One work unit per outer row probed and per candidate examined; on a
    // read-only table every candidate of this key matches.
    const int64_t examined = ctx.work - open_work - join->stats().loops;
    const std::vector<Row> all = NestedLoopJoin(c.left, c.right, c.keys);
    EXPECT_GT(examined, 0);
    EXPECT_LT(examined, static_cast<int64_t>(all.size()));
    EXPECT_EQ(InOrder(std::vector<Row>(all.begin(), all.begin() + examined)),
              InOrder(got));
  }
  {
    SCOPED_TRACE("MGJN");
    const std::vector<SortKey> left_sort = JoinColumnsFirst({0}, 2);
    const std::vector<SortKey> right_sort = JoinColumnsFirst({0}, 3);
    const std::vector<Row> left_sorted = SortedRows(c.left, left_sort);
    CancelToken token;
    ExecContext ctx;
    ctx.cancel = &token;
    ctx.batch_rows = 4096;
    std::unique_ptr<Operator> join =
        MakeMgjn(std::make_unique<RowsThenCancelOp>(left_sorted, &token),
                 right, right_sort, c.keys);
    int64_t open_work = 0;
    const std::vector<Row> got = DrainUntilCancelled(join.get(), &ctx, &open_work);
    // Matches found before the cancel are flushed: a non-empty proper
    // prefix of the full join, in order.
    const std::vector<Row> all = NestedLoopJoin(
        left_sorted, SortedRows(c.right, right_sort), c.keys);
    EXPECT_FALSE(got.empty());
    ASSERT_LT(got.size(), all.size());
    EXPECT_EQ(InOrder(std::vector<Row>(all.begin(), all.begin() + got.size())),
              InOrder(got));
  }
}

}  // namespace
}  // namespace popdb
