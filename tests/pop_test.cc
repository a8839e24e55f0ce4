#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/placement.h"
#include "core/pop.h"
#include "opt/optimizer.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace popdb {
namespace {

using ::popdb::testing::Canonicalize;
using ::popdb::testing::ReferenceExecute;

/// Catalog with an engineered cardinality trap: orders.subclass
/// functionally determines orders.clazz, and items has no index, so a
/// correlated restriction drives the optimizer into a catastrophic
/// nested-loop plan (the quickstart scenario, scaled down).
class PopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    Table orders("orders", Schema({{"o_id", ValueType::kInt},
                                   {"clazz", ValueType::kInt},
                                   {"subclass", ValueType::kInt}}));
    for (int64_t i = 0; i < 4000; ++i) {
      const int64_t sub = rng.UniformInt(0, 199);
      orders.AppendRow({Value::Int(i), Value::Int(sub / 10), Value::Int(sub)});
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(orders)).ok());
    Table items("items", Schema({{"i_order", ValueType::kInt},
                                 {"qty", ValueType::kInt}}));
    for (int64_t i = 0; i < 12000; ++i) {
      items.AppendRow({Value::Int(rng.UniformInt(0, 3999)),
                       Value::Int(rng.UniformInt(1, 50))});
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(items)).ok());
    catalog_.AnalyzeAll();
  }

  /// The trap query: estimated ~2 rows, actual ~20.
  QuerySpec TrapQuery() {
    QuerySpec q("trap");
    const int o = q.AddTable("orders");
    const int it = q.AddTable("items");
    q.AddJoin({o, 0}, {it, 0});
    q.AddPred({o, 1}, PredKind::kEq, Value::Int(7));   // clazz = 7
    q.AddPred({o, 2}, PredKind::kEq, Value::Int(77));  // subclass = 77
    q.AddGroupBy({o, 1});
    q.AddAgg(AggFunc::kCount);
    return q;
  }

  /// A query whose estimates are accurate (no trap).
  QuerySpec BenignQuery() {
    QuerySpec q("benign");
    const int o = q.AddTable("orders");
    const int it = q.AddTable("items");
    q.AddJoin({o, 0}, {it, 0});
    q.AddPred({o, 2}, PredKind::kEq, Value::Int(42));
    q.AddGroupBy({o, 1});
    q.AddAgg(AggFunc::kCount);
    return q;
  }

  Catalog catalog_;
};

TEST_F(PopTest, ReoptTriggersOnUnderestimate) {
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(TrapQuery(), &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_GE(stats.reopts, 1);
  EXPECT_TRUE(stats.attempts[0].reoptimized);
  EXPECT_GT(stats.attempts[0].signal.observed_rows,
            stats.attempts[0].signal.check_hi);
}

TEST_F(PopTest, ReoptBeatsStaticOnTrap) {
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  ExecutionStats pop_stats, static_stats;
  ASSERT_TRUE(exec.Execute(TrapQuery(), &pop_stats).ok());
  ASSERT_TRUE(exec.ExecuteStatic(TrapQuery(), &static_stats).ok());
  EXPECT_LT(pop_stats.total_work, static_stats.total_work / 2);
}

TEST_F(PopTest, ResultsMatchReferenceAfterReopt) {
  const std::vector<Row> expected = ReferenceExecute(catalog_, TrapQuery());
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(TrapQuery(), &stats);
  ASSERT_TRUE(rows.ok());
  ASSERT_GE(stats.reopts, 1);  // The interesting case actually happened.
  EXPECT_EQ(Canonicalize(expected), Canonicalize(rows.value()));
}

TEST_F(PopTest, NoReoptOnAccurateEstimates) {
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  ExecutionStats stats;
  ASSERT_TRUE(exec.Execute(BenignQuery(), &stats).ok());
  EXPECT_EQ(0, stats.reopts);
  EXPECT_EQ(1u, stats.attempts.size());
}

TEST_F(PopTest, MatViewReusedInSecondAttempt) {
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  ExecutionStats stats;
  ASSERT_TRUE(exec.Execute(TrapQuery(), &stats).ok());
  ASSERT_GE(stats.reopts, 1);
  EXPECT_GT(stats.mv_rows_harvested, 0);
  // The re-optimized plan scans the temporary materialized view.
  EXPECT_NE(std::string::npos, stats.attempts[1].plan_text.find("MVSCAN"));
}

TEST_F(PopTest, MatViewReuseDisabledStillCorrect) {
  PopConfig pop;
  pop.reuse_matviews = false;
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, pop);
  const std::vector<Row> expected = ReferenceExecute(catalog_, TrapQuery());
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(TrapQuery(), &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(Canonicalize(expected), Canonicalize(rows.value()));
  if (stats.reopts > 0) {
    EXPECT_EQ(std::string::npos,
              stats.attempts[1].plan_text.find("MVSCAN"));
  }
}

TEST_F(PopTest, MaxReoptsIsRespected) {
  PopConfig pop;
  pop.max_reopts = 2;
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, pop);
  // Force every check to fail on every checked attempt: the budget is the
  // only thing stopping the loop, and the final attempt runs check-free.
  exec.set_plan_hook([](PlanNode* root, int attempt) {
    (void)attempt;
    for (PlanNode* check : CollectChecks(root)) {
      check->check.lo = 1e30;
      check->check.hi = 2e30;
    }
  });
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(TrapQuery(), &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(2, stats.reopts);
  EXPECT_EQ(3u, stats.attempts.size());
  EXPECT_FALSE(stats.attempts.back().reoptimized);
}

TEST_F(PopTest, ZeroMaxReoptsIsStaticWithNoChecks) {
  PopConfig pop;
  pop.max_reopts = 0;
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, pop);
  ExecutionStats stats;
  ASSERT_TRUE(exec.Execute(TrapQuery(), &stats).ok());
  EXPECT_EQ(0, stats.reopts);
  EXPECT_EQ(0, stats.attempts[0].checks.total());
}

TEST_F(PopTest, FeedbackRecordedFromFailingCheck) {
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  ExecutionStats stats;
  ASSERT_TRUE(exec.Execute(TrapQuery(), &stats).ok());
  ASSERT_GE(stats.reopts, 1);
  // After re-optimization the orders estimate must be the actual (~20),
  // visible in the second attempt's plan text (card=...).
  const std::string& plan2 = stats.attempts[1].plan_text;
  EXPECT_EQ(std::string::npos, plan2.find("card=2 "))
      << "stale estimate survived:\n" << plan2;
}

TEST_F(PopTest, StaticExecutionPlacesNoChecks) {
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  ExecutionStats stats;
  ASSERT_TRUE(exec.ExecuteStatic(TrapQuery(), &stats).ok());
  EXPECT_EQ(0, stats.attempts[0].checks.total());
  EXPECT_EQ(std::string::npos, stats.attempts[0].plan_text.find("CHECK"));
}

TEST_F(PopTest, EcdcCompensationProducesNoDuplicates) {
  QuerySpec q("spj");
  const int o = q.AddTable("orders");
  const int it = q.AddTable("items");
  q.AddJoin({o, 0}, {it, 0});
  q.AddPred({o, 1}, PredKind::kEq, Value::Int(7));
  q.AddPred({o, 2}, PredKind::kEq, Value::Int(77));
  q.AddProjection({it, 1});
  PopConfig pop;
  pop.enable_lc = false;
  pop.enable_lcem = false;
  pop.enable_ecdc = true;
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, pop);
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(q, &stats);
  ASSERT_TRUE(rows.ok());
  const std::vector<Row> expected = ReferenceExecute(catalog_, q);
  EXPECT_EQ(Canonicalize(expected), Canonicalize(rows.value()));
  if (stats.reopts > 0) {
    // Rows really were pipelined before the re-optimization.
    EXPECT_GT(stats.attempts[0].rows_returned, 0);
    EXPECT_NE(std::string::npos,
              stats.attempts[1].plan_text.find("ANTIJOIN"));
  }
}

TEST(PopNarrowRowsTest, EcdcCompensatesCollidingNarrowRows) {
  // Each order has four lines, two per quantity. Joined rows differ in
  // l_id, which the query does not read, so their narrow rows (o_id,
  // l_order, l_qty) come in equal pairs. ECDC's anti-join subtracts the
  // rows returned before the re-optimization as a multiset of narrow rows,
  // which still leaves exactly the rows not returned yet.
  Catalog catalog;
  Table ord("ord", Schema({{"o_id", ValueType::kInt},
                           {"o_tag", ValueType::kInt}}));
  for (int64_t i = 0; i < 600; ++i) {
    ord.AppendRow({Value::Int(i), Value::Int(i % 6)});
  }
  ASSERT_TRUE(catalog.AddTable(std::move(ord)).ok());
  Table line("line", Schema({{"l_id", ValueType::kInt},
                             {"l_order", ValueType::kInt},
                             {"l_qty", ValueType::kInt}}));
  for (int64_t i = 0; i < 2400; ++i) {
    line.AppendRow({Value::Int(i), Value::Int(i / 4), Value::Int(i % 2)});
  }
  ASSERT_TRUE(catalog.AddTable(std::move(line)).ok());
  catalog.AnalyzeAll();

  QuerySpec q("ecdc_narrow");
  const int o = q.AddTable("ord");
  const int l = q.AddTable("line");
  q.AddJoin({o, 0}, {l, 1});
  q.AddPred({o, 1}, PredKind::kEq, Value::Int(2));
  q.AddProjection({l, 2});
  ASSERT_EQ((TableColumns{{0}, {1, 2}}), QueryTableColumns(catalog, q));

  PopConfig pop;
  pop.enable_lc = false;
  pop.enable_lcem = false;
  pop.enable_ecdc = true;
  pop.require_narrowed_range = false;
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, pop);
  // The first attempt's checks fire once more than five rows pass them,
  // after the rows below that have been returned.
  exec.set_plan_hook([](PlanNode* root, int attempt) {
    if (attempt != 0) return;
    for (PlanNode* check : CollectChecks(root)) {
      check->check.lo = 0.0;
      check->check.hi = 5.0;
    }
  });
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(q, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_GE(stats.reopts, 1);
  EXPECT_GT(stats.attempts[0].rows_returned, 0);
  EXPECT_NE(std::string::npos, stats.attempts[1].plan_text.find("ANTIJOIN"));
  EXPECT_EQ(Canonicalize(ReferenceExecute(catalog, q)),
            Canonicalize(rows.value()));
}

TEST_F(PopTest, RowTrackerOnlyWhereRowsReachTheApplication) {
  // DISTINCT and ORDER BY hold rows back: a tracker under them would
  // record rows the application never saw, and the compensating anti-join
  // would drop them from the re-optimized result.
  PopConfig pop;
  pop.enable_lc = false;
  pop.enable_lcem = false;
  pop.enable_ecdc = true;
  pop.work_bound_factor = 1.5;
  for (const int shape : {0, 1, 2}) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    QuerySpec q("spj");
    const int o = q.AddTable("orders");
    const int it = q.AddTable("items");
    q.AddJoin({o, 0}, {it, 0});
    q.AddPred({o, 1}, PredKind::kEq, Value::Int(7));
    q.AddPred({o, 2}, PredKind::kEq, Value::Int(77));
    q.AddProjection({it, 1});
    if (shape == 1) q.SetDistinct(true);
    if (shape == 2) q.AddOrderBy(0);
    const bool pipelined = shape == 0;
    EXPECT_EQ(pipelined, q.pipelined());
    ProgressiveExecutor exec(catalog_, OptimizerConfig{}, pop);
    ExecutionStats stats;
    Result<std::vector<Row>> rows = exec.Execute(q, &stats);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(Canonicalize(ReferenceExecute(catalog_, q)),
              Canonicalize(rows.value()));
    EXPECT_EQ(pipelined, stats.attempts[0].plan_text.find("INSERT(S)") !=
                             std::string::npos);
  }
}

TEST_F(PopTest, ForcedDummyReoptKeepsResultsAndReusesWork) {
  // Fire a check even though estimates are fine: the re-optimization sees
  // confirming actuals and reuses the materialized result (Figure 12's
  // dummy re-optimization).
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  int forced = 0;
  exec.set_plan_hook([&forced](PlanNode* root, int attempt) {
    if (attempt != 0) return;
    std::vector<PlanNode*> checks = CollectChecks(root);
    if (!checks.empty()) {
      checks[0]->check.lo = 1e30;
      checks[0]->check.hi = 2e30;
      ++forced;
    }
  });
  const std::vector<Row> expected = ReferenceExecute(catalog_, BenignQuery());
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(BenignQuery(), &stats);
  ASSERT_TRUE(rows.ok());
  if (forced > 0) {
    EXPECT_EQ(1, stats.reopts);
  }
  EXPECT_EQ(Canonicalize(expected), Canonicalize(rows.value()));
}

TEST_F(PopTest, WorkAndTimingStatsPopulated) {
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  ExecutionStats stats;
  ASSERT_TRUE(exec.Execute(TrapQuery(), &stats).ok());
  EXPECT_GT(stats.total_work, 0);
  EXPECT_GT(stats.total_ms, 0.0);
  EXPECT_GT(stats.result_rows, 0);
  for (const AttemptInfo& at : stats.attempts) {
    EXPECT_GT(at.candidates, 0);
    EXPECT_FALSE(at.plan_text.empty());
  }
}

TEST_F(PopTest, StaleStatisticsTriggerReoptAndStayCorrect) {
  // Another of the paper's error sources: statistics collected before the
  // table grew 10x. The optimizer plans for the stale row counts; POP
  // detects the violation at run time.
  Catalog catalog;
  Rng rng(9);
  {
    Table orders("orders", Schema({{"o_id", ValueType::kInt},
                                   {"flag", ValueType::kInt}}));
    // Tiny at ANALYZE time: the estimate (~2 filtered rows) makes a
    // scan-inner nested-loop join look free.
    for (int64_t i = 0; i < 20; ++i) {
      orders.AppendRow({Value::Int(i), Value::Int(rng.UniformInt(0, 9))});
    }
    ASSERT_TRUE(catalog.AddTable(std::move(orders)).ok());
    Table items("items", Schema({{"i_order", ValueType::kInt},
                                 {"qty", ValueType::kInt}}));
    for (int64_t i = 0; i < 9000; ++i) {
      items.AppendRow({Value::Int(rng.UniformInt(0, 2999)),
                       Value::Int(rng.UniformInt(1, 50))});
    }
    ASSERT_TRUE(catalog.AddTable(std::move(items)).ok());
  }
  catalog.AnalyzeAll();  // Stats taken while orders had 20 rows.
  Table* orders = catalog.GetMutableTable("orders");
  for (int64_t i = 20; i < 3000; ++i) {
    orders->AppendRow({Value::Int(i), Value::Int(rng.UniformInt(0, 9))});
  }
  // Stats now claim 20 rows; the table holds 3000 (150x stale).

  QuerySpec q("stale");
  const int o = q.AddTable("orders");
  const int it = q.AddTable("items");
  q.AddJoin({o, 0}, {it, 0});
  q.AddPred({o, 1}, PredKind::kEq, Value::Int(3));
  q.AddGroupBy({o, 1});
  q.AddAgg(AggFunc::kCount);

  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(q, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_GE(stats.reopts, 1);
  EXPECT_EQ(Canonicalize(ReferenceExecute(catalog, q)),
            Canonicalize(rows.value()));
}

TEST_F(PopTest, SampledStatisticsStillExecuteCorrectly) {
  // Sampled (imprecise) statistics: plans may differ, results must not.
  Catalog sampled;
  {
    Rng rng(5);
    Table orders("orders", Schema({{"o_id", ValueType::kInt},
                                   {"clazz", ValueType::kInt},
                                   {"subclass", ValueType::kInt}}));
    for (int64_t i = 0; i < 4000; ++i) {
      const int64_t sub = rng.UniformInt(0, 199);
      orders.AppendRow({Value::Int(i), Value::Int(sub / 10),
                        Value::Int(sub)});
    }
    ASSERT_TRUE(sampled.AddTable(std::move(orders)).ok());
    Table items("items", Schema({{"i_order", ValueType::kInt},
                                 {"qty", ValueType::kInt}}));
    for (int64_t i = 0; i < 12000; ++i) {
      items.AppendRow({Value::Int(rng.UniformInt(0, 3999)),
                       Value::Int(rng.UniformInt(1, 50))});
    }
    ASSERT_TRUE(sampled.AddTable(std::move(items)).ok());
  }
  ASSERT_TRUE(sampled.AnalyzeTableSampled("orders", 0.05).ok());
  ASSERT_TRUE(sampled.AnalyzeTableSampled("items", 0.05).ok());

  ProgressiveExecutor exec(sampled, OptimizerConfig{}, PopConfig{});
  Result<std::vector<Row>> rows = exec.Execute(TrapQuery());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(Canonicalize(ReferenceExecute(sampled, TrapQuery())),
            Canonicalize(rows.value()));
}

TEST_F(PopTest, PlanApiExposesValidityRanges) {
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  Result<OptimizedPlan> plan = exec.Plan(TrapQuery());
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(std::string::npos, plan.value().root->ToString().find("validity"));
}

// Property: for every checkpoint-flavor combination, POP results equal the
// static results on both trap and benign queries.
class PopFlavorTest : public ::testing::TestWithParam<int> {};

TEST_P(PopFlavorTest, AllFlavorsPreserveResults) {
  Catalog catalog;
  {
    Rng rng(5);
    Table orders("orders", Schema({{"o_id", ValueType::kInt},
                                   {"clazz", ValueType::kInt},
                                   {"subclass", ValueType::kInt}}));
    for (int64_t i = 0; i < 2000; ++i) {
      const int64_t sub = rng.UniformInt(0, 199);
      orders.AppendRow({Value::Int(i), Value::Int(sub / 10), Value::Int(sub)});
    }
    ASSERT_TRUE(catalog.AddTable(std::move(orders)).ok());
    Table items("items", Schema({{"i_order", ValueType::kInt},
                                 {"qty", ValueType::kInt}}));
    for (int64_t i = 0; i < 6000; ++i) {
      items.AppendRow({Value::Int(rng.UniformInt(0, 1999)),
                       Value::Int(rng.UniformInt(1, 50))});
    }
    ASSERT_TRUE(catalog.AddTable(std::move(items)).ok());
    catalog.AnalyzeAll();
  }
  const int mask = GetParam();
  PopConfig pop;
  pop.enable_lc = (mask & 1) != 0;
  pop.enable_lcem = (mask & 2) != 0;
  pop.enable_ecb = (mask & 4) != 0;
  pop.enable_ecwc = (mask & 8) != 0;
  pop.enable_ecdc = (mask & 16) != 0;

  QuerySpec q("trap");
  const int o = q.AddTable("orders");
  const int it = q.AddTable("items");
  q.AddJoin({o, 0}, {it, 0});
  q.AddPred({o, 1}, PredKind::kEq, Value::Int(7));
  q.AddPred({o, 2}, PredKind::kEq, Value::Int(77));
  q.AddProjection({it, 1});

  ProgressiveExecutor exec(catalog, OptimizerConfig{}, pop);
  Result<std::vector<Row>> pop_rows = exec.Execute(q);
  ASSERT_TRUE(pop_rows.ok());
  Result<std::vector<Row>> static_rows = exec.ExecuteStatic(q);
  ASSERT_TRUE(static_rows.ok());
  EXPECT_EQ(Canonicalize(static_rows.value()), Canonicalize(pop_rows.value()))
      << "flavor mask " << mask;
}

INSTANTIATE_TEST_SUITE_P(FlavorMasks, PopFlavorTest,
                         ::testing::Range(0, 32));

}  // namespace
}  // namespace popdb
