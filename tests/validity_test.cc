#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/pop.h"
#include "core/validity.h"
#include "opt/optimizer.h"
#include "tests/test_util.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace popdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Builds an NLJN winner and an HSJN loser over the same children so the
/// crossover can be computed analytically:
///   NLJN(c)  = outer_sunk + c * (nljn_outer_per_row + per_probe)
///   HSJN(c)  = outer_sunk + inner_scan + hash_build*B + probe_per_row*c ...
struct CandidatePair {
  std::shared_ptr<PlanNode> outer;
  std::shared_ptr<PlanNode> inner_free;   // NLJN inner (cost 0).
  std::shared_ptr<PlanNode> inner_paid;   // Standalone scan for HSJN.
  std::shared_ptr<PlanNode> nljn;
  std::shared_ptr<PlanNode> hsjn;
};

CandidatePair MakePair(const CostModel& cm, double outer_card,
                       double inner_rows, double matches_per_probe) {
  CandidatePair p;
  p.outer = std::make_shared<PlanNode>();
  p.outer->kind = PlanOpKind::kTableScan;
  p.outer->set = TableBit(0);
  p.outer->card = outer_card;
  p.outer->cost = 10000;

  p.inner_free = std::make_shared<PlanNode>();
  p.inner_free->kind = PlanOpKind::kTableScan;
  p.inner_free->set = TableBit(1);
  p.inner_free->card = inner_rows;
  p.inner_free->cost = 0;

  p.inner_paid = std::make_shared<PlanNode>(*p.inner_free);
  p.inner_paid->op_cost = cm.ScanCost(inner_rows);
  p.inner_paid->cost = p.inner_paid->op_cost;

  p.nljn = std::make_shared<PlanNode>();
  p.nljn->kind = PlanOpKind::kNljn;
  p.nljn->set = TableBit(0) | TableBit(1);
  p.nljn->children = {p.outer, p.inner_free};
  p.nljn->child_validity.resize(2);
  p.nljn->card = outer_card * matches_per_probe;
  p.nljn->use_index = true;
  p.nljn->per_probe_cost = cm.NljnProbeCost(true, inner_rows,
                                            matches_per_probe);
  p.nljn->op_cost = cm.NljnCost(outer_card, p.nljn->per_probe_cost);
  p.nljn->cost = p.outer->cost + p.nljn->op_cost;

  p.hsjn = std::make_shared<PlanNode>();
  p.hsjn->kind = PlanOpKind::kHsjn;
  p.hsjn->set = TableBit(0) | TableBit(1);
  p.hsjn->children = {p.outer, p.inner_paid};
  p.hsjn->child_validity.resize(2);
  p.hsjn->card = p.nljn->card;
  p.hsjn->op_cost = cm.HsjnCost(outer_card, inner_rows);
  p.hsjn->cost = p.outer->cost + p.inner_paid->cost + p.hsjn->op_cost;
  return p;
}

class ValidityTest : public ::testing::Test {
 protected:
  CostParams params_;
  CostModel cm_{params_};
  ValidityConfig vc_;
};

TEST_F(ValidityTest, UpperCrossoverCloseToAnalyticRoot) {
  // NLJN wins at the estimate; find where HSJN takes over.
  CandidatePair p = MakePair(cm_, /*outer_card=*/100, /*inner_rows=*/20000,
                             /*matches_per_probe=*/2);
  ASSERT_LT(p.nljn->cost, p.hsjn->cost);
  ValidityRangeAnalyzer analyzer(cm_, vc_);
  const double ub =
      analyzer.FindUpperCrossover(*p.nljn, 0, *p.hsjn, 0, 100);
  ASSERT_LT(ub, kInf);
  // Analytic root: nljn_outer*c + c*per_probe = scan + build*B + probe*c.
  const double per_row_nljn =
      params_.nljn_outer_per_row + p.nljn->per_probe_cost;
  const double analytic = (cm_.ScanCost(20000) +
                           params_.hash_build_per_row * 20000) /
                          (per_row_nljn - params_.hash_probe_per_row);
  EXPECT_GE(ub, analytic * 0.99);  // Conservative: not before the root.
  EXPECT_LE(ub, analytic * 2.0);   // But reasonably tight.
}

TEST_F(ValidityTest, VerifiedInversionOnly) {
  // Whatever bound is returned, the loser must truly be no more expensive
  // there (no false suboptimality, the paper's conservativeness claim).
  for (double outer : {10.0, 100.0, 3000.0}) {
    for (double inner : {500.0, 20000.0, 300000.0}) {
      CandidatePair p = MakePair(cm_, outer, inner, 3);
      if (p.nljn->cost >= p.hsjn->cost) continue;
      ValidityRangeAnalyzer analyzer(cm_, vc_);
      const double ub =
          analyzer.FindUpperCrossover(*p.nljn, 0, *p.hsjn, 0, outer);
      if (ub < kInf) {
        const double winner_cost =
            RecostCandidateWithEdgeCard(*p.nljn, 0, ub, cm_);
        const double loser_cost =
            RecostCandidateWithEdgeCard(*p.hsjn, 0, ub, cm_);
        EXPECT_LE(loser_cost, winner_cost + 1e-6)
            << "outer=" << outer << " inner=" << inner;
      }
    }
  }
}

TEST_F(ValidityTest, NoUpperBoundWhenLoserAlreadyCheaper) {
  CandidatePair p = MakePair(cm_, 100, 20000, 2);
  ValidityRangeAnalyzer analyzer(cm_, vc_);
  // Swap roles: "winner" is actually more expensive; conservative result.
  EXPECT_EQ(kInf, analyzer.FindUpperCrossover(*p.hsjn, 0, *p.nljn, 0, 1e7));
  EXPECT_EQ(0.0, analyzer.FindLowerCrossover(*p.hsjn, 0, *p.nljn, 0, 1e7));
}

TEST_F(ValidityTest, LowerCrossoverFindsNljnRegion) {
  // At a large outer estimate HSJN wins; shrinking the outer makes NLJN
  // win below some cardinality — the lower validity bound. The damped
  // Figure-5 iteration needs a few more steps to travel the 4x distance
  // to this root; with the default cap of 3 it conservatively returns no
  // bound (which is safe), so allow a larger budget here.
  CandidatePair p = MakePair(cm_, 50000, 20000, 2);
  ASSERT_LT(p.hsjn->cost, p.nljn->cost);
  ValidityConfig vc = vc_;
  vc.max_iterations = 12;
  ValidityRangeAnalyzer analyzer(cm_, vc);
  const double lb =
      analyzer.FindLowerCrossover(*p.hsjn, 0, *p.nljn, 0, 50000);
  ASSERT_GT(lb, 0.0);
  const double winner_cost = RecostCandidateWithEdgeCard(*p.hsjn, 0, lb, cm_);
  const double loser_cost = RecostCandidateWithEdgeCard(*p.nljn, 0, lb, cm_);
  EXPECT_LE(loser_cost, winner_cost + 1e-6);
}

TEST_F(ValidityTest, OnPruneNarrowsMatchingEdges) {
  CandidatePair p = MakePair(cm_, 100, 20000, 2);
  ValidityRangeAnalyzer analyzer(cm_, vc_);
  analyzer.OnPrune(p.nljn.get(), *p.hsjn);
  EXPECT_LT(p.nljn->child_validity[0].hi, kInf);
  EXPECT_GT(analyzer.ranges_narrowed(), 0);
}

TEST_F(ValidityTest, OnPruneMatchesCommutedChildren) {
  CandidatePair p = MakePair(cm_, 100, 20000, 2);
  // Build a commuted HSJN: children swapped.
  auto commuted = std::make_shared<PlanNode>(*p.hsjn);
  std::swap(commuted->children[0], commuted->children[1]);
  commuted->op_cost = cm_.HsjnCost(20000, 100);
  commuted->cost = commuted->children[0]->cost +
                   commuted->children[1]->cost + commuted->op_cost;
  ValidityRangeAnalyzer analyzer(cm_, vc_);
  analyzer.OnPrune(p.nljn.get(), *commuted);
  // The outer edge (table 0) must still be matched despite the swap.
  EXPECT_LT(p.nljn->child_validity[0].hi, kInf);
}

TEST_F(ValidityTest, FewIterationsAreEnough) {
  // The paper: three Newton-Raphson iterations find a good range.
  CandidatePair p = MakePair(cm_, 100, 20000, 2);
  ValidityConfig one;
  one.max_iterations = 1;
  ValidityConfig ten;
  ten.max_iterations = 10;
  ValidityRangeAnalyzer a1(cm_, one), a10(cm_, ten);
  const double ub1 = a1.FindUpperCrossover(*p.nljn, 0, *p.hsjn, 0, 100);
  const double ub10 = a10.FindUpperCrossover(*p.nljn, 0, *p.hsjn, 0, 100);
  ASSERT_LT(ub10, kInf);
  if (ub1 < kInf) {
    EXPECT_LE(ub10, ub1 * 1.5);  // More iterations, comparable bound.
  }
}

TEST_F(ValidityTest, EndToEndPlanGetsNarrowedRanges) {
  Catalog catalog;
  testing::BuildToyCatalog(&catalog);
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({d, 0}, {e, 1});
  q.AddPred({d, 0}, PredKind::kEq, Value::Int(2));
  Optimizer opt(catalog, OptimizerConfig{});
  ValidityRangeAnalyzer analyzer(cm_, vc_);
  Result<OptimizedPlan> r = opt.Optimize(q, nullptr, nullptr, &analyzer);
  ASSERT_TRUE(r.ok());
  // The chosen join must carry a narrowed validity range on at least one
  // edge (alternatives exist for a two-table join).
  const PlanNode* join = r.value().root.get();
  while (join->set == 0) join = join->children[0].get();
  bool narrowed = false;
  for (const ValidityRange& vr : join->child_validity) {
    narrowed |= vr.IsNarrowed();
  }
  EXPECT_TRUE(narrowed);
}

TEST_F(ValidityTest, CostEvaluationCountIsBounded) {
  CandidatePair p = MakePair(cm_, 100, 20000, 2);
  ValidityRangeAnalyzer analyzer(cm_, vc_);
  analyzer.OnPrune(p.nljn.get(), *p.hsjn);
  // Per Figure 5, the overhead is a handful of cost evaluations per edge:
  // 2 edges x (upper+lower) x (1 + iterations x 2 probes) x 2 plans.
  EXPECT_LE(analyzer.cost_evaluations(),
            2 * 2 * (1 + vc_.max_iterations * 2) * 2 + 8);
}

// Property sweep: conservativeness must hold for arbitrary cost-model
// parameterizations and cardinality regimes, not just the defaults.
class ValidityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ValidityPropertyTest, BoundsAreVerifiedInversions) {
  const int seed = GetParam();
  CostParams params;
  // Perturb the cost landscape deterministically per seed.
  params.mem_rows = 500 << (seed % 6);
  params.hash_build_per_row = 1.0 + 0.25 * (seed % 5);
  params.nljn_probe_per_match = 0.5 + 0.5 * (seed % 4);
  params.sort_per_compare = 0.05 + 0.05 * (seed % 3);
  const CostModel cm(params);
  ValidityConfig vc;
  vc.max_iterations = 1 + seed % 5;
  const ValidityRangeAnalyzer analyzer(cm, vc);

  const double outers[] = {3, 40, 700, 9000, 120000};
  const double inners[] = {50, 2000, 60000};
  const double matches[] = {1, 4, 20};
  const double outer = outers[seed % 5];
  const double inner = inners[(seed / 5) % 3];
  const double match = matches[(seed / 15) % 3];
  CandidatePair p = MakePair(cm, outer, inner, match);

  // Whichever direction wins at the estimate, every adopted bound must be
  // a verified cost inversion: the loser is no more expensive there.
  const PlanNode* winner = p.nljn->cost <= p.hsjn->cost ? p.nljn.get()
                                                        : p.hsjn.get();
  const PlanNode* loser = winner == p.nljn.get() ? p.hsjn.get()
                                                 : p.nljn.get();
  const double ub =
      analyzer.FindUpperCrossover(*winner, 0, *loser, 0, outer);
  if (ub < kInf) {
    EXPECT_GE(ub, outer);
    EXPECT_LE(RecostCandidateWithEdgeCard(*loser, 0, ub, cm),
              RecostCandidateWithEdgeCard(*winner, 0, ub, cm) + 1e-6)
        << "seed=" << seed;
  }
  const double lb =
      analyzer.FindLowerCrossover(*winner, 0, *loser, 0, outer);
  if (lb > 0) {
    EXPECT_LE(lb, outer);
    EXPECT_LE(RecostCandidateWithEdgeCard(*loser, 0, lb, cm),
              RecostCandidateWithEdgeCard(*winner, 0, lb, cm) + 1e-6)
        << "seed=" << seed;
  }
}

TEST_P(ValidityPropertyTest, RangesContainTheEstimate) {
  // OnPrune must never produce a range that excludes the estimate itself
  // (the plan is optimal there by construction).
  const int seed = GetParam();
  CostParams params;
  params.mem_rows = 1000 << (seed % 5);
  const CostModel cm(params);
  const double outer = 10.0 * (1 << (seed % 10));
  CandidatePair p = MakePair(cm, outer, 20000, 2);
  PlanNode* winner =
      p.nljn->cost <= p.hsjn->cost ? p.nljn.get() : p.hsjn.get();
  const PlanNode* loser =
      winner == p.nljn.get() ? p.hsjn.get() : p.nljn.get();
  ValidityRangeAnalyzer analyzer(cm, ValidityConfig{});
  analyzer.OnPrune(winner, *loser);
  const ValidityRange& range = winner->child_validity[0];
  EXPECT_LE(range.lo, outer) << "seed=" << seed;
  EXPECT_GE(range.hi, outer) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ValidityPropertyTest,
                         ::testing::Range(0, 45));

// ----------------------- validity ranges under vectorized execution.

TEST(ValidityBatchTest, BatchSizesAgreeOnValidityRangeOutcomes) {
  // The CHECK ranges this analyzer derives are evaluated at batch
  // boundaries; an in/out-of-range decision must be identical to batch
  // size 1 — same observed cardinality at the fire, same fired flag, same
  // replanning sequence — at every batch size, including sizes that put
  // the range boundary mid-batch.
  Catalog catalog;
  tpch::GenConfig gen;
  gen.scale = 0.002;
  ASSERT_TRUE(tpch::BuildCatalog(gen, &catalog).ok());

  for (const int sel : {1, 50, 90}) {
    const QuerySpec q = tpch::MakeQ10Selectivity(sel, /*use_marker=*/true);
    const auto run = [&](int64_t batch_rows, ExecutionStats* stats) {
      ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});
      exec.set_batch_rows(batch_rows);
      return exec.Execute(q, stats);
    };
    ExecutionStats row_stats;
    Result<std::vector<Row>> row_rows = run(1, &row_stats);
    ASSERT_TRUE(row_rows.ok()) << row_rows.status().ToString();
    for (const int64_t batch : {3, 64, 1024}) {
      SCOPED_TRACE("sel=" + std::to_string(sel) +
                   " batch_rows=" + std::to_string(batch));
      ExecutionStats batch_stats;
      Result<std::vector<Row>> batch_rows_res = run(batch, &batch_stats);
      ASSERT_TRUE(batch_rows_res.ok())
          << batch_rows_res.status().ToString();
      EXPECT_EQ(row_stats.reopts, batch_stats.reopts);
      ASSERT_EQ(row_stats.attempts.size(), batch_stats.attempts.size());
      for (size_t i = 0; i < row_stats.attempts.size(); ++i) {
        EXPECT_EQ(row_stats.attempts[i].reoptimized,
                  batch_stats.attempts[i].reoptimized)
            << "attempt " << i;
        EXPECT_EQ(row_stats.attempts[i].plan_text,
                  batch_stats.attempts[i].plan_text)
            << "attempt " << i;
      }
      ASSERT_EQ(row_stats.check_events.size(),
                batch_stats.check_events.size());
      for (size_t i = 0; i < row_stats.check_events.size(); ++i) {
        EXPECT_EQ(row_stats.check_events[i].count,
                  batch_stats.check_events[i].count)
            << "event " << i;
        EXPECT_EQ(row_stats.check_events[i].fired,
                  batch_stats.check_events[i].fired)
            << "event " << i;
      }
    }
  }
}

}  // namespace
}  // namespace popdb
