#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/validity.h"
#include "dmv/dmv_gen.h"
#include "dmv/dmv_queries.h"
#include "opt/enumerator.h"
#include "opt/optimizer.h"
#include "tests/test_util.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace popdb {
namespace {

class EnumeratorTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::BuildToyCatalog(&catalog_); }

  Result<OptimizedPlan> Optimize(const QuerySpec& q,
                                 OptimizerConfig config = {},
                                 const FeedbackMap* fb = nullptr,
                                 const std::vector<AvailableMatView>* mvs =
                                     nullptr) {
    Optimizer opt(catalog_, config);
    return opt.Optimize(q, fb, mvs, nullptr);
  }

  Result<OptimizedPlan> OptimizeWithMemo(const QuerySpec& q,
                                         IncrementalMemo* memo,
                                         const FeedbackMap* fb = nullptr) {
    Optimizer opt(catalog_, {});
    return opt.Optimize(q, fb, nullptr, nullptr, memo);
  }

  /// The join subtree under the top operators (agg/sort/project).
  static const PlanNode* JoinRoot(const PlanNode* node) {
    while (node->set == 0 && !node->children.empty()) {
      node = node->children[0].get();
    }
    return node;
  }

  Catalog catalog_;
};

TEST_F(EnumeratorTest, SingleTablePlanIsScan) {
  QuerySpec q("q");
  q.AddTable("emp");
  Result<OptimizedPlan> r = Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(PlanOpKind::kTableScan, JoinRoot(r.value().root.get())->kind);
}

TEST_F(EnumeratorTest, NoTablesIsAnError) {
  QuerySpec q("q");
  Result<OptimizedPlan> r = Optimize(q);
  EXPECT_FALSE(r.ok());
}

TEST_F(EnumeratorTest, MissingTableIsNotFound) {
  QuerySpec q("q");
  q.AddTable("ghost");
  Result<OptimizedPlan> r = Optimize(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(StatusCode::kNotFound, r.status().code());
}

TEST_F(EnumeratorTest, JoinPlanCoversAllTables) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  q.AddJoin({e, 1}, {d, 0});
  q.AddJoin({s, 0}, {e, 0});
  Result<OptimizedPlan> r = Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(q.AllTables(), JoinRoot(r.value().root.get())->set);
}

TEST_F(EnumeratorTest, AllMethodsDisabledFailsOnJoins) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({e, 1}, {d, 0});
  OptimizerConfig config;
  config.methods.enable_nljn = false;
  config.methods.enable_hsjn = false;
  config.methods.enable_mgjn = false;
  Result<OptimizedPlan> r = Optimize(q, config);
  EXPECT_FALSE(r.ok());
}

TEST_F(EnumeratorTest, DisabledHashJoinNeverAppears) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  q.AddJoin({e, 1}, {d, 0});
  q.AddJoin({s, 0}, {e, 0});
  OptimizerConfig config;
  config.methods.enable_hsjn = false;
  Result<OptimizedPlan> r = Optimize(q, config);
  ASSERT_TRUE(r.ok());
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    EXPECT_NE(PlanOpKind::kHsjn, node.kind);
    for (const auto& c : node.children) walk(*c);
  };
  walk(*r.value().root);
}

TEST_F(EnumeratorTest, NljnInnerIsAlwaysSingleTable) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  q.AddJoin({e, 1}, {d, 0});
  q.AddJoin({s, 0}, {e, 0});
  OptimizerConfig config;
  config.methods.enable_hsjn = false;
  config.methods.enable_mgjn = false;
  Result<OptimizedPlan> r = Optimize(q, config);
  ASSERT_TRUE(r.ok());
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    if (node.kind == PlanOpKind::kNljn) {
      EXPECT_EQ(1, PopCount(node.children[1]->set));
      EXPECT_EQ(PlanOpKind::kTableScan, node.children[1]->kind);
    }
    for (const auto& c : node.children) walk(*c);
  };
  walk(*r.value().root);
}

TEST_F(EnumeratorTest, CrossJoinFallbackProducesPlan) {
  QuerySpec q("q");
  q.AddTable("dept");
  q.AddTable("emp");
  // No join predicates at all.
  Result<OptimizedPlan> r = Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(q.AllTables(), JoinRoot(r.value().root.get())->set);
}

TEST_F(EnumeratorTest, IndexNljnPreferredForSelectiveOuter) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({d, 0}, {e, 1});  // d_id = e_dept (emp.e_dept has an index).
  q.AddPred({d, 0}, PredKind::kEq, Value::Int(2));  // One dept.
  Result<OptimizedPlan> r = Optimize(q);
  ASSERT_TRUE(r.ok());
  const PlanNode* join = JoinRoot(r.value().root.get());
  ASSERT_EQ(PlanOpKind::kNljn, join->kind);
  EXPECT_TRUE(join->use_index);
  EXPECT_EQ(1, join->index_col);  // e_dept.
}

TEST_F(EnumeratorTest, UnindexedJoinColumnPrefersHashJoin) {
  QuerySpec q("q");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  // Join on columns with no index: a nested-loop join would scan the
  // inner per outer row, so hash join must win.
  q.AddJoin({s, 2}, {e, 2});
  Result<OptimizedPlan> r = Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(PlanOpKind::kHsjn, JoinRoot(r.value().root.get())->kind);
}

TEST_F(EnumeratorTest, MatViewSeedsSingleTableAccess) {
  QuerySpec q("q");
  const int e = q.AddTable("emp");
  q.AddPred({e, 2}, PredKind::kLt, Value::Int(40));
  const SharedRows rows = std::make_shared<const std::vector<Row>>(
      10, Row{Value::Int(1), Value::Int(1), Value::Int(30),
              Value::String("x")});
  std::vector<AvailableMatView> mvs = {
      {"mv_emp", TableBit(e), 10.0, rows, {}}};
  Result<OptimizedPlan> r = Optimize(q, {}, nullptr, &mvs);
  ASSERT_TRUE(r.ok());
  // Scanning 10 materialized rows beats scanning 200 base rows.
  EXPECT_EQ(PlanOpKind::kMatViewScan, JoinRoot(r.value().root.get())->kind);
}

TEST_F(EnumeratorTest, MatViewSeedsMultiTableSet) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  q.AddJoin({e, 1}, {d, 0});
  q.AddJoin({s, 0}, {e, 0});
  const SharedRows rows =
      std::make_shared<const std::vector<Row>>(5, Row(9, Value::Int(1)));
  FeedbackMap fb;
  fb[TableBit(d) | TableBit(e)].exact = 5.0;
  std::vector<AvailableMatView> mvs = {
      {"mv_de", TableBit(d) | TableBit(e), 5.0, rows, {}}};
  Result<OptimizedPlan> r = Optimize(q, {}, &fb, &mvs);
  ASSERT_TRUE(r.ok());
  bool found_mv = false;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    if (node.kind == PlanOpKind::kMatViewScan) found_mv = true;
    for (const auto& c : node.children) walk(*c);
  };
  walk(*r.value().root);
  EXPECT_TRUE(found_mv);
}

TEST_F(EnumeratorTest, MatViewRejectedWhenMoreExpensive) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  // A "materialized" copy of dept that is larger than the base table.
  const SharedRows rows = std::make_shared<const std::vector<Row>>(
      5000, Row{Value::Int(1), Value::String("x"), Value::Int(0)});
  std::vector<AvailableMatView> mvs = {
      {"mv_dept", TableBit(d), 5000.0, rows, {}}};
  Result<OptimizedPlan> r = Optimize(q, {}, nullptr, &mvs);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(PlanOpKind::kTableScan, JoinRoot(r.value().root.get())->kind);
}

TEST_F(EnumeratorTest, FeedbackChangesJoinOrder) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({d, 0}, {e, 1});
  q.AddPred({d, 0}, PredKind::kEq, Value::Int(2));
  // Without feedback the selective dept drives an index NLJN into emp.
  Result<OptimizedPlan> before = Optimize(q);
  ASSERT_TRUE(before.ok());
  const PlanNode* join_before = JoinRoot(before.value().root.get());
  ASSERT_EQ(PlanOpKind::kNljn, join_before->kind);
  EXPECT_EQ(TableBit(d), join_before->children[0]->set);  // dept outer.
  // Feedback reveals the dept restriction keeps far more rows than
  // estimated: driving the join from dept is no longer the plan.
  FeedbackMap fb;
  fb[TableBit(d)].exact = 2000.0;
  Result<OptimizedPlan> after = Optimize(q, {}, &fb);
  ASSERT_TRUE(after.ok());
  const PlanNode* join_after = JoinRoot(after.value().root.get());
  EXPECT_FALSE(join_after->kind == PlanOpKind::kNljn &&
               join_after->children[0]->set == TableBit(d));
}

TEST_F(EnumeratorTest, TopOperatorsMatchQueryShape) {
  QuerySpec q("q");
  const int e = q.AddTable("emp");
  q.AddGroupBy({e, 1});
  q.AddAgg(AggFunc::kCount);
  q.AddOrderBy(1, true);
  Result<OptimizedPlan> r = Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(PlanOpKind::kSort, r.value().root->kind);
  EXPECT_EQ(PlanOpKind::kAgg, r.value().root->children[0]->kind);
}

TEST_F(EnumeratorTest, ProjectionPositionsResolved) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({e, 1}, {d, 0});
  q.AddProjection({e, 3});
  q.AddProjection({d, 1});
  Result<OptimizedPlan> r = Optimize(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(PlanOpKind::kProject, r.value().root->kind);
  // Row layout: the columns the query reads, dept's (d.0, d.1) before
  // emp's (e.1, e.3).
  EXPECT_EQ(std::vector<int>({3, 1}), r.value().root->positions);
}

TEST_F(EnumeratorTest, MemoSingleTableQueryReusesItsOnlyEntry) {
  // Degenerate DP: one table, one memo entry. A re-optimization with
  // unchanged feedback must reuse it and still pick the same plan.
  QuerySpec q("q");
  q.AddTable("emp");
  IncrementalMemo memo;
  Result<OptimizedPlan> first = OptimizeWithMemo(q, &memo);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(0, first.value().memo_reused);  // Memo was empty.
  EXPECT_EQ(1, memo.entries());

  Result<OptimizedPlan> second = OptimizeWithMemo(q, &memo);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(1, second.value().memo_reused);
  EXPECT_EQ(0, second.value().memo_invalidated);
  EXPECT_EQ(PlanDigest(*first.value().root),
            PlanDigest(*second.value().root));
}

TEST_F(EnumeratorTest, MemoPerturbedDimEdgeInvalidatesOnlySupersets) {
  // Star-style join with dept as the dimension: moving the observed
  // cardinality of the dept edge must invalidate exactly the four table
  // sets containing dept ({d}, {d,e}, {d,s}, {d,e,s}) and reuse the three
  // that do not ({e}, {s}, {e,s}) — and the incremental plan must be
  // bit-identical to a from-scratch optimization under the new feedback.
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  q.AddJoin({e, 1}, {d, 0});
  q.AddJoin({s, 0}, {e, 0});

  IncrementalMemo memo;
  ASSERT_TRUE(OptimizeWithMemo(q, &memo).ok());
  EXPECT_EQ(7, memo.entries());  // All subsets of a 3-table query.

  FeedbackMap fb;
  fb[TableBit(d)].exact = 2.0;
  Result<OptimizedPlan> inc = OptimizeWithMemo(q, &memo, &fb);
  ASSERT_TRUE(inc.ok());
  EXPECT_EQ(3, inc.value().memo_reused);
  EXPECT_EQ(4, inc.value().memo_invalidated);

  Result<OptimizedPlan> fresh = Optimize(q, {}, &fb);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(PlanDigest(*fresh.value().root), PlanDigest(*inc.value().root));
}

TEST_F(EnumeratorTest, MemoNoOpReoptReusesTheWholeMemo) {
  // A re-optimization whose feedback did not move (the no-op delta) must
  // reuse every entry and invalidate none.
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  q.AddJoin({e, 1}, {d, 0});
  q.AddJoin({s, 0}, {e, 0});
  FeedbackMap fb;
  fb[TableBit(e)].exact = 150.0;

  IncrementalMemo memo;
  Result<OptimizedPlan> first = OptimizeWithMemo(q, &memo, &fb);
  ASSERT_TRUE(first.ok());

  Result<OptimizedPlan> second = OptimizeWithMemo(q, &memo, &fb);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(memo.entries(), second.value().memo_reused);
  EXPECT_EQ(0, second.value().memo_invalidated);
  EXPECT_EQ(PlanDigest(*first.value().root),
            PlanDigest(*second.value().root));
}

TEST_F(EnumeratorTest, MemoEveryEdgeMovedInvalidatesEverything) {
  // When every base-table edge moved, every table set contains a dirty
  // root: nothing is reusable and the enumeration degenerates to full DP
  // (which must still agree with a memo-less optimization).
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  q.AddJoin({e, 1}, {d, 0});
  q.AddJoin({s, 0}, {e, 0});

  IncrementalMemo memo;
  ASSERT_TRUE(OptimizeWithMemo(q, &memo).ok());

  FeedbackMap fb;
  fb[TableBit(d)].exact = 3.0;
  fb[TableBit(e)].exact = 400.0;
  fb[TableBit(s)].exact = 250.0;
  Result<OptimizedPlan> inc = OptimizeWithMemo(q, &memo, &fb);
  ASSERT_TRUE(inc.ok());
  EXPECT_EQ(0, inc.value().memo_reused);
  EXPECT_EQ(7, inc.value().memo_invalidated);

  Result<OptimizedPlan> fresh = Optimize(q, {}, &fb);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(PlanDigest(*fresh.value().root), PlanDigest(*inc.value().root));
}

TEST_F(EnumeratorTest, MemoKeepsMatViewsByIdentityWhenOffersShift) {
  // Entries that scan a matview survive a re-optimization whose offer list
  // gained a view in front (it only dirties dept's supersets); they must
  // still scan their own view, not whichever now sits at their old index.
  // Without NLJN the final plan reaches the views through those entries.
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  const int s = q.AddTable("sale");
  q.AddJoin({e, 1}, {d, 0});
  q.AddJoin({s, 0}, {e, 0});
  // Never read by the optimizer.
  const SharedRows rows = std::make_shared<const std::vector<Row>>();
  std::vector<AvailableMatView> mvs = {
      {"mv_emp", TableBit(e), 10.0, rows, {}},
      {"mv_sale", TableBit(s), 20.0, rows, {}}};
  OptimizerConfig config;
  config.methods.enable_nljn = false;
  Optimizer opt(catalog_, config);
  IncrementalMemo memo;
  ASSERT_TRUE(opt.Optimize(q, nullptr, &mvs, nullptr, &memo).ok());

  mvs.insert(mvs.begin(),
             AvailableMatView{"mv_dept", TableBit(d), 2.0, rows, {}});
  Result<OptimizedPlan> inc = opt.Optimize(q, nullptr, &mvs, nullptr, &memo);
  Result<OptimizedPlan> fresh = opt.Optimize(q, nullptr, &mvs);
  ASSERT_TRUE(inc.ok() && fresh.ok());
  EXPECT_EQ(3, inc.value().memo_reused);  // {emp}, {sale}, {emp, sale}.
  EXPECT_EQ(PlanDigest(*fresh.value().root), PlanDigest(*inc.value().root))
      << "fresh:\n" << fresh.value().root->ToString() << "incremental:\n"
      << inc.value().root->ToString();
}

TEST_F(EnumeratorTest, SamePartitionDetection) {
  auto leaf = [](TableSet set) {
    auto n = std::make_shared<PlanNode>();
    n->kind = PlanOpKind::kTableScan;
    n->set = set;
    return n;
  };
  auto join = [&](PlanOpKind kind, TableSet a, TableSet b) {
    auto n = std::make_shared<PlanNode>();
    n->kind = kind;
    n->set = a | b;
    n->children = {leaf(a), leaf(b)};
    n->child_validity.resize(2);
    return n;
  };
  auto h01 = join(PlanOpKind::kHsjn, TableBit(0), TableBit(1));
  auto h10 = join(PlanOpKind::kHsjn, TableBit(1), TableBit(0));
  auto n01 = join(PlanOpKind::kNljn, TableBit(0), TableBit(1));
  auto h02 = join(PlanOpKind::kHsjn, TableBit(0), TableBit(2));
  EXPECT_TRUE(SamePartition(*h01, *h10));  // Commutation counts.
  EXPECT_TRUE(SamePartition(*h01, *n01));  // Different operator counts.
  EXPECT_FALSE(SamePartition(*h01, *h02));
  EXPECT_FALSE(SamePartition(*h01, *leaf(TableBit(0))));
}

// ------------------------------------------------- Memo plan identity.
//
// A persistent IncrementalMemo must pick the plan full DP picks under the
// same feedback and matview offers, whatever deltas came before.

/// Optimizes `q` under `memo` and from scratch with identical inputs and
/// expects bit-identical plans: PlanDigest over every field of the tree,
/// stricter than the printed plan, and the same cost and cardinality to
/// the last bit. Returns the memo entries the incremental run reused.
int64_t ExpectIdenticalPlans(const Optimizer& opt, const QuerySpec& q,
                             const FeedbackMap* fb,
                             const std::vector<AvailableMatView>* mvs,
                             IncrementalMemo* memo,
                             const std::string& label) {
  Result<OptimizedPlan> fresh = opt.Optimize(q, fb, mvs, nullptr, nullptr);
  Result<OptimizedPlan> inc = opt.Optimize(q, fb, mvs, nullptr, memo);
  if (!fresh.ok() || !inc.ok()) {
    ADD_FAILURE() << label << ": full DP "
                  << (fresh.ok() ? "ok" : fresh.status().ToString())
                  << ", incremental "
                  << (inc.ok() ? "ok" : inc.status().ToString());
    return 0;
  }
  EXPECT_EQ(PlanDigest(*fresh.value().root), PlanDigest(*inc.value().root))
      << label << ":\nfull DP:\n"
      << fresh.value().root->ToString() << "\nincremental:\n"
      << inc.value().root->ToString();
  EXPECT_EQ(fresh.value().est_cost, inc.value().est_cost) << label;
  EXPECT_EQ(fresh.value().est_card, inc.value().est_card) << label;
  return inc.value().memo_reused;
}

const Catalog& TpchCatalog() {
  static const Catalog* catalog = [] {
    auto* c = new Catalog();
    tpch::GenConfig gen;
    gen.scale = 0.002;
    POPDB_DCHECK(tpch::BuildCatalog(gen, c).ok());
    return c;
  }();
  return *catalog;
}

TEST(MemoIdentityTest, RandomizedPerturbationsKeepPlanIdentity) {
  // Q8/Q9 under a persistent memo, with a random edge cardinality
  // perturbed (or dropped), a matview offer toggled, or nothing changed
  // between optimizations.
  const Optimizer opt(TpchCatalog(), OptimizerConfig{});
  // Never executed; identity only.
  const SharedRows mv_rows = std::make_shared<const std::vector<Row>>();
  for (const int qnum : {8, 9}) {
    const QuerySpec q = tpch::MakeQuery(qnum);
    std::vector<TableSet> bits;
    for (TableSet s = q.AllTables(); s != 0; s &= s - 1) {
      bits.push_back(s & ~(s - 1));
    }
    const auto random_bit = [&](Rng* rng) {
      return bits[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(bits.size()) - 1))];
    };

    Rng rng(0xC0FFEE + static_cast<uint64_t>(qnum));
    IncrementalMemo memo;
    FeedbackMap fb;
    std::vector<AvailableMatView> mvs;
    int64_t reused = 0;
    for (int round = 0; round < 40; ++round) {
      // Random nonempty subset of the query's tables: the perturbed edge.
      TableSet edge = 0;
      for (const TableSet b : bits) {
        if (rng.Bernoulli(0.4)) edge |= b;
      }
      if (edge == 0) edge = random_bit(&rng);
      switch (rng.UniformInt(0, 5)) {
        case 0:  // No-op round: everything must be reused.
          break;
        case 1:
          fb.erase(edge);
          break;
        case 2:
          fb[edge].lower_bound = 1.0 + rng.UniformDouble() * 10000.0;
          break;
        case 3:  // Toggle a matview offer for a random singleton.
          if (mvs.empty()) {
            mvs.push_back({"mv_fuzz", random_bit(&rng),
                           1.0 + rng.UniformDouble() * 50.0, mv_rows, {}});
          } else {
            mvs.clear();
          }
          break;
        default:
          fb[edge].exact = 1.0 + rng.UniformDouble() * 10000.0;
          break;
      }
      reused += ExpectIdenticalPlans(
          opt, q, &fb, mvs.empty() ? nullptr : &mvs, &memo,
          StrFormat("q%d round=%d", qnum, round));
    }
    // Perturbing one edge leaves the disjoint part of the memo reusable;
    // a sweep that never reused anything would be testing nothing.
    EXPECT_GT(reused, 0) << "q" << qnum;
  }
}

TEST(MemoIdentityTest, FingerprintMismatchFallsBackToFullDp) {
  // A memo committed for one query must never leak entries into another
  // query's optimization: the canonical-signature fingerprint gates reuse.
  const Optimizer opt(TpchCatalog(), OptimizerConfig{});
  IncrementalMemo memo;
  ASSERT_TRUE(
      opt.Optimize(tpch::MakeQuery(8), nullptr, nullptr, nullptr, &memo).ok());
  ASSERT_GT(memo.entries(), 0);
  EXPECT_EQ(0, ExpectIdenticalPlans(opt, tpch::MakeQuery(9), nullptr, nullptr,
                                    &memo, "q9 after q8"))
      << "memo entries leaked across query fingerprints";
}

class MemoFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(MemoFuzzTest, IncrementalReoptMatchesFullDp) {
  // Random star queries under one persistent memo per optimizer
  // configuration, with random cardinality deltas (exact values, lower
  // bounds, retractions) and occasional epoch bumps (memo reset). A new
  // query shape mid-stream exercises the fingerprint gate.
  static const Catalog* star = [] {
    auto* c = new Catalog();
    testing::BuildStarCatalog(c);
    return c;
  }();
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 555);
  const Optimizer opt(*star, testing::RandomOptimizerConfig(&rng));
  IncrementalMemo memo;
  FeedbackMap fb;
  QuerySpec q = testing::RandomStarQuery(&rng);
  int64_t reused = 0;
  for (int round = 0; round < 12; ++round) {
    if (rng.Bernoulli(0.15)) {
      q = testing::RandomStarQuery(&rng);
      fb.clear();
    }
    if (rng.Bernoulli(0.1)) memo.Reset();  // Epoch bump.
    TableSet edge = 0;
    for (TableSet s = q.AllTables(); s != 0; s &= s - 1) {
      if (rng.Bernoulli(0.5)) edge |= s & ~(s - 1);
    }
    if (edge == 0) edge = TableBit(0);
    switch (rng.UniformInt(0, 3)) {
      case 0:
        break;  // No-op delta.
      case 1:
        fb.erase(edge);
        break;
      case 2:
        fb[edge].lower_bound = 1.0 + rng.UniformDouble() * 2000.0;
        break;
      default:
        fb[edge].exact = 1.0 + rng.UniformDouble() * 2000.0;
        break;
    }
    reused += ExpectIdenticalPlans(
        opt, q, &fb, nullptr, &memo,
        "seed=" + std::to_string(GetParam()) + " round=" +
            std::to_string(round) + "\n" + q.ToString());
  }
  // Across 12 rounds of mostly-stable queries some entries must have been
  // reused, or the comparison above set full DP against full DP.
  EXPECT_GT(reused, 0) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoFuzzTest, ::testing::Range(0, 25));

// ----------------------------------------------------- Golden plan table.
//
// PlanDigest (validity ranges included) and candidate count of every
// TPC-H paper query, literal and parameter-marker variants, and every DMV
// corpus query under four optimizer configurations: the default, hash
// join disabled (as the LC overhead study runs it), volatile-mode bias 50,
// and one deterministic perturbed FeedbackMap. Three extra cases reach the
// remaining enumerator paths: a single-table matview (access-path choice
// and NLJN over the view), a multi-table matview sorted on a join key
// (merge join without a sort), and a disconnected join graph (the
// cross-product pass). The values pin the plan space and the costing
// arithmetic: any change in plan choice, a cost bit, a validity range or
// the candidate count fails here.

struct GoldenPlan {
  const char* label;
  uint64_t digest;
  int64_t candidates;
};

// Regenerate by running this test and pasting the table it prints on a
// mismatch, after confirming the change in plans is intended.
constexpr GoldenPlan kGoldenPlans[] = {
    {"tpch/q2@default", 0x1c75e983c79a250aull, 306},
    {"tpch/q2@no_hsjn", 0x27e225c1c49b1926ull, 144},
    {"tpch/q2@bias50", 0x26a825c7e680d1d1ull, 306},
    {"tpch/q2@feedback", 0xc7cdeb8064111898ull, 306},
    {"tpch/q2m@default", 0xd404be12c11bf96aull, 306},
    {"tpch/q2m@no_hsjn", 0x9575435cbc498334ull, 144},
    {"tpch/q2m@bias50", 0x8a14c2cdd8e79470ull, 306},
    {"tpch/q2m@feedback", 0x8b5c0a2f246cbd27ull, 306},
    {"tpch/q3@default", 0xc2934395eb096f87ull, 29},
    {"tpch/q3@no_hsjn", 0x4ebf5d7cbf45245bull, 17},
    {"tpch/q3@bias50", 0x9f9a9227b3a7596aull, 29},
    {"tpch/q3@feedback", 0xbc58519f30ec76bfull, 29},
    {"tpch/q3m@default", 0x037a61aeab58ac39ull, 29},
    {"tpch/q3m@no_hsjn", 0x4563452aa9a7e48full, 17},
    {"tpch/q3m@bias50", 0x088744595e28748dull, 29},
    {"tpch/q3m@feedback", 0xd996c938c17bcab1ull, 29},
    {"tpch/q4@default", 0xed2cbe29ca8ddc2dull, 7},
    {"tpch/q4@no_hsjn", 0x8e9d3b13144c26a8ull, 5},
    {"tpch/q4@bias50", 0x5735baa50391d1beull, 7},
    {"tpch/q4@feedback", 0x9e857f22dabeed1cull, 7},
    {"tpch/q4m@default", 0xe144aa68565bcc1full, 7},
    {"tpch/q4m@no_hsjn", 0xf79fc7c2d0bce878ull, 5},
    {"tpch/q4m@bias50", 0xa802d2a9870693e5ull, 7},
    {"tpch/q4m@feedback", 0xadb646b58b39e9d0ull, 7},
    {"tpch/q5@default", 0xe1753b47ae9f2d5full, 989},
    {"tpch/q5@no_hsjn", 0x262b9285a58fcec4ull, 433},
    {"tpch/q5@bias50", 0xb3625575647df4dcull, 989},
    {"tpch/q5@feedback", 0x4bf5b276e2c4b893ull, 989},
    {"tpch/q5m@default", 0x4ac398b71625597bull, 989},
    {"tpch/q5m@no_hsjn", 0x8db6c58e8fe89da6ull, 433},
    {"tpch/q5m@bias50", 0x2b0737381018f422ull, 989},
    {"tpch/q5m@feedback", 0xc763077d4d1e33e0ull, 989},
    {"tpch/q7@default", 0xa6c60073844a9a4cull, 945},
    {"tpch/q7@no_hsjn", 0x6f5aee82109480aaull, 411},
    {"tpch/q7@bias50", 0x4dcbf0624e8c2d56ull, 945},
    {"tpch/q7@feedback", 0x34bc641af26452ddull, 945},
    {"tpch/q7m@default", 0x43a5fb83e7af44aaull, 945},
    {"tpch/q7m@no_hsjn", 0x584443a071635758ull, 411},
    {"tpch/q7m@bias50", 0xd8e606ffc4f0cec0ull, 945},
    {"tpch/q7m@feedback", 0xe01872bc4c67a4c7ull, 945},
    {"tpch/q8@default", 0x2206491b3af1536aull, 8775},
    {"tpch/q8@no_hsjn", 0xf082e274c65e5c4bull, 3389},
    {"tpch/q8@bias50", 0xa64fa402d927a5a4ull, 8775},
    {"tpch/q8@feedback", 0x29eeb8410e463912ull, 8775},
    {"tpch/q8m@default", 0x7d63103d0fbd5dcaull, 8775},
    {"tpch/q8m@no_hsjn", 0x36684727ea4b7b6bull, 3389},
    {"tpch/q8m@bias50", 0xc661ccb78cc854fdull, 8775},
    {"tpch/q8m@feedback", 0xbbd17d45bf5e9128ull, 8775},
    {"tpch/q9@default", 0x702af3c136cd11c9ull, 953},
    {"tpch/q9@no_hsjn", 0xb1fe8832c8223f97ull, 403},
    {"tpch/q9@bias50", 0x45d26c8bc40266fdull, 953},
    {"tpch/q9@feedback", 0xfc60559a61df9db0ull, 953},
    {"tpch/q9m@default", 0x702af3c136cd11c9ull, 953},
    {"tpch/q9m@no_hsjn", 0xb1fe8832c8223f97ull, 403},
    {"tpch/q9m@bias50", 0x45d26c8bc40266fdull, 953},
    {"tpch/q9m@feedback", 0xfc60559a61df9db0ull, 953},
    {"tpch/q10@default", 0x93162391d3d15260ull, 96},
    {"tpch/q10@no_hsjn", 0x7112f8467de8732eull, 50},
    {"tpch/q10@bias50", 0x5ce29c8b2640639full, 96},
    {"tpch/q10@feedback", 0xa7c6541174735cd6ull, 96},
    {"tpch/q10m@default", 0xda545797b0390057ull, 96},
    {"tpch/q10m@no_hsjn", 0x46eae4254173507full, 50},
    {"tpch/q10m@bias50", 0xeaf7599de6ed5ff0ull, 96},
    {"tpch/q10m@feedback", 0xa07e2483bc5d5daeull, 96},
    {"tpch/q11@default", 0x680e65956e76415dull, 29},
    {"tpch/q11@no_hsjn", 0x4cc76eaa99cf6c8aull, 17},
    {"tpch/q11@bias50", 0xb7f530147b1d2823ull, 29},
    {"tpch/q11@feedback", 0xe90c072d11620b47ull, 29},
    {"tpch/q11m@default", 0x6b69173317bf252aull, 29},
    {"tpch/q11m@no_hsjn", 0xa0010d77d9adf25dull, 17},
    {"tpch/q11m@bias50", 0x44f5a22c52cb90cbull, 29},
    {"tpch/q11m@feedback", 0xda09611e6eb463bfull, 29},
    {"tpch/q18@default", 0xec9d830fcd1a30b6ull, 29},
    {"tpch/q18@no_hsjn", 0xabeff0f28ea80568ull, 17},
    {"tpch/q18@bias50", 0x3da3376804ba37adull, 29},
    {"tpch/q18@feedback", 0x043957b836e7ada0ull, 29},
    {"tpch/q18m@default", 0x8046ff3a4237aa62ull, 29},
    {"tpch/q18m@no_hsjn", 0xb5c38e113fb3ca43ull, 17},
    {"tpch/q18m@bias50", 0x5b7cdb7bd3deeebfull, 29},
    {"tpch/q18m@feedback", 0x94534bdb0e662d83ull, 29},
    {"extra/q8_mv_orders@default", 0x364f7378f9f4d8ddull, 8889},
    {"extra/q8_mv_orders@no_hsjn", 0xa3d77ca2fc88ec90ull, 3503},
    {"extra/q8_mv_orders@bias50", 0xa1a90857e30a6df2ull, 8889},
    {"extra/q8_mv_orders@feedback", 0xb552edd6fce9981eull, 8889},
    {"extra/q8_mv_orders_customer@default", 0x4dc94ce0166a15e5ull, 8775},
    {"extra/q8_mv_orders_customer@no_hsjn", 0xbb28e29c8c6adb24ull, 3389},
    {"extra/q8_mv_orders_customer@bias50", 0x7ccae4750e47a627ull, 8775},
    {"extra/q8_mv_orders_customer@feedback", 0x29eeb8410e463912ull, 8775},
    {"extra/q8_mv_orders_customer@mgjn_only", 0xfb6a1de6829dbc97ull, 124},
    {"extra/disconnected@default", 0x8a93e508b569816eull, 88},
    {"extra/disconnected@no_hsjn", 0x3854aeb98a9a5180ull, 44},
    {"extra/disconnected@bias50", 0x8e10cbce2c382d43ull, 88},
    {"extra/disconnected@feedback", 0x932b4aa546bdf299ull, 88},
    {"dmv/dmv_q01@default", 0xd7041e5c72271108ull, 9133},
    {"dmv/dmv_q01@no_hsjn", 0x9df0cb28872d1486ull, 3083},
    {"dmv/dmv_q01@bias50", 0x39bf136f7fb1da15ull, 9133},
    {"dmv/dmv_q01@feedback", 0xbab46997207a2c7cull, 9133},
    {"dmv/dmv_q02@default", 0x2508339f0c8cc752ull, 29},
    {"dmv/dmv_q02@no_hsjn", 0xc125816b743b97e7ull, 17},
    {"dmv/dmv_q02@bias50", 0xa11868f79b356bb8ull, 29},
    {"dmv/dmv_q02@feedback", 0x0ae9aa5a1a2d764aull, 29},
    {"dmv/dmv_q03@default", 0x27db8c23087dce20ull, 1005},
    {"dmv/dmv_q03@no_hsjn", 0x041fa0d88076d54dull, 403},
    {"dmv/dmv_q03@bias50", 0xac0b7911feaa62cbull, 1005},
    {"dmv/dmv_q03@feedback", 0xd46a9022295fb8ebull, 1005},
    {"dmv/dmv_q04@default", 0x202ab6f6a65d3140ull, 101},
    {"dmv/dmv_q04@no_hsjn", 0x2b684652e6f88929ull, 51},
    {"dmv/dmv_q04@bias50", 0xc8e99c767c86fcc5ull, 101},
    {"dmv/dmv_q04@feedback", 0x498885018098e6e1ull, 101},
    {"dmv/dmv_q05@default", 0x5d5dab8ede91f10eull, 101},
    {"dmv/dmv_q05@no_hsjn", 0x3d4e3d6df5c610aaull, 51},
    {"dmv/dmv_q05@bias50", 0x65a7d9ae8deb37dbull, 101},
    {"dmv/dmv_q05@feedback", 0xec5f0be92339c2ebull, 101},
    {"dmv/dmv_q06@default", 0x339d7d334c5d9a92ull, 9133},
    {"dmv/dmv_q06@no_hsjn", 0x3538f563331a6edaull, 3083},
    {"dmv/dmv_q06@bias50", 0x7c1fe1bcc2832248ull, 9133},
    {"dmv/dmv_q06@feedback", 0xca7ffc795e081761ull, 9133},
    {"dmv/dmv_q07@default", 0xb84dca1ef6027efdull, 101},
    {"dmv/dmv_q07@no_hsjn", 0x5117b92420b874acull, 51},
    {"dmv/dmv_q07@bias50", 0x7659662f49c19669ull, 101},
    {"dmv/dmv_q07@feedback", 0x769bc41dda48e230ull, 101},
    {"dmv/dmv_q08@default", 0x68929eca18b63c75ull, 2903},
    {"dmv/dmv_q08@no_hsjn", 0x0f21603fee87fd79ull, 1131},
    {"dmv/dmv_q08@bias50", 0xbfb775318168e591ull, 2903},
    {"dmv/dmv_q08@feedback", 0x55df9c8f690a9299ull, 2903},
    {"dmv/dmv_q09@default", 0xcb712768cd55fde7ull, 946},
    {"dmv/dmv_q09@no_hsjn", 0xf70a376b30e039c2ull, 404},
    {"dmv/dmv_q09@bias50", 0x95f3720744168f00ull, 946},
    {"dmv/dmv_q09@feedback", 0x7dfd57946c5c76deull, 946},
    {"dmv/dmv_q10@default", 0x337245dee0f0803full, 1005},
    {"dmv/dmv_q10@no_hsjn", 0x0357be48eb3e1bbfull, 403},
    {"dmv/dmv_q10@bias50", 0x8d8adab8c00d83f8ull, 1005},
    {"dmv/dmv_q10@feedback", 0x98c531084b27e797ull, 1005},
    {"dmv/dmv_q11@default", 0xbc127c990ecedb63ull, 3045},
    {"dmv/dmv_q11@no_hsjn", 0x936a34147d5b1197ull, 1113},
    {"dmv/dmv_q11@bias50", 0x169cb40b47064712ull, 3045},
    {"dmv/dmv_q11@feedback", 0x3abf727153785e53ull, 3045},
    {"dmv/dmv_q12@default", 0xe25e9cc90ae04990ull, 29},
    {"dmv/dmv_q12@no_hsjn", 0x7ffe051a869c8622ull, 17},
    {"dmv/dmv_q12@bias50", 0x8d732e2bd7427c19ull, 29},
    {"dmv/dmv_q12@feedback", 0x680f28b4a571d75eull, 29},
    {"dmv/dmv_q13@default", 0x2bb88630bee72143ull, 29},
    {"dmv/dmv_q13@no_hsjn", 0xc250d6c591278a8cull, 17},
    {"dmv/dmv_q13@bias50", 0xce2adf8e28424041ull, 29},
    {"dmv/dmv_q13@feedback", 0xb9e6b28dcf70499full, 29},
    {"dmv/dmv_q14@default", 0xe36dbb56e794dc5dull, 101},
    {"dmv/dmv_q14@no_hsjn", 0xe1d711b9569f6efdull, 51},
    {"dmv/dmv_q14@bias50", 0x3004e6b2ebea7dfcull, 101},
    {"dmv/dmv_q14@feedback", 0xc448d3f6eb5059fdull, 101},
    {"dmv/dmv_q15@default", 0x2098164439d03e86ull, 1005},
    {"dmv/dmv_q15@no_hsjn", 0x48d3c37e6d563629ull, 403},
    {"dmv/dmv_q15@bias50", 0xb528d46b5259ba25ull, 1005},
    {"dmv/dmv_q15@feedback", 0xeb616d4fc223d17aull, 1005},
    {"dmv/dmv_q16@default", 0x74d9fbdd3be493e5ull, 2903},
    {"dmv/dmv_q16@no_hsjn", 0x95a4d67f76bf93e9ull, 1131},
    {"dmv/dmv_q16@bias50", 0x23a1813496e70df1ull, 2903},
    {"dmv/dmv_q16@feedback", 0x8a2c9f181ffe8473ull, 2903},
    {"dmv/dmv_q17@default", 0xa00cf50c13c8244full, 3045},
    {"dmv/dmv_q17@no_hsjn", 0x93945e1817cbb465ull, 1113},
    {"dmv/dmv_q17@bias50", 0x99efa21f57bf5628ull, 3045},
    {"dmv/dmv_q17@feedback", 0x7fff98eeb203aa89ull, 3045},
    {"dmv/dmv_q18@default", 0x5f4f8276cb762655ull, 953},
    {"dmv/dmv_q18@no_hsjn", 0x31666cbe61edb15bull, 403},
    {"dmv/dmv_q18@bias50", 0x3128900276cc7c7aull, 953},
    {"dmv/dmv_q18@feedback", 0x1585d1746d6fe84eull, 953},
    {"dmv/dmv_q19@default", 0x9a4c1675d40125beull, 325},
    {"dmv/dmv_q19@no_hsjn", 0x840738d4b700ca74ull, 145},
    {"dmv/dmv_q19@bias50", 0xe664489213e0c5ddull, 325},
    {"dmv/dmv_q19@feedback", 0x74f3c084b8cb4b82ull, 325},
    {"dmv/dmv_q20@default", 0x82374506d4703888ull, 29},
    {"dmv/dmv_q20@no_hsjn", 0xedcfe5af6ea70eeaull, 17},
    {"dmv/dmv_q20@bias50", 0x82d3377aeb5228deull, 29},
    {"dmv/dmv_q20@feedback", 0x827ccc3802f9b65eull, 29},
    {"dmv/dmv_q21@default", 0xa36f5e15fd144587ull, 29},
    {"dmv/dmv_q21@no_hsjn", 0x1b7dc0e0b9f333bdull, 17},
    {"dmv/dmv_q21@bias50", 0xa91e27b562eaafc9ull, 29},
    {"dmv/dmv_q21@feedback", 0x86401ddbac15fbf8ull, 29},
    {"dmv/dmv_q22@default", 0xe4aea062d0c7f463ull, 29},
    {"dmv/dmv_q22@no_hsjn", 0x5f919b6d96921255ull, 17},
    {"dmv/dmv_q22@bias50", 0xada2f25086c880b0ull, 29},
    {"dmv/dmv_q22@feedback", 0x9141c417cc51b1d0ull, 29},
    {"dmv/dmv_q23@default", 0xd254b5cc0d22c3f7ull, 953},
    {"dmv/dmv_q23@no_hsjn", 0x9e29e37fb48f269full, 403},
    {"dmv/dmv_q23@bias50", 0xa605dd5dbc4dc842ull, 953},
    {"dmv/dmv_q23@feedback", 0xf5600054eef73d6cull, 953},
    {"dmv/dmv_q24@default", 0xf980c43d656f2728ull, 9133},
    {"dmv/dmv_q24@no_hsjn", 0x7f7cc4af3b563ec7ull, 3083},
    {"dmv/dmv_q24@bias50", 0x54cc1f6773b62a67ull, 9133},
    {"dmv/dmv_q24@feedback", 0xb12babc9bb3577b9ull, 9133},
    {"dmv/dmv_q25@default", 0xb531da0631b46084ull, 29},
    {"dmv/dmv_q25@no_hsjn", 0x952fff6d6dd673d6ull, 17},
    {"dmv/dmv_q25@bias50", 0x89b8c67b79f1ed63ull, 29},
    {"dmv/dmv_q25@feedback", 0x17af3fcca1722415ull, 29},
    {"dmv/dmv_q26@default", 0x6a2d558d8534db37ull, 3045},
    {"dmv/dmv_q26@no_hsjn", 0x3b38c437b8de0c42ull, 1113},
    {"dmv/dmv_q26@bias50", 0x47b77c1abd08c233ull, 3045},
    {"dmv/dmv_q26@feedback", 0x1b82da09eca5d5b7ull, 3045},
    {"dmv/dmv_q27@default", 0xe4cd539e3678d820ull, 101},
    {"dmv/dmv_q27@no_hsjn", 0x94de7e62991d4084ull, 51},
    {"dmv/dmv_q27@bias50", 0x2cec4e115f4bfe84ull, 101},
    {"dmv/dmv_q27@feedback", 0x73dbd7d6132c726bull, 101},
    {"dmv/dmv_q28@default", 0xa7e9f1aa780d4259ull, 101},
    {"dmv/dmv_q28@no_hsjn", 0x89e0066ffb205d97ull, 51},
    {"dmv/dmv_q28@bias50", 0xfc7ba8b21dc55249ull, 101},
    {"dmv/dmv_q28@feedback", 0xf54525fbba2fb9d7ull, 101},
    {"dmv/dmv_q29@default", 0xadcc12bcd969e2a2ull, 307},
    {"dmv/dmv_q29@no_hsjn", 0x980d197e9eb3e831ull, 143},
    {"dmv/dmv_q29@bias50", 0x81a11ed132ee68fcull, 307},
    {"dmv/dmv_q29@feedback", 0x765fe4502cba30f6ull, 307},
    {"dmv/dmv_q30@default", 0x4e9cd98e3f0d0ddeull, 9133},
    {"dmv/dmv_q30@no_hsjn", 0x5029f9babc080e92ull, 3083},
    {"dmv/dmv_q30@bias50", 0xcd0636276a45a26aull, 9133},
    {"dmv/dmv_q30@feedback", 0x61618818ae8ed021ull, 9133},
    {"dmv/dmv_q31@default", 0x537049dbda27d133ull, 29},
    {"dmv/dmv_q31@no_hsjn", 0xe33f08df6f832c6dull, 17},
    {"dmv/dmv_q31@bias50", 0xd6e85cf953dc3f88ull, 29},
    {"dmv/dmv_q31@feedback", 0x9c37d2356b2a71cfull, 29},
    {"dmv/dmv_q32@default", 0xfab405b4b4bc2046ull, 3045},
    {"dmv/dmv_q32@no_hsjn", 0x4dff50edaaa7f7e2ull, 1113},
    {"dmv/dmv_q32@bias50", 0x06d54e641ef36d7eull, 3045},
    {"dmv/dmv_q32@feedback", 0xc51d88e235b67883ull, 3045},
    {"dmv/dmv_q33@default", 0x6af626e55fda9bd0ull, 953},
    {"dmv/dmv_q33@no_hsjn", 0xb51d068fa7d9a71dull, 403},
    {"dmv/dmv_q33@bias50", 0xb4b4d8a4dcebc15full, 953},
    {"dmv/dmv_q33@feedback", 0x46fdcbe7221cecf1ull, 953},
    {"dmv/dmv_q34@default", 0x7d279971308fc5c9ull, 3045},
    {"dmv/dmv_q34@no_hsjn", 0x2b11c2dc784e3272ull, 1113},
    {"dmv/dmv_q34@bias50", 0x8b8d823bcde67b74ull, 3045},
    {"dmv/dmv_q34@feedback", 0x0ce954a40428c6bfull, 3045},
    {"dmv/dmv_q35@default", 0xab4a353b18e45550ull, 29},
    {"dmv/dmv_q35@no_hsjn", 0xcf6fdbf1f411b837ull, 17},
    {"dmv/dmv_q35@bias50", 0xc2b3d75674146d0full, 29},
    {"dmv/dmv_q35@feedback", 0x4bf0039544a3843cull, 29},
    {"dmv/dmv_q36@default", 0xde386365cdfa9eefull, 8749},
    {"dmv/dmv_q36@no_hsjn", 0x7f23f8fa9ae44a63ull, 3183},
    {"dmv/dmv_q36@bias50", 0x89c4dbedd4978e94ull, 8749},
    {"dmv/dmv_q36@feedback", 0xb57506259aae1a1aull, 8749},
    {"dmv/dmv_q37@default", 0xa8aed44fa11f5adcull, 29},
    {"dmv/dmv_q37@no_hsjn", 0x89139af8720c5bccull, 17},
    {"dmv/dmv_q37@bias50", 0x11700aba1ad7fcd0ull, 29},
    {"dmv/dmv_q37@feedback", 0xb9c8289391bb1d9dull, 29},
    {"dmv/dmv_q38@default", 0x2138a64e72064874ull, 2892},
    {"dmv/dmv_q38@no_hsjn", 0xd2a740b17e947dabull, 1144},
    {"dmv/dmv_q38@bias50", 0xfb130399a4c1fab2ull, 2892},
    {"dmv/dmv_q38@feedback", 0xcc303b791647442aull, 2892},
    {"dmv/dmv_q39@default", 0xfb7fe079353e4d33ull, 9133},
    {"dmv/dmv_q39@no_hsjn", 0x5bdfca8d7636748aull, 3083},
    {"dmv/dmv_q39@bias50", 0xd625c12327e759c9ull, 9133},
    {"dmv/dmv_q39@feedback", 0x8a900b118ece8225ull, 9133},
};

struct GoldenConfig {
  const char* name = nullptr;
  OptimizerConfig config;
  bool perturb_feedback = false;
};

std::vector<GoldenConfig> CorpusConfigs() {
  std::vector<GoldenConfig> configs(4);
  configs[0].name = "default";
  configs[1].name = "no_hsjn";
  configs[1].config.methods.enable_hsjn = false;
  configs[2].name = "bias50";
  configs[2].config.methods.volatile_mode_bias = 50.0;
  configs[3].name = "feedback";
  configs[3].perturb_feedback = true;
  return configs;
}

/// Deterministic feedback moving most base-table estimates far from the
/// statistics (both directions) plus one multi-table lower bound.
FeedbackMap PerturbedFeedback(const QuerySpec& q) {
  FeedbackMap fb;
  for (int t = 0; t < q.num_tables(); ++t) {
    if (t % 3 == 1) continue;
    fb[TableBit(t)].exact = t % 3 == 0 ? 2.0 + t : 5000.0 * (t + 1);
  }
  if (q.num_tables() >= 3) {
    fb[TableBit(1) | TableBit(2)].lower_bound = 750.0;
  }
  return fb;
}

struct GoldenCase {
  std::string label;
  QuerySpec query;
  std::vector<AvailableMatView> matviews;
  std::vector<GoldenConfig> configs;
  /// Used by the configurations that do not perturb feedback.
  FeedbackMap feedback = {};
};

struct GoldenActual {
  std::string label;
  uint64_t digest = 0;
  int64_t candidates = -1;
  std::shared_ptr<PlanNode> plan;
};

GoldenActual OptimizeGolden(const Catalog& catalog, const GoldenCase& c,
                            const GoldenConfig& config) {
  GoldenActual out;
  out.label = c.label + "@" + config.name;
  const Optimizer opt(catalog, config.config);
  const CostModel cost_model(config.config.cost);
  ValidityRangeAnalyzer analyzer(cost_model, ValidityConfig{});
  const FeedbackMap fb =
      config.perturb_feedback ? PerturbedFeedback(c.query) : c.feedback;
  Result<OptimizedPlan> r =
      opt.Optimize(c.query, fb.empty() ? nullptr : &fb,
                   c.matviews.empty() ? nullptr : &c.matviews, &analyzer);
  if (!r.ok()) return out;
  out.digest = PlanDigest(*r.value().root);
  out.candidates = r.value().candidates;
  out.plan = r.value().root;
  return out;
}

bool PlanHas(const PlanNode& node,
             const std::function<bool(const PlanNode&)>& pred) {
  if (pred(node)) return true;
  for (const auto& child : node.children) {
    if (PlanHas(*child, pred)) return true;
  }
  return false;
}

void CheckGoldenTable(const std::vector<GoldenActual>& actual) {
  std::map<std::string, const GoldenPlan*> golden;
  for (const GoldenPlan& g : kGoldenPlans) golden[g.label] = &g;
  bool mismatch = golden.size() != actual.size();
  for (const GoldenActual& a : actual) {
    auto it = golden.find(a.label);
    if (it == golden.end()) {
      ADD_FAILURE() << a.label << ": missing from the golden table";
      mismatch = true;
      continue;
    }
    EXPECT_EQ(it->second->digest, a.digest) << a.label << ": plan differs";
    EXPECT_EQ(it->second->candidates, a.candidates)
        << a.label << ": candidate count differs";
    if (it->second->digest != a.digest ||
        it->second->candidates != a.candidates) {
      mismatch = true;
    }
  }
  if (mismatch) {
    std::string table;
    for (const GoldenActual& a : actual) {
      table += StrFormat("    {\"%s\", 0x%016llxull, %lld},\n",
                         a.label.c_str(),
                         static_cast<unsigned long long>(a.digest),
                         static_cast<long long>(a.candidates));
    }
    ADD_FAILURE() << "golden plan table mismatch; actual values:\n" << table;
  }
}

TEST(EnumeratorGoldenTest, PlansAndCandidateCountsArePinned) {
  Catalog tpch_catalog;
  tpch::GenConfig tpch_gen;
  tpch_gen.scale = 0.002;
  ASSERT_TRUE(tpch::BuildCatalog(tpch_gen, &tpch_catalog).ok());
  Catalog dmv_catalog;
  dmv::GenConfig dmv_gen;
  dmv_gen.scale = 0.05;
  ASSERT_TRUE(dmv::BuildCatalog(dmv_gen, &dmv_catalog).ok());

  std::vector<GoldenCase> tpch_cases;
  std::vector<GoldenCase> dmv_cases;
  tpch::QueryOptions marked;
  marked.param_markers = true;
  for (int qnum : tpch::PaperQueries()) {
    tpch_cases.push_back({"tpch/q" + std::to_string(qnum),
                          tpch::MakeQuery(qnum), {}, CorpusConfigs()});
    tpch_cases.push_back({"tpch/q" + std::to_string(qnum) + "m",
                          tpch::MakeQuery(qnum, marked), {}, CorpusConfigs()});
  }
  for (QuerySpec& q : dmv::MakeWorkload()) {
    const std::string label = "dmv/" + q.name();
    dmv_cases.push_back({label, std::move(q), {}, CorpusConfigs()});
  }

  // Matview rows are never read by the optimizer; only identity matters.
  const SharedRows mv_rows = std::make_shared<const std::vector<Row>>();
  // Q8 tables: part 0, lineitem 1, supplier 2, orders 3, customer 4,
  // nation 5, region 6, nation 7.
  GoldenCase mv_single{"extra/q8_mv_orders", tpch::MakeQuery(8), {},
                       CorpusConfigs()};
  mv_single.matviews.push_back({"mv_orders", TableBit(3), 12.0, mv_rows, {}});
  tpch_cases.push_back(mv_single);

  // {orders, customer} harvested with its exact cardinality and sorted on
  // o_orderkey (position 0 of the row layout), the key of the
  // lineitem join. At this size the skipped sort decides the join order
  // under bias50 and mgjn_only, so the sorted-view costing is pinned too.
  GoldenCase mv_multi{"extra/q8_mv_orders_customer", tpch::MakeQuery(8), {},
                      CorpusConfigs()};
  mv_multi.matviews.push_back(
      {"mv_oc", TableBit(3) | TableBit(4), 2000.0, mv_rows, {0}});
  mv_multi.feedback[TableBit(3) | TableBit(4)].exact = 2000.0;
  GoldenConfig mgjn_only;
  mgjn_only.name = "mgjn_only";
  mgjn_only.config.methods.enable_hsjn = false;
  mgjn_only.config.methods.enable_nljn = false;
  mv_multi.configs.push_back(mgjn_only);
  tpch_cases.push_back(mv_multi);

  // Two components: nation-region-supplier and a filtered part.
  QuerySpec disconnected("disconnected");
  const int r = disconnected.AddTable("region");
  const int n = disconnected.AddTable("nation");
  const int s = disconnected.AddTable("supplier");
  const int p = disconnected.AddTable("part");
  disconnected.AddJoin({n, tpch::Nation::kRegionKey},
                       {r, tpch::Region::kRegionKey});
  disconnected.AddJoin({s, tpch::Supplier::kNationKey},
                       {n, tpch::Nation::kNationKey});
  disconnected.AddPred({p, tpch::Part::kSize}, PredKind::kLt, Value::Int(5));
  tpch_cases.push_back(
      {"extra/disconnected", disconnected, {}, CorpusConfigs()});

  std::vector<GoldenActual> actual;
  std::map<std::string, std::shared_ptr<PlanNode>> plans;
  auto run = [&](const Catalog& catalog, const std::vector<GoldenCase>& cs) {
    for (const GoldenCase& c : cs) {
      for (const GoldenConfig& config : c.configs) {
        actual.push_back(OptimizeGolden(catalog, c, config));
        plans[actual.back().label] = actual.back().plan;
      }
    }
  };
  run(tpch_catalog, tpch_cases);
  run(dmv_catalog, dmv_cases);
  CheckGoldenTable(actual);

  // The extra cases must reach the paths they exist for.
  auto has_plan = [&](const std::string& label,
                      const std::function<bool(const PlanNode&)>& pred) {
    auto it = plans.find(label);
    return it != plans.end() && it->second != nullptr &&
           PlanHas(*it->second, pred);
  };
  bool nljn_over_mv = false;
  for (const GoldenConfig& config : CorpusConfigs()) {
    nljn_over_mv |= has_plan(
        std::string("extra/q8_mv_orders@") + config.name,
        [](const PlanNode& node) {
          return node.kind == PlanOpKind::kNljn &&
                 node.children[1]->kind == PlanOpKind::kMatViewScan;
        });
  }
  EXPECT_TRUE(nljn_over_mv) << "no configuration chose NLJN over the view";
  EXPECT_TRUE(has_plan("extra/q8_mv_orders_customer@mgjn_only",
                       [](const PlanNode& node) {
                         return node.kind == PlanOpKind::kMgjn &&
                                (node.children[0]->kind ==
                                     PlanOpKind::kMatViewScan ||
                                 node.children[1]->kind ==
                                     PlanOpKind::kMatViewScan);
                       }))
      << "the sorted view was not merge-joined without a sort";
  EXPECT_TRUE(has_plan("extra/disconnected@default", [](const PlanNode& n) {
    return (n.kind == PlanOpKind::kHsjn || n.kind == PlanOpKind::kNljn) &&
           n.join_pred_ids.empty();
  })) << "the disconnected graph was planned without a cross product";
}

}  // namespace
}  // namespace popdb
