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
  // Canonical layout: dept (3 cols) then emp (4 cols).
  EXPECT_EQ(std::vector<int>({3 + 3, 1}), r.value().root->positions);
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
    {"tpch/q2@default", 0xde28308530982289ull, 306},
    {"tpch/q2@no_hsjn", 0x584b856db4762365ull, 144},
    {"tpch/q2@bias50", 0x3d552b53e3c5df51ull, 306},
    {"tpch/q2@feedback", 0x89c515dc1798e31bull, 306},
    {"tpch/q2m@default", 0xb64d68d5efb23dc5ull, 306},
    {"tpch/q2m@no_hsjn", 0x21da42201cb466efull, 144},
    {"tpch/q2m@bias50", 0x79b7be94f9150150ull, 306},
    {"tpch/q2m@feedback", 0xf8a9c0113e294d34ull, 306},
    {"tpch/q3@default", 0xcc101dbd2d32234bull, 29},
    {"tpch/q3@no_hsjn", 0xc7198cf3c0426b5full, 17},
    {"tpch/q3@bias50", 0xe61abb29d3679b42ull, 29},
    {"tpch/q3@feedback", 0x725767753b17b95bull, 29},
    {"tpch/q3m@default", 0x7b116109dfb3a15dull, 29},
    {"tpch/q3m@no_hsjn", 0x4377004353d44f8bull, 17},
    {"tpch/q3m@bias50", 0x6788dbca6c5531b5ull, 29},
    {"tpch/q3m@feedback", 0xae71f8d605c3a62dull, 29},
    {"tpch/q4@default", 0xc44e9283279cb278ull, 7},
    {"tpch/q4@no_hsjn", 0x6541007ab6d0fd49ull, 5},
    {"tpch/q4@bias50", 0x27e99efbb2888293ull, 7},
    {"tpch/q4@feedback", 0x03714444f2e18b1dull, 7},
    {"tpch/q4m@default", 0xf6591d0290aef8a6ull, 7},
    {"tpch/q4m@no_hsjn", 0x6c4e6d15f444ea81ull, 5},
    {"tpch/q4m@bias50", 0x012e481caa7ab8a0ull, 7},
    {"tpch/q4m@feedback", 0x511d01158273c431ull, 7},
    {"tpch/q5@default", 0xd64bcc56bb6f15dfull, 989},
    {"tpch/q5@no_hsjn", 0xe6bbecbb06a77944ull, 433},
    {"tpch/q5@bias50", 0x6961ac8e35d4389aull, 989},
    {"tpch/q5@feedback", 0x4609097d63a90813ull, 989},
    {"tpch/q5m@default", 0xa49cdab5b1b31dfbull, 989},
    {"tpch/q5m@no_hsjn", 0xe0851a39cc2ce826ull, 433},
    {"tpch/q5m@bias50", 0x7b92a6826b2471a0ull, 989},
    {"tpch/q5m@feedback", 0x805903ea68e20360ull, 989},
    {"tpch/q7@default", 0xbe4ae8e11f00a749ull, 945},
    {"tpch/q7@no_hsjn", 0xf4613861e586d053ull, 411},
    {"tpch/q7@bias50", 0xd9aea4bb225e631full, 945},
    {"tpch/q7@feedback", 0x1f46e602e37537c8ull, 945},
    {"tpch/q7m@default", 0xe5dba16f22de7a7full, 945},
    {"tpch/q7m@no_hsjn", 0x7791204547c0a331ull, 411},
    {"tpch/q7m@bias50", 0x8213771786c205a1ull, 945},
    {"tpch/q7m@feedback", 0xc6c8ecca43d5ffaaull, 945},
    {"tpch/q8@default", 0xa8c6c7c593e4e1b9ull, 8775},
    {"tpch/q8@no_hsjn", 0xb68ba6e2803033f4ull, 3389},
    {"tpch/q8@bias50", 0x23d17e62f8bc2453ull, 8775},
    {"tpch/q8@feedback", 0xed79a6cdb4013a61ull, 8775},
    {"tpch/q8m@default", 0x26ecad4e93d12449ull, 8775},
    {"tpch/q8m@no_hsjn", 0x4955d161f2be5d44ull, 3389},
    {"tpch/q8m@bias50", 0xc8d54d988879ff02ull, 8775},
    {"tpch/q8m@feedback", 0x188ba5d08271636full, 8775},
    {"tpch/q9@default", 0xe8c4cb49db6514deull, 953},
    {"tpch/q9@no_hsjn", 0x36007102788b21ddull, 403},
    {"tpch/q9@bias50", 0xe7789a6c339e6562ull, 953},
    {"tpch/q9@feedback", 0xc6974f05ce98a047ull, 953},
    {"tpch/q9m@default", 0xe8c4cb49db6514deull, 953},
    {"tpch/q9m@no_hsjn", 0x36007102788b21ddull, 403},
    {"tpch/q9m@bias50", 0xe7789a6c339e6562ull, 953},
    {"tpch/q9m@feedback", 0xc6974f05ce98a047ull, 953},
    {"tpch/q10@default", 0xb4bc06341596b950ull, 96},
    {"tpch/q10@no_hsjn", 0xc344ad2bf40b10deull, 50},
    {"tpch/q10@bias50", 0x2d672fce9ab76dfdull, 96},
    {"tpch/q10@feedback", 0xecad5350cac89066ull, 96},
    {"tpch/q10m@default", 0x951a970baa710ae7ull, 96},
    {"tpch/q10m@no_hsjn", 0x9ce3192f7e0963afull, 50},
    {"tpch/q10m@bias50", 0x2537e778b0d23980ull, 96},
    {"tpch/q10m@feedback", 0x49220d5f68d8787eull, 96},
    {"tpch/q11@default", 0x680e65956e76415dull, 29},
    {"tpch/q11@no_hsjn", 0x4cc76eaa99cf6c8aull, 17},
    {"tpch/q11@bias50", 0x199e2be32aefccc0ull, 29},
    {"tpch/q11@feedback", 0xe90c072d11620b47ull, 29},
    {"tpch/q11m@default", 0x6b69173317bf252aull, 29},
    {"tpch/q11m@no_hsjn", 0xa0010d77d9adf25dull, 17},
    {"tpch/q11m@bias50", 0xdd498ff3612127b0ull, 29},
    {"tpch/q11m@feedback", 0xda09611e6eb463bfull, 29},
    {"tpch/q18@default", 0x44bb596ab5941205ull, 29},
    {"tpch/q18@no_hsjn", 0xc8f597b5b4f983e7ull, 17},
    {"tpch/q18@bias50", 0xd4cc32262641db66ull, 29},
    {"tpch/q18@feedback", 0x606b5315253d2507ull, 29},
    {"tpch/q18m@default", 0xa68e8731061d9af9ull, 29},
    {"tpch/q18m@no_hsjn", 0x2759dd364173acfcull, 17},
    {"tpch/q18m@bias50", 0xddde1dba21f06053ull, 29},
    {"tpch/q18m@feedback", 0x1ebfc761c4dd8d88ull, 29},
    {"extra/q8_mv_orders@default", 0xa361bea86a2c401cull, 8889},
    {"extra/q8_mv_orders@no_hsjn", 0xb3917f8f15c4cf1dull, 3503},
    {"extra/q8_mv_orders@bias50", 0xcb7663464a9821bdull, 8889},
    {"extra/q8_mv_orders@feedback", 0x46ae4420807bee5full, 8889},
    {"extra/q8_mv_orders_customer@default", 0x4f36a928e97d4d66ull, 8775},
    {"extra/q8_mv_orders_customer@no_hsjn", 0xe8c8b049a72dcd6bull, 3389},
    {"extra/q8_mv_orders_customer@bias50", 0x2363d1bdaa5cbb10ull, 8775},
    {"extra/q8_mv_orders_customer@feedback", 0xed79a6cdb4013a61ull, 8775},
    {"extra/q8_mv_orders_customer@mgjn_only", 0x2600f53f1899a1f9ull, 124},
    {"extra/disconnected@default", 0x8a93e508b569816eull, 88},
    {"extra/disconnected@no_hsjn", 0x3854aeb98a9a5180ull, 44},
    {"extra/disconnected@bias50", 0x8e10cbce2c382d43ull, 88},
    {"extra/disconnected@feedback", 0x932b4aa546bdf299ull, 88},
    {"dmv/dmv_q01@default", 0xa9a365cd72e504b0ull, 9133},
    {"dmv/dmv_q01@no_hsjn", 0x3245a960119360deull, 3083},
    {"dmv/dmv_q01@bias50", 0x71eddbaff3befeeeull, 9133},
    {"dmv/dmv_q01@feedback", 0x33b0d38eae0f5334ull, 9133},
    {"dmv/dmv_q02@default", 0x73ee36da50596852ull, 29},
    {"dmv/dmv_q02@no_hsjn", 0x100b84a6b80838e7ull, 17},
    {"dmv/dmv_q02@bias50", 0x209e7d926aa64bedull, 29},
    {"dmv/dmv_q02@feedback", 0x59cfad955dfa174aull, 29},
    {"dmv/dmv_q03@default", 0xdfbfd55068927520ull, 1005},
    {"dmv/dmv_q03@no_hsjn", 0xbc03ea05e08b7c4dull, 403},
    {"dmv/dmv_q03@bias50", 0x71d3bac95ffcb83aull, 1005},
    {"dmv/dmv_q03@feedback", 0x1c8646f4c94b11ebull, 1005},
    {"dmv/dmv_q04@default", 0x1608c849c209b52aull, 101},
    {"dmv/dmv_q04@no_hsjn", 0xd7997496ef76330full, 51},
    {"dmv/dmv_q04@bias50", 0x9e120bab3d324b9bull, 101},
    {"dmv/dmv_q04@feedback", 0xb742492e44188b7full, 101},
    {"dmv/dmv_q05@default", 0xe2a3687cee487dacull, 101},
    {"dmv/dmv_q05@no_hsjn", 0x0ab1b3e2bace8f5cull, 51},
    {"dmv/dmv_q05@bias50", 0xcdc9f2c81630c765ull, 101},
    {"dmv/dmv_q05@feedback", 0x02b67d74a6b67efdull, 101},
    {"dmv/dmv_q06@default", 0x316e67622f6302c1ull, 9133},
    {"dmv/dmv_q06@no_hsjn", 0xc874983536837bd6ull, 3083},
    {"dmv/dmv_q06@bias50", 0xf3a331390cdd6dedull, 9133},
    {"dmv/dmv_q06@feedback", 0x9a8989359263f192ull, 9133},
    {"dmv/dmv_q07@default", 0xff6e590279c3052full, 101},
    {"dmv/dmv_q07@no_hsjn", 0x103b224ba2ade3aaull, 51},
    {"dmv/dmv_q07@bias50", 0x6b83929b3fc8e533ull, 101},
    {"dmv/dmv_q07@feedback", 0xaf20d1e175e9f886ull, 101},
    {"dmv/dmv_q08@default", 0xd94a99a3f2e16d2dull, 2903},
    {"dmv/dmv_q08@no_hsjn", 0xac1da1850278a661ull, 1131},
    {"dmv/dmv_q08@bias50", 0x31f19f16d4e9b5ecull, 2903},
    {"dmv/dmv_q08@feedback", 0xf5fc37e89684ff31ull, 2903},
    {"dmv/dmv_q09@default", 0xcb9a02690e3be2ddull, 946},
    {"dmv/dmv_q09@no_hsjn", 0x9314e761129ec8c0ull, 404},
    {"dmv/dmv_q09@bias50", 0x36b55f316ffca288ull, 946},
    {"dmv/dmv_q09@feedback", 0xf2a2a123148b90b0ull, 946},
    {"dmv/dmv_q10@default", 0x4ec571f3339485edull, 1005},
    {"dmv/dmv_q10@no_hsjn", 0x0e107069239ea875ull, 403},
    {"dmv/dmv_q10@bias50", 0xf0f8ae8d3a9a9397ull, 1005},
    {"dmv/dmv_q10@feedback", 0x173dead42253f30dull, 1005},
    {"dmv/dmv_q11@default", 0xd82fde49f82f7263ull, 3045},
    {"dmv/dmv_q11@no_hsjn", 0xaf8795c566bba897ull, 1113},
    {"dmv/dmv_q11@bias50", 0x129b63ac943428b6ull, 3045},
    {"dmv/dmv_q11@feedback", 0x1ea210c06a17c753ull, 3045},
    {"dmv/dmv_q12@default", 0x9cc4a3e1fb8a0648ull, 29},
    {"dmv/dmv_q12@no_hsjn", 0x68510acab4c9d77aull, 17},
    {"dmv/dmv_q12@bias50", 0x31b3f3de43d06c1eull, 29},
    {"dmv/dmv_q12@feedback", 0xe6a08d98341df056ull, 29},
    {"dmv/dmv_q13@default", 0x722cba8f5be0c643ull, 29},
    {"dmv/dmv_q13@no_hsjn", 0x5a524cb9b9c3b5a9ull, 17},
    {"dmv/dmv_q13@bias50", 0x1db1dd269d156253ull, 29},
    {"dmv/dmv_q13@feedback", 0x73727e2f3276a49full, 29},
    {"dmv/dmv_q14@default", 0xd3611c8d985f8f5dull, 101},
    {"dmv/dmv_q14@no_hsjn", 0x993dbc0c55cca8acull, 51},
    {"dmv/dmv_q14@bias50", 0x86cc9c9bef5505a3ull, 101},
    {"dmv/dmv_q14@feedback", 0xd883c30344142efdull, 101},
    {"dmv/dmv_q15@default", 0x55ddd422eaa60586ull, 1005},
    {"dmv/dmv_q15@no_hsjn", 0x7e19815d1e2bfd29ull, 403},
    {"dmv/dmv_q15@bias50", 0x522587a97fa76994ull, 1005},
    {"dmv/dmv_q15@feedback", 0x0b61ee6ee626e27aull, 1005},
    {"dmv/dmv_q16@default", 0x834c72651e272b9dull, 2903},
    {"dmv/dmv_q16@no_hsjn", 0xea33cfa5a353d3f4ull, 1131},
    {"dmv/dmv_q16@bias50", 0x4281a598c4c2dae4ull, 2903},
    {"dmv/dmv_q16@feedback", 0xf74251ee5e629f0bull, 2903},
    {"dmv/dmv_q17@default", 0x9640ea526a97a561ull, 3045},
    {"dmv/dmv_q17@no_hsjn", 0xf7af2061e05cd8bfull, 1113},
    {"dmv/dmv_q17@bias50", 0x6721964b652c7725ull, 3045},
    {"dmv/dmv_q17@feedback", 0x04cfd960bd788473ull, 3045},
    {"dmv/dmv_q18@default", 0x76bec1debaad9fe7ull, 953},
    {"dmv/dmv_q18@no_hsjn", 0x8bb71e5e826435fdull, 403},
    {"dmv/dmv_q18@bias50", 0xa816b9b6ad7a1619ull, 953},
    {"dmv/dmv_q18@feedback", 0xc6b052b1f1a69e8cull, 953},
    {"dmv/dmv_q19@default", 0x7299887990dfbe30ull, 325},
    {"dmv/dmv_q19@no_hsjn", 0xb67de3d040d0056aull, 145},
    {"dmv/dmv_q19@bias50", 0xf366a0d734167eeeull, 325},
    {"dmv/dmv_q19@feedback", 0x2d38beffcd07f190ull, 325},
    {"dmv/dmv_q20@default", 0x4e553bbe01042f8eull, 29},
    {"dmv/dmv_q20@no_hsjn", 0x3d39e99344deb614ull, 17},
    {"dmv/dmv_q20@bias50", 0x9ab55ef04aa7c819ull, 29},
    {"dmv/dmv_q20@feedback", 0x41af6b33002c2efcull, 29},
    {"dmv/dmv_q21@default", 0x844032c801a3bbefull, 29},
    {"dmv/dmv_q21@no_hsjn", 0x8d86e406fb2270e5ull, 17},
    {"dmv/dmv_q21@bias50", 0x228f77695542a16cull, 29},
    {"dmv/dmv_q21@feedback", 0x3c1b9f97cd1d0910ull, 29},
    {"dmv/dmv_q22@default", 0x2994788c72255265ull, 29},
    {"dmv/dmv_q22@no_hsjn", 0x74870c2e259508bbull, 17},
    {"dmv/dmv_q22@bias50", 0x5825d5fe13348bcbull, 29},
    {"dmv/dmv_q22@feedback", 0x654e65c44ce6b83eull, 29},
    {"dmv/dmv_q23@default", 0x5b0ca7efc2a8caa3ull, 953},
    {"dmv/dmv_q23@no_hsjn", 0x95b0e0d13ebf0003ull, 403},
    {"dmv/dmv_q23@bias50", 0xbf8c568170c0bd56ull, 953},
    {"dmv/dmv_q23@feedback", 0x8d82c2f4f379bd58ull, 953},
    {"dmv/dmv_q24@default", 0x2479b988c8819bfeull, 9133},
    {"dmv/dmv_q24@no_hsjn", 0xaa6dfcaebe4358b5ull, 3083},
    {"dmv/dmv_q24@bias50", 0xc95e335ddc9d4078ull, 9133},
    {"dmv/dmv_q24@feedback", 0xed9419f1447d9073ull, 9133},
    {"dmv/dmv_q25@default", 0x2ff3309d0dee6f76ull, 29},
    {"dmv/dmv_q25@no_hsjn", 0x91ce4498d902747cull, 17},
    {"dmv/dmv_q25@bias50", 0xe2aa85dd7a261ea2ull, 29},
    {"dmv/dmv_q25@feedback", 0x559b7ed8bfd808cfull, 29},
    {"dmv/dmv_q26@default", 0xab4450b6bf186425ull, 3045},
    {"dmv/dmv_q26@no_hsjn", 0x77eabb4688a5e128ull, 1113},
    {"dmv/dmv_q26@bias50", 0x0f67c7fe789e663dull, 3045},
    {"dmv/dmv_q26@feedback", 0x79fe9625f6c4ee99ull, 3045},
    {"dmv/dmv_q27@default", 0x6af03462ed6e4a6eull, 101},
    {"dmv/dmv_q27@no_hsjn", 0x25a0451c1f58942aull, 51},
    {"dmv/dmv_q27@bias50", 0xa962e8d9886f7586ull, 101},
    {"dmv/dmv_q27@feedback", 0x5150f82901dbefadull, 101},
    {"dmv/dmv_q28@default", 0xb9dc677a9907d003ull, 101},
    {"dmv/dmv_q28@no_hsjn", 0xd16ab366571e1265ull, 51},
    {"dmv/dmv_q28@bias50", 0x75537af1916da596ull, 101},
    {"dmv/dmv_q28@feedback", 0x19d21708e25150c9ull, 101},
    {"dmv/dmv_q29@default", 0x01cb997c8a151a7aull, 307},
    {"dmv/dmv_q29@no_hsjn", 0x5117cbc6633f9f49ull, 143},
    {"dmv/dmv_q29@bias50", 0x0a1d032b61cb6713ull, 307},
    {"dmv/dmv_q29@feedback", 0x7c049620cea5c74eull, 307},
    {"dmv/dmv_q30@default", 0x2ecd875deaabf6f2ull, 9133},
    {"dmv/dmv_q30@no_hsjn", 0x226fdeaf5c3b8fc6ull, 3083},
    {"dmv/dmv_q30@bias50", 0xe9802bde245e7144ull, 9133},
    {"dmv/dmv_q30@feedback", 0x7d4493ce90ff7865ull, 9133},
    {"dmv/dmv_q31@default", 0x9b6d9784a07c9015ull, 29},
    {"dmv/dmv_q31@no_hsjn", 0xb646ceb286b74bb4ull, 17},
    {"dmv/dmv_q31@bias50", 0xba14a90bea554319ull, 29},
    {"dmv/dmv_q31@feedback", 0x8f50470d18238469ull, 29},
    {"dmv/dmv_q32@default", 0x506ce44716208ae3ull, 3045},
    {"dmv/dmv_q32@no_hsjn", 0x30be05d6f4672c23ull, 1113},
    {"dmv/dmv_q32@bias50", 0x401621f85af779f7ull, 3045},
    {"dmv/dmv_q32@feedback", 0xe8d7b1f5bbbe923aull, 3045},
    {"dmv/dmv_q33@default", 0x0143aad8d80638edull, 953},
    {"dmv/dmv_q33@no_hsjn", 0xa05e4c901eafb0a1ull, 403},
    {"dmv/dmv_q33@bias50", 0x3891f2f16fb29557ull, 953},
    {"dmv/dmv_q33@feedback", 0x20c67e9b39394b50ull, 953},
    {"dmv/dmv_q34@default", 0x165a768f026f95d3ull, 3045},
    {"dmv/dmv_q34@no_hsjn", 0xf090fd2cf38fdaacull, 1113},
    {"dmv/dmv_q34@bias50", 0xb74b7d4a6929ace4ull, 3045},
    {"dmv/dmv_q34@feedback", 0x08d925482a41baa5ull, 3045},
    {"dmv/dmv_q35@default", 0xc4ce33312aafd358ull, 29},
    {"dmv/dmv_q35@no_hsjn", 0x6b61a5f154c8676full, 17},
    {"dmv/dmv_q35@bias50", 0x5e06ce504d4913caull, 29},
    {"dmv/dmv_q35@feedback", 0xd2b9dafb2b132624ull, 29},
    {"dmv/dmv_q36@default", 0xca389d4bfeac13dbull, 8749},
    {"dmv/dmv_q36@no_hsjn", 0xe218a7e951496d07ull, 3183},
    {"dmv/dmv_q36@bias50", 0x292ebbbb8982cbafull, 8749},
    {"dmv/dmv_q36@feedback", 0xe365317233adadceull, 8749},
    {"dmv/dmv_q37@default", 0x0581776fee48c24full, 29},
    {"dmv/dmv_q37@no_hsjn", 0x401c8f576dc2af47ull, 17},
    {"dmv/dmv_q37@bias50", 0x10351e7e2f60cc54ull, 29},
    {"dmv/dmv_q37@feedback", 0xe6816150807d996aull, 29},
    {"dmv/dmv_q38@default", 0xe593e52cb6eda46full, 2892},
    {"dmv/dmv_q38@no_hsjn", 0x78e4daa162e47f88ull, 1144},
    {"dmv/dmv_q38@bias50", 0x96a4db0717bdb7e6ull, 2892},
    {"dmv/dmv_q38@feedback", 0x6d35a80345db5e8dull, 2892},
    {"dmv/dmv_q39@default", 0x6d27435ad91a0ec2ull, 9133},
    {"dmv/dmv_q39@no_hsjn", 0xd8bf2ad6a34cc578ull, 3083},
    {"dmv/dmv_q39@bias50", 0xe3554d5609308894ull, 9133},
    {"dmv/dmv_q39@feedback", 0x7c3e41a6762c87c0ull, 9133},
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
  // o_orderkey (position 0 of the canonical layout), the key of the
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
