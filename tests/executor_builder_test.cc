#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "core/executor_builder.h"
#include "core/placement.h"
#include "core/validity.h"
#include "opt/optimizer.h"
#include "tests/test_util.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace popdb {
namespace {

class ExecutorBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::BuildToyCatalog(&catalog_); }

  std::shared_ptr<PlanNode> PlanFor(const QuerySpec& q,
                                    OptimizerConfig config = {}) {
    Optimizer opt(catalog_, config);
    CostModel cm(config.cost);
    ValidityRangeAnalyzer analyzer(cm, ValidityConfig{});
    Result<OptimizedPlan> r = opt.Optimize(q, nullptr, nullptr, &analyzer);
    EXPECT_TRUE(r.ok());
    return r.value().root;
  }

  std::vector<Row> Run(const PlanNode& plan, const QuerySpec& q,
                       const std::vector<Row>* returned = nullptr) {
    ExecutorBuilder builder(catalog_, q, returned, false);
    Result<BuiltPlan> built = builder.Build(plan);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    ExecContext ctx;
    ctx.params = q.params();
    std::vector<Row> rows;
    EXPECT_EQ(ExecStatus::kEof,
              RunToCompletion(built.value().root.get(), &ctx, &rows));
    return rows;
  }

  Catalog catalog_;
};

TEST_F(ExecutorBuilderTest, BuildsEveryJoinKind) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({d, 0}, {e, 1});
  std::vector<size_t> sizes;
  for (int mask : {1, 2, 4}) {
    OptimizerConfig config;
    config.methods.enable_nljn = (mask & 1) != 0;
    config.methods.enable_hsjn = (mask & 2) != 0;
    config.methods.enable_mgjn = (mask & 4) != 0;
    std::shared_ptr<PlanNode> plan = PlanFor(q, config);
    sizes.push_back(Run(*plan, q).size());
  }
  EXPECT_EQ(sizes[0], sizes[1]);
  EXPECT_EQ(sizes[1], sizes[2]);
  EXPECT_EQ(200u, sizes[0]);  // Every emp row joins exactly one dept.
}

TEST_F(ExecutorBuilderTest, EdgesRecordTableSetOperators) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({d, 0}, {e, 1});
  q.AddGroupBy({d, 1});
  q.AddAgg(AggFunc::kCount);
  std::shared_ptr<PlanNode> plan = PlanFor(q);
  ExecutorBuilder builder(catalog_, q, nullptr, false);
  Result<BuiltPlan> built = builder.Build(*plan);
  ASSERT_TRUE(built.ok());
  // At least one scan and the join must be tracked (an NLJN inner is an
  // access path, not an operator); the agg (set 0) must not appear.
  EXPECT_GE(built.value().edges.size(), 2u);
  for (const auto& [set, op] : built.value().edges) {
    EXPECT_NE(0u, set);
    EXPECT_NE(nullptr, op);
  }
}

TEST_F(ExecutorBuilderTest, CompensationSuppressesEdgeRecording) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({d, 0}, {e, 1});
  std::shared_ptr<PlanNode> plan = PlanFor(q);
  InsertCompensation(&plan);
  const std::vector<Row> returned;
  ExecutorBuilder builder(catalog_, q, &returned, false);
  Result<BuiltPlan> built = builder.Build(*plan);
  ASSERT_TRUE(built.ok());
  // The join below the anti-join still produces true cardinalities and is
  // recorded; the anti-join itself (whose counts exclude compensated
  // rows) must not be.
  for (const auto& [set, op] : built.value().edges) {
    (void)set;
    EXPECT_STRNE("ANTIJOIN(S)", op->name());
  }
}

TEST_F(ExecutorBuilderTest, CompensationWithoutRowsFails) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({d, 0}, {e, 1});
  std::shared_ptr<PlanNode> plan = PlanFor(q);
  InsertCompensation(&plan);
  ExecutorBuilder builder(catalog_, q, /*already_returned=*/nullptr, false);
  Result<BuiltPlan> built = builder.Build(*plan);
  EXPECT_FALSE(built.ok());
}

TEST_F(ExecutorBuilderTest, MissingTableReportsNotFound) {
  QuerySpec q("q");
  q.AddTable("dept");
  std::shared_ptr<PlanNode> plan = PlanFor(q);
  plan->children.clear();
  PlanNode* scan = plan.get();
  while (!scan->children.empty()) scan = scan->children[0].get();
  scan->kind = PlanOpKind::kTableScan;
  scan->table_name = "ghost";
  ExecutorBuilder builder(catalog_, q, nullptr, false);
  Result<BuiltPlan> built = builder.Build(*plan);
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(StatusCode::kNotFound, built.status().code());
}

TEST_F(ExecutorBuilderTest, ChecksAreTranslated) {
  QuerySpec q("q");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({d, 0}, {e, 1});
  q.AddPred({d, 0}, PredKind::kEq, Value::Int(2));
  std::shared_ptr<PlanNode> plan = PlanFor(q);
  PopConfig pop;
  pop.require_narrowed_range = false;
  CostModel cm{CostParams{}};
  const PlacementStats stats = PlaceCheckpoints(&plan, pop, cm, false);
  ASSERT_GE(stats.total(), 1);
  // Builds and runs fine with the checks in place (they hold here).
  const std::vector<Row> rows = Run(*plan, q);
  EXPECT_EQ(testing::ReferenceExecute(catalog_, q).size(), rows.size());
}

TEST_F(ExecutorBuilderTest, ParamMarkersBoundAtBuildTime) {
  QuerySpec q("q");
  const int e = q.AddTable("emp");
  q.AddParamPred({e, 2}, PredKind::kLt, 0);
  q.BindParam(Value::Int(30));
  std::shared_ptr<PlanNode> plan = PlanFor(q);
  const std::vector<Row> rows = Run(*plan, q);
  for (const Row& r : rows) EXPECT_LT(r[2].AsInt(), 30);
}

// ------------------------------------------------------ Narrow row layouts.
//
// Rows above a scan carry only the columns the query reads (exec/layout.h).
// These tests pin which columns that is for TPC-H queries, that every
// operator kind producing table-set rows emits exactly them, and that
// plans whose positions depend on it — cross products whose table carries
// nothing, NLJN and MGJN over reused views — return the reference rows.

class NarrowLayoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::GenConfig gen;
    gen.scale = 0.002;
    ASSERT_TRUE(tpch::BuildCatalog(gen, &catalog_).ok());
  }

  Result<std::shared_ptr<PlanNode>> PlanFor(
      const QuerySpec& q, const OptimizerConfig& config = {},
      const std::vector<AvailableMatView>* views = nullptr) {
    Optimizer opt(catalog_, config);
    Result<OptimizedPlan> r = opt.Optimize(q, nullptr, views);
    if (!r.ok()) return r.status();
    return r.value().root;
  }

  std::vector<Row> Run(const PlanNode& plan, const QuerySpec& q) {
    ExecutorBuilder builder(catalog_, q, nullptr, false);
    Result<BuiltPlan> built = builder.Build(plan);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    if (!built.ok()) return {};
    ExecContext ctx;
    ctx.params = q.params();
    std::vector<Row> rows;
    EXPECT_EQ(ExecStatus::kEof,
              RunToCompletion(built.value().root.get(), &ctx, &rows));
    return rows;
  }

  /// Column count of the rows `node` produces: its subtree is built and
  /// opened on its own and its first batch read.
  int OutputWidth(const PlanNode& node, const QuerySpec& q) {
    ExecutorBuilder builder(catalog_, q, nullptr, false);
    Result<BuiltPlan> built = builder.Build(node);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    if (!built.ok()) return -1;
    Operator* op = built.value().root.get();
    ExecContext ctx;
    ctx.params = q.params();
    EXPECT_EQ(ExecStatus::kOk, op->Open(&ctx));
    RowBatch batch;
    EXPECT_EQ(ExecStatus::kRow, op->NextBatch(&ctx, &batch))
        << PlanOpKindName(node.kind) << " over set " << node.set
        << " produced no rows";
    op->Close(&ctx);
    return batch.width();
  }

  /// A temporary view of `table_id` as a scan of it (with its local
  /// predicates) produces it, sorted on `sort_positions` when given.
  AvailableMatView ScanView(const QuerySpec& q, int table_id,
                            std::vector<int> sort_positions = {}) {
    auto scan = std::make_shared<PlanNode>();
    scan->kind = PlanOpKind::kTableScan;
    scan->set = TableBit(table_id);
    scan->table_id = table_id;
    scan->table_name = q.table_name(table_id);
    scan->pred_ids = q.PredsOnTable(table_id);
    std::shared_ptr<PlanNode> root = scan;
    if (!sort_positions.empty()) {
      root = std::make_shared<PlanNode>();
      root->kind = PlanOpKind::kSort;
      root->set = scan->set;
      for (int pos : sort_positions) root->sort_keys.push_back({pos, false});
      root->children = {scan};
    }
    auto rows = std::make_shared<std::vector<Row>>(Run(*root, q));
    AvailableMatView view;
    view.name = "mv_" + q.table_name(table_id);
    view.set = scan->set;
    view.card = static_cast<double>(rows->size());
    view.rows = std::move(rows);
    view.sorted_positions = std::move(sort_positions);
    return view;
  }

  Catalog catalog_;
};

/// `columns` per query table, each sorted (the QueryTableColumns form).
TableColumns Sorted(TableColumns columns) {
  for (std::vector<int>& table : columns) std::sort(table.begin(), table.end());
  return columns;
}

int CarriedWidth(const TableColumns& columns, TableSet set) {
  int width = 0;
  for (size_t t = 0; t < columns.size(); ++t) {
    if (ContainsTable(set, static_cast<int>(t))) {
      width += static_cast<int>(columns[t].size());
    }
  }
  return width;
}

void ForEachNode(const PlanNode& node,
                 const std::function<void(const PlanNode&)>& visit) {
  visit(node);
  for (const auto& child : node.children) ForEachNode(*child, visit);
}

TEST_F(NarrowLayoutTest, PaperQueriesCarryTheColumnsTheyRead) {
  using namespace tpch;  // NOLINT: schema column enums.
  const TableColumns q5 = Sorted({
      {Customer::kCustKey, Customer::kNationKey},
      {Orders::kOrderKey, Orders::kCustKey},
      {Lineitem::kOrderKey, Lineitem::kSuppKey, Lineitem::kExtendedPrice},
      {Supplier::kSuppKey, Supplier::kNationKey},
      {Nation::kNationKey, Nation::kName, Nation::kRegionKey},
      {Region::kRegionKey},
  });
  const TableColumns q18 = Sorted({
      {Customer::kCustKey, Customer::kName},
      {Orders::kOrderKey, Orders::kCustKey},
      {Lineitem::kOrderKey, Lineitem::kQuantity},
  });
  EXPECT_EQ(q5, QueryTableColumns(catalog_, MakeQuery(5)));
  EXPECT_EQ(q18, QueryTableColumns(catalog_, MakeQuery(18)));
  // Parameter markers change no column the query reads.
  QueryOptions marked;
  marked.param_markers = true;
  EXPECT_EQ(q5, QueryTableColumns(catalog_, MakeQuery(5, marked)));

  // Every operator producing table-set rows carries exactly those columns:
  // scans, hash-join builds, TEMPs (LCEM buffers on NLJN outers), SORTs
  // and the aggregation input, across join-method mixes.
  PopConfig pop;
  pop.require_narrowed_range = false;
  pop.observe_only = true;
  const CostModel cm{CostParams{}};
  int scans = 0, builds = 0, temps = 0, sorts = 0, agg_inputs = 0;
  for (const auto& [qnum, expected] :
       std::vector<std::pair<int, TableColumns>>{{5, q5}, {18, q18}}) {
    const QuerySpec q = MakeQuery(qnum);
    for (int methods : {7, 1, 2, 4}) {
      SCOPED_TRACE("q" + std::to_string(qnum) + " methods " +
                   std::to_string(methods));
      OptimizerConfig config;
      config.methods.enable_nljn = (methods & 1) != 0;
      config.methods.enable_hsjn = (methods & 2) != 0;
      config.methods.enable_mgjn = (methods & 4) != 0;
      Result<std::shared_ptr<PlanNode>> plan = PlanFor(q, config);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      std::shared_ptr<PlanNode> root = plan.value();
      PlaceCheckpoints(&root, pop, cm, q.pipelined());
      auto expect_width = [&](const PlanNode& node, TableSet set) {
        EXPECT_EQ(CarriedWidth(expected, set), OutputWidth(node, q))
            << PlanOpKindName(node.kind) << " over set " << set;
      };
      ForEachNode(*root, [&](const PlanNode& node) {
        switch (node.kind) {
          case PlanOpKind::kHsjn:
            expect_width(*node.children[1], node.children[1]->set);
            ++builds;
            break;
          case PlanOpKind::kTemp:
            expect_width(node, node.set);
            ++temps;
            break;
          case PlanOpKind::kSort:
            if (node.set != 0) {
              expect_width(node, node.set);
              ++sorts;
            }
            break;
          case PlanOpKind::kAgg:
            expect_width(*node.children[0], q.AllTables());
            ++agg_inputs;
            break;
          case PlanOpKind::kNljn: {
            // The inner is an access path read as stored rows; the join
            // itself emits the narrow rows.
            expect_width(node, node.set);
            break;
          }
          default:
            break;
        }
        for (size_t i = 0; i < node.children.size(); ++i) {
          const PlanNode& child = *node.children[i];
          const bool nljn_inner = node.kind == PlanOpKind::kNljn && i == 1;
          if (child.kind == PlanOpKind::kTableScan && !nljn_inner) {
            expect_width(child, child.set);
            ++scans;
          }
        }
      });
    }
  }
  EXPECT_GT(scans, 0);
  EXPECT_GT(builds, 0);
  EXPECT_GT(temps, 0);
  EXPECT_GT(sorts, 0);
  EXPECT_EQ(8, agg_inputs);
}

TEST_F(NarrowLayoutTest, WholeRowQueryKeepsEveryColumn) {
  // Q18's joins without its GROUP BY and SUM: rows reach the application
  // whole, so every column of every table is carried.
  QuerySpec q("q18_rows");
  const int c = q.AddTable("customer");
  const int o = q.AddTable("orders");
  const int l = q.AddTable("lineitem");
  q.AddJoin({c, tpch::Customer::kCustKey}, {o, tpch::Orders::kCustKey});
  q.AddJoin({o, tpch::Orders::kOrderKey}, {l, tpch::Lineitem::kOrderKey});
  q.AddPred({l, tpch::Lineitem::kQuantity}, PredKind::kGt, Value::Int(49));
  const std::vector<int> widths = QueryTableWidths(catalog_, q);
  TableColumns every;
  for (int w : widths) every.push_back(AllColumns(w));
  EXPECT_EQ(every, QueryTableColumns(catalog_, q));

  Result<std::shared_ptr<PlanNode>> plan = PlanFor(q);
  ASSERT_TRUE(plan.ok());
  ForEachNode(*plan.value(), [&](const PlanNode& node) {
    if (node.kind == PlanOpKind::kTableScan) {
      EXPECT_EQ(widths[static_cast<size_t>(node.table_id)],
                OutputWidth(node, q));
    }
  });
  const std::vector<Row> rows = Run(*plan.value(), q);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(static_cast<size_t>(widths[0] + widths[1] + widths[2]),
            rows.front().size());
  EXPECT_EQ(testing::Canonicalize(testing::ReferenceExecute(catalog_, q)),
            testing::Canonicalize(rows));
}

TEST_F(NarrowLayoutTest, CrossProductWithATableCarryingNoColumn) {
  // region (r_name = 'ASIA') x (nation JOIN supplier): region is read by
  // no operator above its scan, so its rows have no column at all.
  for (int shape : {0, 1, 2}) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    QuerySpec q("cross");
    const int r = q.AddTable("region");
    const int n = q.AddTable("nation");
    const int s = q.AddTable("supplier");
    q.AddJoin({n, tpch::Nation::kNationKey}, {s, tpch::Supplier::kNationKey});
    q.AddPred({r, tpch::Region::kName}, PredKind::kEq, Value::String("ASIA"));
    if (shape == 0) q.AddAgg(AggFunc::kCount);
    if (shape == 1) {
      q.AddGroupBy({n, tpch::Nation::kName});
      q.AddAgg(AggFunc::kCount);
    }
    if (shape == 2) q.AddProjection({s, tpch::Supplier::kSuppKey});
    EXPECT_TRUE(QueryTableColumns(catalog_, q)[static_cast<size_t>(r)].empty());
    const std::vector<std::string> expected =
        testing::Canonicalize(testing::ReferenceExecute(catalog_, q));
    ASSERT_FALSE(expected.empty());
    for (int methods : {7, 1, 3}) {
      SCOPED_TRACE("methods " + std::to_string(methods));
      OptimizerConfig config;
      config.methods.enable_nljn = (methods & 1) != 0;
      config.methods.enable_hsjn = (methods & 2) != 0;
      config.methods.enable_mgjn = (methods & 4) != 0;
      Result<std::shared_ptr<PlanNode>> plan = PlanFor(q, config);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_EQ(expected, testing::Canonicalize(Run(*plan.value(), q)));
    }
  }
}

/// supplier JOIN lineitem on the supplier key, returning (l_orderkey,
/// s_name) of large-quantity lines. lineitem carries l_orderkey (schema 0)
/// and l_suppkey (schema 2) at positions 0 and 1: its join key is neither
/// the first carried column nor at its schema position.
QuerySpec SupplierLines(int* lineitem) {
  QuerySpec q("supplier_lines");
  const int s = q.AddTable("supplier");
  const int l = q.AddTable("lineitem");
  q.AddJoin({s, tpch::Supplier::kSuppKey}, {l, tpch::Lineitem::kSuppKey});
  q.AddPred({l, tpch::Lineitem::kQuantity}, PredKind::kGt, Value::Int(45));
  q.AddProjection({l, tpch::Lineitem::kOrderKey});
  q.AddProjection({s, tpch::Supplier::kName});
  *lineitem = l;
  return q;
}

TEST_F(NarrowLayoutTest, NljnProbesAReusedViewThroughItsLayout) {
  int l = -1;
  const QuerySpec q = SupplierLines(&l);
  std::vector<AvailableMatView> views = {ScanView(q, l)};
  ASSERT_FALSE(views[0].rows->empty());
  EXPECT_EQ(2u, views[0].rows->front().size());
  OptimizerConfig config;
  config.methods.enable_hsjn = false;
  config.methods.enable_mgjn = false;
  Result<std::shared_ptr<PlanNode>> plan = PlanFor(q, config, &views);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  bool probes_view = false;
  ForEachNode(*plan.value(), [&](const PlanNode& node) {
    probes_view |= node.kind == PlanOpKind::kNljn && node.use_index &&
                   node.index_col == tpch::Lineitem::kSuppKey &&
                   node.children[1]->kind == PlanOpKind::kMatViewScan;
  });
  ASSERT_TRUE(probes_view) << "no NLJN probes the view through an index";
  EXPECT_EQ(testing::Canonicalize(testing::ReferenceExecute(catalog_, q)),
            testing::Canonicalize(Run(*plan.value(), q)));
}

TEST_F(NarrowLayoutTest, MgjnReadsAViewSortedOnItsJoinKey) {
  int l = -1;
  const QuerySpec q = SupplierLines(&l);
  // Sorted on l_suppkey: position 1 of lineitem's carried columns.
  std::vector<AvailableMatView> views = {ScanView(q, l, {1})};
  OptimizerConfig config;
  config.methods.enable_nljn = false;
  config.methods.enable_hsjn = false;
  Result<std::shared_ptr<PlanNode>> plan = PlanFor(q, config, &views);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  bool merges_view = false;
  ForEachNode(*plan.value(), [&](const PlanNode& node) {
    if (node.kind != PlanOpKind::kMgjn) return;
    for (const auto& child : node.children) {
      merges_view |= child->kind == PlanOpKind::kMatViewScan;
    }
  });
  ASSERT_TRUE(merges_view) << "no MGJN reads the sorted view unsorted";
  EXPECT_EQ(testing::Canonicalize(testing::ReferenceExecute(catalog_, q)),
            testing::Canonicalize(Run(*plan.value(), q)));
}

}  // namespace
}  // namespace popdb
