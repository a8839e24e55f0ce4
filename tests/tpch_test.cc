#include <gtest/gtest.h>

#include "core/pop.h"
#include "tests/test_util.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace popdb {
namespace {

using ::popdb::testing::Canonicalize;
using ::popdb::testing::ReferenceExecute;

/// One tiny catalog shared by all TPC-H tests (generation is the slow
/// part).
class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::GenConfig gen;
    gen.scale = 0.001;
    ASSERT_TRUE(tpch::BuildCatalog(gen, catalog_).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  static Catalog* catalog_;
};

Catalog* TpchTest::catalog_ = nullptr;

TEST_F(TpchTest, RowCountsMatchScaleContract) {
  EXPECT_EQ(5, catalog_->GetTable("region")->num_rows());
  EXPECT_EQ(25, catalog_->GetTable("nation")->num_rows());
  EXPECT_EQ(tpch::RowsAtScale("lineitem", 0.001),
            catalog_->GetTable("lineitem")->num_rows());
  EXPECT_EQ(tpch::RowsAtScale("orders", 0.001),
            catalog_->GetTable("orders")->num_rows());
  EXPECT_EQ(tpch::RowsAtScale("customer", 0.001),
            catalog_->GetTable("customer")->num_rows());
}

TEST_F(TpchTest, ForeignKeysAreJoinable) {
  const TableSnapshot lineitem = catalog_->GetTable("lineitem")->Snapshot();
  const int64_t n_orders = catalog_->GetTable("orders")->num_rows();
  for (int64_t i = 0; i < lineitem.num_rows(); ++i) {
    const int64_t okey = lineitem.Cell(i, tpch::Lineitem::kOrderKey).AsInt();
    ASSERT_GE(okey, 0);
    ASSERT_LT(okey, n_orders);
  }
}

TEST_F(TpchTest, DerivedColumnsConsistent) {
  const TableSnapshot orders = catalog_->GetTable("orders")->Snapshot();
  for (int64_t i = 0; i < orders.num_rows(); ++i) {
    const Row r = orders.MaterializeRow(i);
    EXPECT_EQ(1992 + r[tpch::Orders::kOrderDate].AsInt() / 365,
              r[tpch::Orders::kOrderYear].AsInt());
  }
  const TableSnapshot lineitem = catalog_->GetTable("lineitem")->Snapshot();
  for (int64_t i = 0; i < lineitem.num_rows(); ++i) {
    const int64_t sel = lineitem.Cell(i, tpch::Lineitem::kSel).AsInt();
    EXPECT_GE(sel, 0);
    EXPECT_LT(sel, 100);
  }
}

TEST_F(TpchTest, StatsAndIndexesBuilt) {
  ASSERT_NE(nullptr, catalog_->GetStats("lineitem"));
  EXPECT_NE(nullptr, catalog_->FindIndex("orders", tpch::Orders::kOrderKey));
  EXPECT_NE(nullptr,
            catalog_->FindIndex("lineitem", tpch::Lineitem::kOrderKey));
}

TEST_F(TpchTest, GenerationIsDeterministic) {
  Catalog other;
  tpch::GenConfig gen;
  gen.scale = 0.001;
  ASSERT_TRUE(tpch::BuildCatalog(gen, &other).ok());
  const TableSnapshot a = catalog_->GetTable("lineitem")->Snapshot();
  const TableSnapshot b = other.GetTable("lineitem")->Snapshot();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int64_t i = 0; i < a.num_rows(); i += 97) {
    EXPECT_EQ(RowToString(a.MaterializeRow(i)),
              RowToString(b.MaterializeRow(i)));
  }
}

TEST_F(TpchTest, StaticExecutionMatchesReferenceUnderEveryMethodConfig) {
  for (int qnum : tpch::PaperQueries()) {
    SCOPED_TRACE("Q" + std::to_string(qnum));
    const QuerySpec q = tpch::MakeQuery(qnum);
    const std::vector<std::string> reference =
        Canonicalize(ReferenceExecute(*catalog_, q));
    for (int mask : {7, 3, 5, 6}) {
      OptimizerConfig config;
      config.methods.enable_nljn = (mask & 1) != 0;
      config.methods.enable_hsjn = (mask & 2) != 0;
      config.methods.enable_mgjn = (mask & 4) != 0;
      ProgressiveExecutor exec(*catalog_, config, PopConfig{});
      Result<std::vector<Row>> rows = exec.ExecuteStatic(q);
      ASSERT_TRUE(rows.ok()) << "mask " << mask;
      EXPECT_EQ(reference, Canonicalize(rows.value())) << "mask " << mask;
    }
  }
}

TEST_F(TpchTest, Q10SelectivitySweepIsMonotone) {
  // More selective bindings return no more rows than less selective ones.
  ProgressiveExecutor exec(*catalog_, OptimizerConfig{}, PopConfig{});
  int64_t prev_groups = -1;
  for (int sel : {0, 25, 50, 75, 100}) {
    QuerySpec q = tpch::MakeQ10Selectivity(sel, /*use_marker=*/false);
    Result<std::vector<Row>> rows = exec.ExecuteStatic(q);
    ASSERT_TRUE(rows.ok());
    EXPECT_GE(static_cast<int64_t>(rows.value().size()), prev_groups);
    prev_groups = static_cast<int64_t>(rows.value().size());
  }
}

TEST_F(TpchTest, Q10MarkerAndLiteralAgree) {
  ProgressiveExecutor exec(*catalog_, OptimizerConfig{}, PopConfig{});
  for (int sel : {10, 60}) {
    QuerySpec marker = tpch::MakeQ10Selectivity(sel, true);
    QuerySpec literal = tpch::MakeQ10Selectivity(sel, false);
    Result<std::vector<Row>> a = exec.Execute(marker);
    Result<std::vector<Row>> b = exec.ExecuteStatic(literal);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(Canonicalize(a.value()), Canonicalize(b.value()));
  }
}

}  // namespace
}  // namespace popdb
