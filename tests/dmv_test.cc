#include <gtest/gtest.h>

#include "core/pop.h"
#include "dmv/dmv_gen.h"
#include "dmv/dmv_queries.h"

namespace popdb {
namespace {

class DmvTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    dmv::GenConfig gen;
    gen.scale = 0.2;  // Small but structurally identical.
    ASSERT_TRUE(dmv::BuildCatalog(gen, catalog_).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  static Catalog* catalog_;
};

Catalog* DmvTest::catalog_ = nullptr;

TEST_F(DmvTest, AllTablesPresent) {
  for (const char* name : {"owner", "car", "registration", "accident",
                           "insurance", "violation", "inspection",
                           "dealer"}) {
    EXPECT_NE(nullptr, catalog_->GetTable(name)) << name;
    EXPECT_NE(nullptr, catalog_->GetStats(name)) << name;
  }
}

TEST_F(DmvTest, ModelDeterminesMakeAndWeight) {
  const TableSnapshot car = catalog_->GetTable("car")->Snapshot();
  for (int64_t i = 0; i < car.num_rows(); ++i) {
    const Row r = car.MaterializeRow(i);
    const int64_t model = r[dmv::Car::kModel].AsInt();
    EXPECT_EQ(model / dmv::kModelsPerMake, r[dmv::Car::kMake].AsInt());
    EXPECT_EQ(model % dmv::kNumWeights, r[dmv::Car::kWeight].AsInt());
  }
}

TEST_F(DmvTest, ColorFollowsModelMostOfTheTime) {
  const TableSnapshot car = catalog_->GetTable("car")->Snapshot();
  int64_t follows = 0;
  for (int64_t i = 0; i < car.num_rows(); ++i) {
    const Row r = car.MaterializeRow(i);
    if (r[dmv::Car::kColor].AsInt() ==
        (r[dmv::Car::kModel].AsInt() * 7) % dmv::kNumColors) {
      ++follows;
    }
  }
  const double rate =
      static_cast<double>(follows) / static_cast<double>(car.num_rows());
  EXPECT_GT(rate, 0.72);  // Configured 0.8 plus random coincidences.
}

TEST_F(DmvTest, ZipMakeJoinCorrelationHolds) {
  const TableSnapshot car = catalog_->GetTable("car")->Snapshot();
  const TableSnapshot owner = catalog_->GetTable("owner")->Snapshot();
  const int64_t band = dmv::kNumZips / dmv::kNumMakes;
  int64_t in_band = 0;
  for (int64_t i = 0; i < car.num_rows(); ++i) {
    const Row r = car.MaterializeRow(i);
    const int64_t make = r[dmv::Car::kMake].AsInt();
    const int64_t zip =
        owner.Cell(r[dmv::Car::kOwnerId].AsInt(), dmv::Owner::kZip).AsInt();
    if (zip >= make * band && zip < (make + 1) * band) ++in_band;
  }
  const double rate =
      static_cast<double>(in_band) / static_cast<double>(car.num_rows());
  // Configured correlation 0.8 (minus empty-bucket fallbacks at small
  // scales); uncorrelated owners land in-band only 2% of the time, so
  // anything above 0.6 confirms the trap exists.
  EXPECT_GT(rate, 0.6);
}

TEST_F(DmvTest, AgeCorrelatedWithZip) {
  const TableSnapshot owner = catalog_->GetTable("owner")->Snapshot();
  for (int64_t i = 0; i < owner.num_rows(); ++i) {
    const Row r = owner.MaterializeRow(i);
    const int64_t zip = r[dmv::Owner::kZip].AsInt();
    const int64_t age = r[dmv::Owner::kAge].AsInt();
    EXPECT_GE(age, 18 + (zip % 50));
    EXPECT_LE(age, 18 + (zip % 50) + 9);
  }
}

TEST_F(DmvTest, EstimatorUnderestimatesCorrelatedBundle) {
  // The engineered trap: make+model+weight estimated orders of magnitude
  // below the actual count.
  QuerySpec q("bundle");
  const int car = q.AddTable("car");
  const int64_t model = 500;
  q.AddPred({car, dmv::Car::kMake}, PredKind::kEq,
            Value::Int(model / dmv::kModelsPerMake));
  q.AddPred({car, dmv::Car::kModel}, PredKind::kEq, Value::Int(model));
  q.AddPred({car, dmv::Car::kWeight}, PredKind::kEq,
            Value::Int(model % dmv::kNumWeights));
  EstimatorConfig config;
  CardinalityEstimator est(*catalog_, q, nullptr, config);
  const double estimated = est.SubsetCard(TableBit(car));

  ProgressiveExecutor exec(*catalog_, OptimizerConfig{}, PopConfig{});
  Result<std::vector<Row>> rows = exec.ExecuteStatic(q);
  ASSERT_TRUE(rows.ok());
  const double actual = static_cast<double>(rows.value().size());
  EXPECT_GT(actual, 0);
  EXPECT_GT(actual / estimated, 100.0)
      << "estimated " << estimated << " actual " << actual;
}

TEST_F(DmvTest, WorkloadHasRequestedShape) {
  const std::vector<QuerySpec> workload = dmv::MakeWorkload();
  ASSERT_EQ(39u, workload.size());
  for (const QuerySpec& q : workload) {
    EXPECT_GE(q.num_tables(), 3) << q.name();
    EXPECT_FALSE(q.join_preds().empty()) << q.name();
    EXPECT_TRUE(q.has_aggregation()) << q.name();
  }
}

TEST_F(DmvTest, WorkloadIsDeterministic) {
  const std::vector<QuerySpec> a = dmv::MakeWorkload();
  const std::vector<QuerySpec> b = dmv::MakeWorkload();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToString(), b[i].ToString());
  }
}

TEST_F(DmvTest, SomeWorkloadQueryTriggersReopt) {
  const std::vector<QuerySpec> workload = dmv::MakeWorkload();
  int total_reopts = 0;
  for (size_t i = 0; i < workload.size(); i += 3) {
    ProgressiveExecutor exec(*catalog_, OptimizerConfig{}, PopConfig{});
    ExecutionStats stats;
    ASSERT_TRUE(exec.Execute(workload[i], &stats).ok());
    total_reopts += stats.reopts;
  }
  EXPECT_GT(total_reopts, 0);
}

}  // namespace
}  // namespace popdb
