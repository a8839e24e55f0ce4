#include <gtest/gtest.h>

#include "core/feedback.h"
#include "core/matview.h"

namespace popdb {
namespace {

// --------------------------------------------------------- FeedbackCache.

TEST(FeedbackCacheTest, RecordExact) {
  FeedbackCache fb;
  EXPECT_TRUE(fb.empty());
  fb.RecordExact(0b11, 120.0);
  ASSERT_EQ(1u, fb.Snapshot().size());
  EXPECT_DOUBLE_EQ(120.0, fb.Snapshot().at(0b11).exact);
}

TEST(FeedbackCacheTest, ExactOverwritesExact) {
  FeedbackCache fb;
  fb.RecordExact(0b1, 10.0);
  fb.RecordExact(0b1, 25.0);
  EXPECT_DOUBLE_EQ(25.0, fb.Snapshot().at(0b1).exact);
}

TEST(FeedbackCacheTest, LowerBoundsKeepMaximum) {
  FeedbackCache fb;
  fb.RecordLowerBound(0b1, 10.0);
  fb.RecordLowerBound(0b1, 50.0);
  fb.RecordLowerBound(0b1, 30.0);
  EXPECT_DOUBLE_EQ(50.0, fb.Snapshot().at(0b1).lower_bound);
  EXPECT_LT(fb.Snapshot().at(0b1).exact, 0);
}

TEST(FeedbackCacheTest, ExactDominatesLowerBound) {
  FeedbackCache fb;
  fb.RecordExact(0b1, 20.0);
  fb.RecordLowerBound(0b1, 500.0);
  EXPECT_DOUBLE_EQ(20.0, fb.Snapshot().at(0b1).exact);
}

TEST(FeedbackCacheTest, ClearEmpties) {
  FeedbackCache fb;
  fb.RecordExact(0b1, 1.0);
  fb.Clear();
  EXPECT_TRUE(fb.empty());
}

TEST(FeedbackCacheTest, ToStringRendersBothKinds) {
  FeedbackCache fb;
  fb.RecordExact(0b1, 7.0);
  fb.RecordLowerBound(0b10, 9.0);
  const std::string s = fb.ToString();
  EXPECT_NE(std::string::npos, s.find("exact=7"));
  EXPECT_NE(std::string::npos, s.find("lower_bound=9"));
}

// -------------------------------------------------------- MatViewRegistry.

SharedRows MakeRows(int n, int64_t tag) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) rows.push_back({Value::Int(tag + i)});
  return std::make_shared<const std::vector<Row>>(std::move(rows));
}

TEST(MatViewRegistryTest, RegisterSharesTheBuffer) {
  MatViewRegistry reg;
  EXPECT_TRUE(reg.empty());
  const SharedRows rows = MakeRows(4, 0);
  reg.Register(0b101, rows);
  ASSERT_EQ(1u, reg.views().size());
  const AvailableMatView& v = reg.views()[0];
  EXPECT_EQ(TableSet{0b101}, v.set);
  EXPECT_DOUBLE_EQ(4.0, v.card);
  // The view is the producer's buffer, not a copy of it.
  EXPECT_EQ(rows.get(), v.rows.get());
}

TEST(MatViewRegistryTest, ReRegisterReplacesRowsAndKeepsTheName) {
  MatViewRegistry reg;
  reg.Register(0b1, MakeRows(4, 0));
  const std::string name = reg.views()[0].name;
  reg.Register(0b1, MakeRows(9, 100));
  ASSERT_EQ(1u, reg.views().size());
  EXPECT_EQ(name, reg.views()[0].name);
  EXPECT_DOUBLE_EQ(9.0, reg.views()[0].card);
  EXPECT_EQ(Value::Int(100), (*reg.views()[0].rows)[0][0]);
}

TEST(MatViewRegistryTest, DistinctSetsCoexist) {
  MatViewRegistry reg;
  reg.Register(0b1, MakeRows(2, 0));
  reg.Register(0b10, MakeRows(3, 10));
  ASSERT_EQ(2u, reg.views().size());
  EXPECT_DOUBLE_EQ(2.0, reg.views()[0].card);
  EXPECT_DOUBLE_EQ(3.0, reg.views()[1].card);
}

TEST(MatViewRegistryTest, NamesAreUniquePerSet) {
  MatViewRegistry reg;
  reg.Register(0b1, MakeRows(1, 0));
  reg.Register(0b10, MakeRows(1, 0));
  EXPECT_NE(reg.views()[0].name, reg.views()[1].name);
}

TEST(MatViewRegistryTest, ClearDropsEverything) {
  MatViewRegistry reg;
  const SharedRows rows = MakeRows(2, 0);
  reg.Register(0b1, rows);
  EXPECT_EQ(2, rows.use_count());
  reg.Clear();
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(1, rows.use_count());  // The registry let go of the buffer.
}

TEST(MatViewRegistryTest, ReadersKeepReplacedAndClearedRows) {
  MatViewRegistry reg;
  reg.Register(0b1, MakeRows(2, 0));
  // A plan node of an earlier attempt holds the view's rows.
  const SharedRows reader = reg.views()[0].rows;
  reg.Register(0b10, MakeRows(2, 5));
  reg.Register(0b1, MakeRows(3, 7));
  reg.Clear();
  ASSERT_EQ(2u, reader->size());
  EXPECT_EQ(Value::Int(0), (*reader)[0][0]);
}

}  // namespace
}  // namespace popdb
