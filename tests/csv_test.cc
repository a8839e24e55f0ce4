#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "storage/csv.h"

namespace popdb {
namespace {

TEST(CsvTest, HeaderAndTypeInference) {
  Result<Table> t = ParseCsv(
      "t", "id,score,name\n1,2.5,alice\n2,3,bob\n3,4.25,carol\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const Table& table = t.value();
  EXPECT_EQ(3, table.num_rows());
  EXPECT_EQ(ValueType::kInt, table.schema().column(0).type);
  EXPECT_EQ(ValueType::kDouble, table.schema().column(1).type);  // Widened.
  EXPECT_EQ(ValueType::kString, table.schema().column(2).type);
  EXPECT_EQ("id", table.schema().column(0).name);
  EXPECT_EQ(Value::Double(3.0), table.Snapshot().Cell(1, 1));
  EXPECT_EQ(Value::String("carol"), table.Snapshot().Cell(2, 2));
}

TEST(CsvTest, NoHeaderNamesColumns) {
  CsvOptions options;
  options.header = false;
  Result<Table> t = ParseCsv("t", "1,x\n2,y\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ("c0", t.value().schema().column(0).name);
  EXPECT_EQ("c1", t.value().schema().column(1).name);
  EXPECT_EQ(2, t.value().num_rows());
}

TEST(CsvTest, QuotedFieldsAndEscapedQuotes) {
  Result<Table> t = ParseCsv(
      "t", "a,b\n\"hello, world\",\"say \"\"hi\"\"\"\nplain,text\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(Value::String("hello, world"), t.value().Snapshot().Cell(0, 0));
  EXPECT_EQ(Value::String("say \"hi\""), t.value().Snapshot().Cell(0, 1));
}

TEST(CsvTest, QuotedNewlines) {
  Result<Table> t = ParseCsv("t", "a\n\"line1\nline2\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(Value::String("line1\nline2"), t.value().Snapshot().Cell(0, 0));
}

TEST(CsvTest, EmptyFieldsAreNull) {
  Result<Table> t = ParseCsv("t", "a,b\n1,\n,2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t.value().Snapshot().Cell(0, 1).is_null());
  EXPECT_TRUE(t.value().Snapshot().Cell(1, 0).is_null());
  EXPECT_EQ(Value::Int(2), t.value().Snapshot().Cell(1, 1));
}

TEST(CsvTest, CustomNullText) {
  CsvOptions options;
  options.null_text = "NA";
  Result<Table> t = ParseCsv("t", "a\n1\nNA\n3\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t.value().Snapshot().Cell(1, 0).is_null());
  EXPECT_EQ(ValueType::kInt, t.value().schema().column(0).type);
}

TEST(CsvTest, CrLfHandled) {
  Result<Table> t = ParseCsv("t", "a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(2, t.value().num_rows());
  EXPECT_EQ(Value::Int(4), t.value().Snapshot().Cell(1, 1));
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = '|';
  Result<Table> t = ParseCsv("t", "a|b\n1|2\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(Value::Int(2), t.value().Snapshot().Cell(0, 1));
}

TEST(CsvTest, NegativeNumbers) {
  Result<Table> t = ParseCsv("t", "a,b\n-5,-2.5\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(Value::Int(-5), t.value().Snapshot().Cell(0, 0));
  EXPECT_EQ(Value::Double(-2.5), t.value().Snapshot().Cell(0, 1));
}

TEST(CsvTest, IntegerBeyondInt64WidensToDouble) {
  // strtoll saturates: a digit string past int64 must not load as
  // INT64_MAX. Inference widens its column to double, as it does for 1.5.
  Result<Table> t = ParseCsv(
      "t", "a,b\n99999999999999999999,1\n-9223372036854775808,2\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(ValueType::kDouble, t.value().schema().column(0).type);
  EXPECT_EQ(Value::Double(1e20), t.value().Snapshot().Cell(0, 0));
  EXPECT_EQ(ValueType::kInt, t.value().schema().column(1).type);
}

TEST(CsvTest, IntegerBeyondInt64AfterInferenceSampleRejected) {
  // Past the inference sample the column is already int: an out-of-range
  // cell fails like any other non-integer instead of saturating.
  CsvOptions options;
  options.type_inference_rows = 1;
  Result<Table> t = ParseCsv(
      "t", "a\n9223372036854775807\n9223372036854775808\n", options);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(std::string::npos, t.status().message().find("is not an integer"))
      << t.status().ToString();
}

TEST(CsvTest, RaggedRecordRejected) {
  EXPECT_FALSE(ParseCsv("t", "a,b\n1,2,3\n").ok());
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  EXPECT_FALSE(ParseCsv("t", "a\n\"oops\n").ok());
}

TEST(CsvTest, EmptyInputRejected) {
  EXPECT_FALSE(ParseCsv("t", "").ok());
}

TEST(CsvTest, LoadFileIntoCatalogAndAnalyze) {
  const char* path = "/tmp/popdb_csv_test.csv";
  {
    std::ofstream f(path);
    f << "k,v\n1,10\n2,20\n3,30\n";
  }
  Catalog catalog;
  Status s = LoadCsvFile("kv", path, &catalog);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_NE(nullptr, catalog.GetTable("kv"));
  EXPECT_EQ(3, catalog.GetTable("kv")->num_rows());
  ASSERT_NE(nullptr, catalog.GetStats("kv"));
  EXPECT_EQ(3, catalog.GetStats("kv")->column(0).num_distinct);
  std::remove(path);
}

TEST(CsvTest, MissingFileIsNotFound) {
  Catalog catalog;
  EXPECT_EQ(StatusCode::kNotFound,
            LoadCsvFile("x", "/nonexistent/file.csv", &catalog).code());
}

}  // namespace
}  // namespace popdb
