#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dmv/dmv_gen.h"
#include "storage/catalog.h"
#include "storage/index.h"
#include "storage/schema.h"
#include "storage/statistics.h"
#include "storage/table.h"
#include "tpch/tpch_gen.h"
#include "txn/write_manager.h"

namespace popdb {
namespace {

Schema TwoColSchema() {
  return Schema({{"a", ValueType::kInt}, {"b", ValueType::kString}});
}

// ----------------------------------------------------------------- Schema.

TEST(SchemaTest, IndexOf) {
  Schema s = TwoColSchema();
  EXPECT_EQ(0, s.IndexOf("a"));
  EXPECT_EQ(1, s.IndexOf("b"));
  EXPECT_EQ(-1, s.IndexOf("zzz"));
  EXPECT_EQ(2, s.num_columns());
}

TEST(SchemaTest, ToString) {
  EXPECT_EQ("a:int, b:string", TwoColSchema().ToString());
}

// ------------------------------------------------------------------ Table.

TEST(TableTest, AppendAndRead) {
  Table t("t", TwoColSchema());
  t.AppendRow({Value::Int(1), Value::String("x")});
  t.AppendRow({Value::Int(2), Value::String("y")});
  ASSERT_EQ(2, t.num_rows());
  EXPECT_EQ(Value::Int(2), t.row(1)[0]);
  EXPECT_EQ(Value::String("x"), t.row(0)[1]);
}

TEST(TableTest, NullsAllowedInAnyColumn) {
  Table t("t", TwoColSchema());
  t.AppendRow({Value::Null(), Value::Null()});
  EXPECT_TRUE(t.row(0)[0].is_null());
}

// -------------------------------------------------------------- HashIndex.

/// Copies `key`'s candidate rids out of `idx`.
std::vector<int64_t> Candidates(const HashIndex& idx, const Value& key) {
  std::vector<int64_t> scratch;
  const std::span<const int64_t> rids = idx.Probe(key, &scratch);
  return {rids.begin(), rids.end()};
}

TEST(HashIndexTest, ProbeFindsAllDuplicates) {
  Table t("t", TwoColSchema());
  t.AppendRow({Value::Int(7), Value::String("a")});
  t.AppendRow({Value::Int(8), Value::String("b")});
  t.AppendRow({Value::Int(7), Value::String("c")});
  HashIndex idx(t, 0);
  EXPECT_EQ(2, idx.num_keys());
  const std::vector<int64_t> hits = Candidates(idx, Value::Int(7));
  ASSERT_EQ(2u, hits.size());
  EXPECT_EQ(0, hits[0]);
  EXPECT_EQ(2, hits[1]);
}

TEST(HashIndexTest, MissingKeyReturnsEmpty) {
  Table t("t", TwoColSchema());
  t.AppendRow({Value::Int(1), Value::String("a")});
  HashIndex idx(t, 0);
  EXPECT_TRUE(Candidates(idx, Value::Int(99)).empty());
}

TEST(HashIndexTest, StringColumn) {
  Table t("t", TwoColSchema());
  t.AppendRow({Value::Int(1), Value::String("k")});
  t.AppendRow({Value::Int(2), Value::String("k")});
  HashIndex idx(t, 1);
  EXPECT_EQ(2u, Candidates(idx, Value::String("k")).size());
}

// ----------------------------------------- HashIndex vs. brute-force scan.
//
// A key's candidate list is part of the executor's contract: index NLJN
// emits its matches in candidate order. These tests pin it to a model
// computed by scanning: the rids live when the index was built, ascending
// per key, followed by the write path's postings in append order.

/// Expected candidate lists, keyed by Value ordering (under which Int(1)
/// and Double(1.0) are one key, as they are under Value equality).
using Postings = std::map<Value, std::vector<int64_t>>;

/// The live rows of `snap` grouped by their value in `column`, ascending.
Postings ScanPostings(const TableSnapshot& snap, int column) {
  Postings out;
  for (int64_t rid = 0; rid < snap.num_rows(); ++rid) {
    if (!snap.alive(rid)) continue;
    out[snap.row(rid)[static_cast<size_t>(column)]].push_back(rid);
  }
  return out;
}

/// Every key of `expected` probes to exactly its list (content and order),
/// the index has no other keys, and an absent key finds nothing.
void ExpectPostings(const HashIndex& idx, const Postings& expected,
                    const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(static_cast<int64_t>(expected.size()), idx.num_keys());
  for (const auto& [key, rids] : expected) {
    ASSERT_EQ(rids, Candidates(idx, key)) << "key " << key.ToString();
  }
  EXPECT_TRUE(Candidates(idx, Value::String("no such key")).empty());
}

/// Every live row of `snap` is among its key's candidates (the superset
/// half of the contract, checked independently of the model).
void ExpectEveryLiveRowFound(const HashIndex& idx, const TableSnapshot& snap) {
  for (int64_t rid = 0; rid < snap.num_rows(); ++rid) {
    if (!snap.alive(rid)) continue;
    const std::vector<int64_t> c =
        Candidates(idx, snap.row(rid)[static_cast<size_t>(idx.column())]);
    ASSERT_NE(c.end(), std::find(c.begin(), c.end(), rid)) << "rid " << rid;
  }
}

void ExpectCatalogIndexesMatchScan(Catalog* catalog) {
  int checked = 0;
  for (const std::string& name : catalog->TableNames()) {
    const TableSnapshot snap = catalog->GetTable(name)->Snapshot();
    for (const HashIndex* idx : catalog->IndexesOn(name)) {
      ExpectPostings(*idx, ScanPostings(snap, idx->column()),
                     name + "." + std::to_string(idx->column()));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(HashIndexScanTest, TpchIndexesMatchScan) {
  Catalog catalog;
  tpch::GenConfig config;
  config.scale = 0.005;
  ASSERT_TRUE(tpch::BuildCatalog(config, &catalog).ok());
  ExpectCatalogIndexesMatchScan(&catalog);
}

TEST(HashIndexScanTest, DmvIndexesMatchScan) {
  Catalog catalog;
  dmv::GenConfig config;
  config.scale = 0.02;
  ASSERT_TRUE(dmv::BuildCatalog(config, &catalog).ok());
  ExpectCatalogIndexesMatchScan(&catalog);
}

TEST(HashIndexScanTest, NullStringAndNumericKeys) {
  Table t("t", Schema({{"i", ValueType::kInt},
                       {"s", ValueType::kString},
                       {"d", ValueType::kDouble}}));
  for (int64_t r = 0; r < 3000; ++r) {  // Spans several chunks.
    t.AppendRow({r % 11 == 0 ? Value::Null() : Value::Int(r % 37),
                 r % 7 == 0 ? Value::Null()
                            : Value::String("k" + std::to_string(r % 13)),
                 r % 5 == 0 ? Value::Null()
                            : Value::Double(static_cast<double>(r % 9) / 2)});
  }
  const TableSnapshot snap = t.Snapshot();
  for (int col = 0; col < 3; ++col) {
    const HashIndex idx(t, col);
    ExpectPostings(idx, ScanPostings(snap, col),
                   "column " + std::to_string(col));
  }
  // Cross-type probes follow Value equality: Int(3) finds Double(3.0),
  // Double(4.0) finds Int(4), and NULL finds the NULL rows.
  const Postings doubles = ScanPostings(snap, 2);
  EXPECT_EQ(doubles.at(Value::Double(3.0)),
            Candidates(HashIndex(t, 2), Value::Int(3)));
  const Postings ints = ScanPostings(snap, 0);
  EXPECT_EQ(ints.at(Value::Int(4)),
            Candidates(HashIndex(t, 0), Value::Double(4.0)));
  EXPECT_EQ(ints.at(Value::Null()),
            Candidates(HashIndex(t, 0), Value::Null()));
}

TEST(HashIndexScanTest, MatViewRowsWithMixedNumericKeys) {
  // Materialized rows carry no schema: one column may mix Int and Double.
  std::vector<Row> rows;
  for (int64_t r = 0; r < 500; ++r) {
    const int64_t k = r % 17;
    rows.push_back({r % 3 == 0 ? Value::Double(static_cast<double>(k))
                    : r % 19 == 0 ? Value::Null()
                                  : Value::Int(k),
                    Value::Int(r)});
  }
  const HashIndex idx(rows, 0, "mv");
  Postings expected;
  for (size_t rid = 0; rid < rows.size(); ++rid) {
    expected[rows[rid][0]].push_back(static_cast<int64_t>(rid));
  }
  ExpectPostings(idx, expected, "matview");
  EXPECT_EQ(Candidates(idx, Value::Int(5)), Candidates(idx, Value::Double(5)));
}

TEST(HashIndexScanTest, WritesAppendPostingsInOrder) {
  Catalog catalog;
  Table base("t", Schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}}));
  for (int64_t r = 0; r < 2500; ++r) {
    base.AppendRow({r % 23 == 0 ? Value::Null() : Value::Int(r % 41),
                    Value::Int(r)});
  }
  ASSERT_TRUE(catalog.AddTable(std::move(base)).ok());
  ASSERT_TRUE(catalog.AnalyzeTable("t").ok());
  ASSERT_TRUE(catalog.CreateIndex("t", "k").ok());
  const Table* t = catalog.GetTable("t");
  const HashIndex& idx = *catalog.FindIndex("t", 0);
  txn::WriteManager wm(&catalog);

  Postings model = ScanPostings(t->Snapshot(), 0);
  ExpectPostings(idx, model, "bulk build");

  // INSERT: each new rid is appended under its key, existing or new.
  txn::WriteStatement ins;
  ins.op = txn::WriteOp::kInsert;
  ins.table = "t";
  for (int64_t i = 0; i < 30; ++i) {
    ins.rows.push_back(
        {i % 10 == 0 ? Value::Null() : Value::Int(i % 4 == 0 ? 1000 + i : i),
         Value::Int(-i)});
  }
  const int64_t first_new = t->num_rows();
  ASSERT_TRUE(wm.Apply(ins).ok());
  for (size_t i = 0; i < ins.rows.size(); ++i) {
    model[ins.rows[i][0]].push_back(first_new + static_cast<int64_t>(i));
  }
  ExpectPostings(idx, model, "after INSERT");
  ExpectEveryLiveRowFound(idx, t->Snapshot());

  // UPDATE of the indexed column: each updated rid gains a posting under
  // its new key; the old posting stays behind (superset).
  ResolvedPredicate small_v{1, PredKind::kLt, Value::Int(40), {}, {}};
  txn::WriteStatement rekey;
  rekey.op = txn::WriteOp::kUpdate;
  rekey.table = "t";
  rekey.sets.push_back(txn::SetClause{0, Value::Int(7), /*is_delta=*/false});
  rekey.where.push_back(small_v);
  {
    const TableSnapshot before = t->Snapshot();
    for (int64_t rid = 0; rid < before.num_rows(); ++rid) {
      if (before.alive(rid) && EvalPredicate(small_v, before.row(rid))) {
        model[Value::Int(7)].push_back(rid);
      }
    }
  }
  ASSERT_TRUE(wm.Apply(rekey).ok());
  ExpectPostings(idx, model, "after UPDATE of k");
  ExpectEveryLiveRowFound(idx, t->Snapshot());

  // UPDATE of another column and DELETE leave the postings alone.
  txn::WriteStatement bump;
  bump.op = txn::WriteOp::kUpdate;
  bump.table = "t";
  bump.sets.push_back(txn::SetClause{1, Value::Int(1), /*is_delta=*/true});
  ASSERT_TRUE(wm.Apply(bump).ok());
  txn::WriteStatement del;
  del.op = txn::WriteOp::kDelete;
  del.table = "t";
  del.where.push_back({0, PredKind::kEq, Value::Int(3), {}, {}});
  ASSERT_TRUE(wm.Apply(del).ok());
  ExpectPostings(idx, model, "after UPDATE of v and DELETE");
  ExpectEveryLiveRowFound(idx, t->Snapshot());
}

// ------------------------------------------------------------- Statistics.

Table NumericTable(int64_t n) {
  Table t("nums", Schema({{"v", ValueType::kInt}}));
  for (int64_t i = 0; i < n; ++i) t.AppendRow({Value::Int(i % 100)});
  return t;
}

TEST(StatisticsTest, RowCountAndNdv) {
  TableStats s = CollectTableStats(NumericTable(500));
  EXPECT_EQ(500, s.row_count);
  EXPECT_EQ(100, s.column(0).num_distinct);
  EXPECT_EQ(0, s.column(0).null_count);
  EXPECT_EQ(Value::Int(0), *s.column(0).min);
  EXPECT_EQ(Value::Int(99), *s.column(0).max);
}

TEST(StatisticsTest, NullsCounted) {
  Table t("t", Schema({{"v", ValueType::kInt}}));
  t.AppendRow({Value::Null()});
  t.AppendRow({Value::Int(1)});
  t.AppendRow({Value::Null()});
  TableStats s = CollectTableStats(t);
  EXPECT_EQ(2, s.column(0).null_count);
  EXPECT_EQ(1, s.column(0).num_distinct);
}

TEST(StatisticsTest, StringColumnsGetNoHistogram) {
  Table t("t", Schema({{"s", ValueType::kString}}));
  t.AppendRow({Value::String("a")});
  TableStats s = CollectTableStats(t);
  EXPECT_TRUE(s.column(0).histogram.empty());
}

TEST(StatisticsTest, EmptyTable) {
  Table t("t", Schema({{"v", ValueType::kInt}}));
  TableStats s = CollectTableStats(t);
  EXPECT_EQ(0, s.row_count);
  EXPECT_FALSE(s.column(0).min.has_value());
  EXPECT_TRUE(s.column(0).histogram.empty());
}

TEST(HistogramTest, UniformFractionLeq) {
  TableStats s = CollectTableStats(NumericTable(10000), 32);
  const EquiDepthHistogram& h = s.column(0).histogram;
  ASSERT_FALSE(h.empty());
  EXPECT_NEAR(0.50, h.FractionLeq(49.5), 0.05);
  EXPECT_NEAR(0.25, h.FractionLeq(24.5), 0.05);
  EXPECT_DOUBLE_EQ(1.0, h.FractionLeq(99));
  EXPECT_DOUBLE_EQ(0.0, h.FractionLeq(-1));
}

TEST(HistogramTest, FractionBetweenBounds) {
  TableStats s = CollectTableStats(NumericTable(10000), 32);
  const EquiDepthHistogram& h = s.column(0).histogram;
  EXPECT_NEAR(0.30, h.FractionBetween(10, 39.5), 0.06);
  EXPECT_DOUBLE_EQ(0.0, h.FractionBetween(50, 40));  // Inverted range.
  EXPECT_DOUBLE_EQ(1.0, h.FractionBetween(-10, 1000));
}

// Property: FractionLeq is monotone non-decreasing for any data
// distribution (parameterized over seeds producing different skews).
class HistogramPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramPropertyTest, FractionLeqMonotone) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Table t("t", Schema({{"v", ValueType::kDouble}}));
  for (int i = 0; i < 3000; ++i) {
    // Skewed: square of a uniform.
    const double u = rng.UniformDouble();
    t.AppendRow({Value::Double(u * u * 1000)});
  }
  TableStats s = CollectTableStats(t, 16 + GetParam() % 17);
  const EquiDepthHistogram& h = s.column(0).histogram;
  double prev = -1;
  for (double x = -10; x <= 1010; x += 7.3) {
    const double f = h.FractionLeq(x);
    EXPECT_GE(f, prev - 1e-12) << "at x=" << x;
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST_P(HistogramPropertyTest, BucketsSumToTotal) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 1);
  Table t("t", Schema({{"v", ValueType::kInt}}));
  const int n = 100 + GetParam() * 37;
  for (int i = 0; i < n; ++i) {
    t.AppendRow({Value::Int(rng.UniformInt(0, 50))});
  }
  TableStats s = CollectTableStats(t, 8);
  const EquiDepthHistogram& h = s.column(0).histogram;
  int64_t sum = 0;
  for (int64_t c : h.counts) sum += c;
  EXPECT_EQ(n, sum);
  EXPECT_EQ(n, h.total_rows);
  // Bounds are sorted.
  for (size_t i = 1; i < h.bounds.size(); ++i) {
    EXPECT_LE(h.bounds[i - 1], h.bounds[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPropertyTest,
                         ::testing::Range(0, 12));

// ------------------------------------------------------- Sampled stats.

TEST(SampledStatisticsTest, RowCountStaysExact) {
  Table t = NumericTable(5000);
  TableStats s = CollectTableStatsSampled(t, 0.1, /*seed=*/3);
  EXPECT_EQ(5000, s.row_count);
}

TEST(SampledStatisticsTest, NdvEstimateInRightBallpark) {
  // 100 distinct values, each ~50 times: repeats dominate the sample, so
  // GEE should land near the truth.
  Table t = NumericTable(5000);
  TableStats s = CollectTableStatsSampled(t, 0.2, /*seed=*/3);
  EXPECT_GE(s.column(0).num_distinct, 60);
  EXPECT_LE(s.column(0).num_distinct, 220);
}

TEST(SampledStatisticsTest, UniqueColumnExtrapolates) {
  Table t("t", Schema({{"v", ValueType::kInt}}));
  for (int64_t i = 0; i < 4000; ++i) t.AppendRow({Value::Int(i)});
  // Every sampled value is a singleton: GEE scales by sqrt(1/q).
  TableStats s = CollectTableStatsSampled(t, 0.1, /*seed=*/5);
  EXPECT_GT(s.column(0).num_distinct, 800);
  EXPECT_LE(s.column(0).num_distinct, 4000);
}

TEST(SampledStatisticsTest, HistogramStillUsable) {
  Table t = NumericTable(10000);
  TableStats s = CollectTableStatsSampled(t, 0.2, /*seed=*/7);
  ASSERT_FALSE(s.column(0).histogram.empty());
  EXPECT_NEAR(0.5, s.column(0).histogram.FractionLeq(49.5), 0.1);
}

TEST(SampledStatisticsTest, DeterministicPerSeed) {
  Table t = NumericTable(3000);
  TableStats a = CollectTableStatsSampled(t, 0.1, 11);
  TableStats b = CollectTableStatsSampled(t, 0.1, 11);
  EXPECT_EQ(a.column(0).num_distinct, b.column(0).num_distinct);
}

// ---------------------------------------------------------------- Catalog.

TEST(CatalogTest, AddAndGet) {
  Catalog c;
  ASSERT_TRUE(c.AddTable(Table("t", TwoColSchema())).ok());
  EXPECT_NE(nullptr, c.GetTable("t"));
  EXPECT_EQ(nullptr, c.GetTable("nope"));
  EXPECT_EQ(std::vector<std::string>{"t"}, c.TableNames());
}

TEST(CatalogTest, DuplicateTableRejected) {
  Catalog c;
  ASSERT_TRUE(c.AddTable(Table("t", TwoColSchema())).ok());
  const Status s = c.AddTable(Table("t", TwoColSchema()));
  EXPECT_EQ(StatusCode::kAlreadyExists, s.code());
}

TEST(CatalogTest, AnalyzeProducesStats) {
  Catalog c;
  Table t("t", TwoColSchema());
  t.AppendRow({Value::Int(1), Value::String("x")});
  ASSERT_TRUE(c.AddTable(std::move(t)).ok());
  EXPECT_EQ(nullptr, c.GetStats("t"));
  ASSERT_TRUE(c.AnalyzeTable("t").ok());
  ASSERT_NE(nullptr, c.GetStats("t"));
  EXPECT_EQ(1, c.GetStats("t")->row_count);
}

TEST(CatalogTest, AnalyzeMissingTableFails) {
  Catalog c;
  EXPECT_EQ(StatusCode::kNotFound, c.AnalyzeTable("ghost").code());
}

TEST(CatalogTest, CreateIndexIdempotent) {
  Catalog c;
  Table t("t", TwoColSchema());
  t.AppendRow({Value::Int(1), Value::String("x")});
  ASSERT_TRUE(c.AddTable(std::move(t)).ok());
  ASSERT_TRUE(c.CreateIndex("t", "a").ok());
  ASSERT_TRUE(c.CreateIndex("t", "a").ok());  // No-op, still OK.
  EXPECT_NE(nullptr, c.FindIndex("t", 0));
  EXPECT_EQ(nullptr, c.FindIndex("t", 1));
}

TEST(CatalogTest, AnalyzeSampled) {
  Catalog c;
  ASSERT_TRUE(c.AddTable(NumericTable(2000)).ok());
  ASSERT_TRUE(c.AnalyzeTableSampled("nums", 0.1).ok());
  ASSERT_NE(nullptr, c.GetStats("nums"));
  EXPECT_EQ(2000, c.GetStats("nums")->row_count);
  EXPECT_EQ(StatusCode::kNotFound,
            c.AnalyzeTableSampled("ghost", 0.1).code());
}

TEST(CatalogTest, CreateIndexErrors) {
  Catalog c;
  EXPECT_EQ(StatusCode::kNotFound, c.CreateIndex("ghost", "a").code());
  ASSERT_TRUE(c.AddTable(Table("t", TwoColSchema())).ok());
  EXPECT_EQ(StatusCode::kNotFound, c.CreateIndex("t", "ghost_col").code());
}

}  // namespace
}  // namespace popdb
