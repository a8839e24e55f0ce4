// Write-path tests: DML binding through the SQL front end, incremental
// statistics maintenance (StatsDelta fold semantics), WriteManager apply
// semantics (row effects, index maintenance, threshold-gated stats
// folds), snapshot consistency under a concurrent writer/reader hammer, a
// dop-1-vs-dop-4 differential consistency leg under write churn, the
// index publish order (postings before rows) under a concurrent reader,
// and the plan-cache stats-version gating regression (a stats fold between
// signature lookup and checkpoint placement must not serve or install a
// stale placement).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "opt/plan_cache.h"
#include "runtime/query_service.h"
#include "sql/binder.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "txn/stats_delta.h"
#include "txn/write_manager.h"

namespace popdb {
namespace {

using ::popdb::testing::BuildToyCatalog;

// ------------------------------------------------------------ DML binding

class BinderDmlTest : public ::testing::Test {
 protected:
  void SetUp() override { BuildToyCatalog(&catalog_); }

  sql::BoundStatement Bind(const std::string& text,
                           std::vector<Value> params = {}) {
    Result<sql::BoundStatement> r =
        sql::ParseSqlStatement(catalog_, text, std::move(params));
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().message();
    return std::move(r).TakeValue();
  }

  Status BindError(const std::string& text, std::vector<Value> params = {}) {
    Result<sql::BoundStatement> r =
        sql::ParseSqlStatement(catalog_, text, std::move(params));
    EXPECT_FALSE(r.ok()) << text << " bound unexpectedly";
    return r.ok() ? Status::Ok() : r.status();
  }

  Catalog catalog_;
};

TEST_F(BinderDmlTest, InsertFullRowInSchemaOrder) {
  sql::BoundStatement b =
      Bind("INSERT INTO dept VALUES (100, 'ops', 3), (101, 'qa', 4)");
  ASSERT_TRUE(b.is_write);
  EXPECT_EQ(txn::WriteOp::kInsert, b.write.op);
  EXPECT_EQ("dept", b.write.table);
  ASSERT_EQ(2u, b.write.rows.size());
  ASSERT_EQ(3u, b.write.rows[0].size());
  EXPECT_EQ(100, b.write.rows[0][0].AsInt());
  EXPECT_EQ(ValueType::kString, b.write.rows[0][1].type());
  EXPECT_EQ(4, b.write.rows[1][2].AsInt());
}

TEST_F(BinderDmlTest, InsertColumnListLeavesUnlistedColumnsNull) {
  sql::BoundStatement b = Bind("INSERT INTO dept (d_region, d_id) VALUES (7, 42)");
  ASSERT_EQ(1u, b.write.rows.size());
  const Row& row = b.write.rows[0];
  ASSERT_EQ(3u, row.size());
  EXPECT_EQ(42, row[0].AsInt());   // d_id bound through the column list.
  EXPECT_TRUE(row[1].is_null());   // d_name unlisted.
  EXPECT_EQ(7, row[2].AsInt());
}

TEST_F(BinderDmlTest, InsertCoercesIntLiteralIntoDoubleColumn) {
  // sale.s_amount is a double column; a bare integer literal must land as
  // a double so the executor never sees mixed column types.
  sql::BoundStatement b = Bind("INSERT INTO sale VALUES (1, 5, 2020)");
  ASSERT_EQ(1u, b.write.rows.size());
  EXPECT_EQ(ValueType::kDouble, b.write.rows[0][1].type());
  EXPECT_DOUBLE_EQ(5.0, b.write.rows[0][1].AsDouble());
}

TEST_F(BinderDmlTest, InsertErrors) {
  EXPECT_FALSE(BindError("INSERT INTO nosuch VALUES (1)").ok());
  EXPECT_FALSE(BindError("INSERT INTO dept VALUES (1, 'x')").ok());
  EXPECT_FALSE(
      BindError("INSERT INTO dept (d_id, d_bogus) VALUES (1, 2)").ok());
  EXPECT_FALSE(
      BindError("INSERT INTO dept (d_id, d_id) VALUES (1, 2)").ok());
}

TEST_F(BinderDmlTest, UpdateBindsSetAndWhereToSchemaPositions) {
  sql::BoundStatement b =
      Bind("UPDATE sale SET s_amount = 9.5 WHERE s_year = 2020");
  ASSERT_TRUE(b.is_write);
  EXPECT_EQ(txn::WriteOp::kUpdate, b.write.op);
  ASSERT_EQ(1u, b.write.sets.size());
  EXPECT_EQ(1, b.write.sets[0].column);
  EXPECT_FALSE(b.write.sets[0].is_delta);
  ASSERT_EQ(1u, b.write.where.size());
  EXPECT_EQ(2, b.write.where[0].pos);
  EXPECT_EQ(2020, b.write.where[0].operand.AsInt());
}

TEST_F(BinderDmlTest, UpdateDeltaFormBindsSignedAdjustment) {
  sql::BoundStatement plus =
      Bind("UPDATE sale SET s_amount = s_amount + 10 WHERE s_emp = 3");
  ASSERT_EQ(1u, plus.write.sets.size());
  EXPECT_TRUE(plus.write.sets[0].is_delta);
  EXPECT_DOUBLE_EQ(10.0, plus.write.sets[0].value.AsDouble());

  sql::BoundStatement minus =
      Bind("UPDATE sale SET s_amount = s_amount - 4 WHERE s_emp = 3");
  EXPECT_TRUE(minus.write.sets[0].is_delta);
  EXPECT_DOUBLE_EQ(-4.0, minus.write.sets[0].value.AsDouble());
}

TEST_F(BinderDmlTest, UpdateDeltaAgainstOtherColumnIsRejected) {
  // Only the TPC-C shape `col = col +/- literal` is supported.
  EXPECT_FALSE(BindError("UPDATE sale SET s_amount = s_year + 1").ok());
}

TEST_F(BinderDmlTest, DeleteBindsWhereOrMatchesAll) {
  sql::BoundStatement some = Bind("DELETE FROM emp WHERE e_age > 60");
  EXPECT_EQ(txn::WriteOp::kDelete, some.write.op);
  ASSERT_EQ(1u, some.write.where.size());
  EXPECT_EQ(2, some.write.where[0].pos);

  sql::BoundStatement all = Bind("DELETE FROM emp");
  EXPECT_TRUE(all.write.where.empty());
}

TEST_F(BinderDmlTest, ColumnToColumnWhereIsRejected) {
  // DML WHERE clauses are single-table restrictions; a join-shaped
  // conjunct has no meaning here.
  EXPECT_FALSE(BindError("DELETE FROM sale WHERE s_emp = s_year").ok());
}

TEST_F(BinderDmlTest, ParamsBindInTextualOrder) {
  sql::BoundStatement b =
      Bind("UPDATE sale SET s_amount = ? WHERE s_year = ?",
           {Value::Double(2.5), Value::Int(2020)});
  EXPECT_DOUBLE_EQ(2.5, b.write.sets[0].value.AsDouble());
  EXPECT_EQ(2020, b.write.where[0].operand.AsInt());

  sql::BoundStatement ins =
      Bind("INSERT INTO dept VALUES (?, ?, ?)",
           {Value::Int(9), Value::String("x"), Value::Int(1)});
  EXPECT_EQ(9, ins.write.rows[0][0].AsInt());
}

TEST_F(BinderDmlTest, MissingParamsFail) {
  const Status s = BindError("DELETE FROM emp WHERE e_id = ?");
  EXPECT_NE(std::string::npos, s.message().find("parameter"));
}

TEST_F(BinderDmlTest, SelectStillBindsAsRead) {
  sql::BoundStatement b = Bind("SELECT COUNT(*) FROM dept");
  EXPECT_FALSE(b.is_write);
}

// ------------------------------------------------- StatsDelta accounting

TEST(StatsDeltaTest, ChurnCountsEveryMutationKind) {
  txn::StatsDelta delta(2, {});
  delta.RecordInsert({Value::Int(1), Value::Int(2)});
  delta.RecordInsert({Value::Int(3), Value::Int(4)});
  delta.RecordDelete({Value::Int(1), Value::Int(2)});
  delta.RecordUpdate({Value::Int(3), Value::Int(4)},
                     {Value::Int(3), Value::Int(9)});
  EXPECT_EQ(4, delta.churn());
}

TEST(StatsDeltaTest, ShouldFoldGatesOnFloorAndFraction) {
  txn::StatsDeltaConfig config;
  config.fold_threshold = 0.10;
  config.min_churn_rows = 4;
  txn::StatsDelta delta(1, config);

  TableStats base;
  base.row_count = 100;

  // Below the absolute floor: never fold, regardless of the fraction.
  delta.RecordInsert({Value::Int(1)});
  delta.RecordInsert({Value::Int(2)});
  EXPECT_FALSE(delta.ShouldFold(&base, 100));

  // Floor reached but below 10% of the described 100 rows.
  delta.RecordInsert({Value::Int(3)});
  delta.RecordInsert({Value::Int(4)});
  EXPECT_FALSE(delta.ShouldFold(&base, 100));

  // 10 churned rows >= 10% of 100.
  for (int i = 0; i < 6; ++i) delta.RecordInsert({Value::Int(10 + i)});
  EXPECT_TRUE(delta.ShouldFold(&base, 100));

  // Never-analyzed table: the threshold is taken against live rows.
  txn::StatsDelta fresh(1, config);
  for (int i = 0; i < 5; ++i) fresh.RecordInsert({Value::Int(i)});
  EXPECT_TRUE(fresh.ShouldFold(nullptr, 8));
  EXPECT_FALSE(fresh.ShouldFold(nullptr, 1000));
}

TEST(StatsDeltaTest, FoldAdjustsRowCountAndWidensMinMax) {
  Table t("t", Schema({{"a", ValueType::kInt}}));
  for (int i = 0; i < 100; ++i) t.AppendRow({Value::Int(i)});
  const TableStats base = CollectTableStats(t, /*histogram_buckets=*/8);
  ASSERT_EQ(100, base.row_count);

  txn::StatsDelta delta(1, {});
  for (int i = 0; i < 10; ++i) {
    const Row row = {Value::Int(500 + i)};  // Outside the base domain.
    t.AppendRow(row);
    delta.RecordInsert(row);
  }
  const TableStats folded = delta.Fold(t, &base);
  EXPECT_EQ(110, folded.row_count);
  ASSERT_TRUE(folded.column(0).max.has_value());
  EXPECT_EQ(509, folded.column(0).max->AsInt());
  ASSERT_TRUE(folded.column(0).min.has_value());
  EXPECT_EQ(0, folded.column(0).min->AsInt());
  // Folding resets the accumulators for the next cycle.
  EXPECT_EQ(0, delta.churn());
}

// -------------------------------------------------- WriteManager::Apply

class WriteManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table t("t", Schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}}));
    for (int i = 0; i < 64; ++i) {
      t.AppendRow({Value::Int(i % 8), Value::Int(i)});
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(t)).ok());
    ASSERT_TRUE(catalog_.AnalyzeTable("t").ok());
    ASSERT_TRUE(catalog_.CreateIndex("t", "k").ok());
  }

  static txn::WriteStatement Insert(std::vector<Row> rows) {
    txn::WriteStatement s;
    s.op = txn::WriteOp::kInsert;
    s.table = "t";
    s.rows = std::move(rows);
    return s;
  }

  static ResolvedPredicate KeyEq(int64_t k) {
    ResolvedPredicate p;
    p.pos = 0;
    p.kind = PredKind::kEq;
    p.operand = Value::Int(k);
    return p;
  }

  Catalog catalog_;
};

TEST_F(WriteManagerTest, InsertAppendsRowsAndMaintainsIndex) {
  txn::WriteManager wm(&catalog_);
  const Table* t = catalog_.GetTable("t");
  const int64_t before = t->live_rows();

  Result<txn::WriteResult> r =
      wm.Apply(Insert({{Value::Int(77), Value::Int(1)},
                       {Value::Int(77), Value::Int(2)}}));
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(2, r.value().affected_rows);
  EXPECT_EQ(before + 2, t->live_rows());

  // The index must find both new rows (postings are a superset; re-check
  // the actual rows like the executor does).
  const HashIndex* idx = catalog_.FindIndex("t", 0);
  ASSERT_NE(nullptr, idx);
  const TableSnapshot snap = t->Snapshot();
  std::vector<int64_t> scratch;
  int found = 0;
  for (const int64_t rid : idx->Probe(Value::Int(77), &scratch)) {
    if (snap.alive(rid) && snap.Cell(rid, 0).AsInt() == 77) ++found;
  }
  EXPECT_EQ(2, found);
}

TEST_F(WriteManagerTest, UpdateAppliesDeltaAndReindexesNewKeys) {
  txn::WriteManager wm(&catalog_);
  const Table* t = catalog_.GetTable("t");

  // Delta form: v = v + 1000 on the eight k == 3 rows.
  txn::WriteStatement upd;
  upd.op = txn::WriteOp::kUpdate;
  upd.table = "t";
  upd.sets.push_back(txn::SetClause{1, Value::Int(1000), /*is_delta=*/true});
  upd.where.push_back(KeyEq(3));
  Result<txn::WriteResult> r = wm.Apply(upd);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(8, r.value().affected_rows);
  {
    const TableSnapshot snap = t->Snapshot();
    int bumped = 0;
    for (int64_t rid = 0; rid < snap.num_rows(); ++rid) {
      if (snap.alive(rid) && snap.Cell(rid, 0).AsInt() == 3) {
        EXPECT_GE(snap.Cell(rid, 1).AsInt(), 1000);
        ++bumped;
      }
    }
    EXPECT_EQ(8, bumped);
  }

  // Key rewrite: the index must learn the new key value.
  txn::WriteStatement rekey;
  rekey.op = txn::WriteOp::kUpdate;
  rekey.table = "t";
  rekey.sets.push_back(txn::SetClause{0, Value::Int(99), /*is_delta=*/false});
  rekey.where.push_back(KeyEq(3));
  ASSERT_TRUE(wm.Apply(rekey).ok());
  const HashIndex* idx = catalog_.FindIndex("t", 0);
  const TableSnapshot snap = t->Snapshot();
  std::vector<int64_t> scratch;
  int found = 0;
  for (const int64_t rid : idx->Probe(Value::Int(99), &scratch)) {
    if (snap.alive(rid) && snap.Cell(rid, 0).AsInt() == 99) ++found;
  }
  EXPECT_EQ(8, found);
}

TEST_F(WriteManagerTest, DeleteTombstonesMatchingRows) {
  txn::WriteManager wm(&catalog_);
  const Table* t = catalog_.GetTable("t");
  const int64_t before = t->live_rows();

  txn::WriteStatement del;
  del.op = txn::WriteOp::kDelete;
  del.table = "t";
  del.where.push_back(KeyEq(5));
  Result<txn::WriteResult> r = wm.Apply(del);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(8, r.value().affected_rows);
  EXPECT_EQ(before - 8, t->live_rows());

  // Idempotent: the rows are gone, a re-run matches nothing.
  EXPECT_EQ(0, wm.Apply(del).value().affected_rows);
}

TEST_F(WriteManagerTest, NullOperandWhereAffectsNoRows) {
  // SQL's UNKNOWN: `k <> NULL` and friends match no row, so the DELETE and
  // UPDATE below change nothing (NULL marker bindings included).
  txn::WriteManager wm(&catalog_);
  const Table* t = catalog_.GetTable("t");
  const int64_t before = t->live_rows();
  const std::vector<std::pair<std::string, std::vector<Value>>> stmts = {
      {"DELETE FROM t WHERE k <> NULL", {}},
      {"DELETE FROM t WHERE k > ?", {Value::Null()}},
      {"DELETE FROM t WHERE k BETWEEN NULL AND 9", {}},
      {"UPDATE t SET v = 0 WHERE k >= NULL", {}},
      {"UPDATE t SET v = v + 1 WHERE k <> ?", {Value::Null()}},
  };
  for (const auto& [text, params] : stmts) {
    Result<sql::BoundStatement> b =
        sql::ParseSqlStatement(catalog_, text, params);
    ASSERT_TRUE(b.ok()) << text << ": " << b.status().message();
    Result<txn::WriteResult> r = wm.Apply(b.value().write);
    ASSERT_TRUE(r.ok()) << text << ": " << r.status().message();
    EXPECT_EQ(0, r.value().affected_rows) << text;
  }
  EXPECT_EQ(before, t->live_rows());
  const TableSnapshot snap = t->Snapshot();
  for (int64_t rid = 0; rid < snap.num_rows(); ++rid) {
    EXPECT_EQ(rid, snap.Cell(rid, 1).AsInt());
  }
}

TEST_F(WriteManagerTest, UnknownTableFails) {
  txn::WriteManager wm(&catalog_);
  txn::WriteStatement s;
  s.op = txn::WriteOp::kInsert;
  s.table = "nosuch";
  s.rows.push_back({Value::Int(1)});
  EXPECT_FALSE(wm.Apply(s).ok());
}

TEST_F(WriteManagerTest, ChurnPastThresholdFoldsStatsAndBumpsVersion) {
  txn::WriteManager::Config config;
  config.stats_fold_threshold = 0.10;
  config.stats_min_churn_rows = 4;
  txn::WriteManager wm(&catalog_, config);

  const int64_t v0 = catalog_.stats_version();
  // 64 analyzed rows: threshold = max(4, 6.4) = 7 churned rows.
  Result<txn::WriteResult> small = wm.Apply(Insert(
      {{Value::Int(1), Value::Int(0)}, {Value::Int(1), Value::Int(0)}}));
  ASSERT_TRUE(small.ok());
  EXPECT_FALSE(small.value().stats_folded);
  EXPECT_EQ(v0, catalog_.stats_version());

  std::vector<Row> bulk;
  for (int i = 0; i < 6; ++i) bulk.push_back({Value::Int(2), Value::Int(0)});
  Result<txn::WriteResult> big = wm.Apply(Insert(std::move(bulk)));
  ASSERT_TRUE(big.ok());
  EXPECT_TRUE(big.value().stats_folded);
  EXPECT_GT(catalog_.stats_version(), v0);
  EXPECT_EQ(big.value().stats_version, catalog_.stats_version());
  EXPECT_EQ(1, wm.stats_folds());
  // The folded statistics describe the post-write table.
  const TableStats* stats = catalog_.GetStats("t");
  ASSERT_NE(nullptr, stats);
  EXPECT_EQ(72, stats->row_count);
}

// ------------------------------------- snapshot consistency under writes

/// Writers publish only invariant-preserving statements; readers pin
/// snapshots and check the invariants. Any torn statement (a reader seeing
/// half of a multi-row publish) breaks one of them.
TEST(SnapshotConsistencyTest, ConcurrentWriterReaderHammer) {
  Catalog catalog;
  // pairs: every INSERT publishes two rows summing to zero.
  ASSERT_TRUE(catalog
                  .AddTable(Table("pairs", Schema({{"m", ValueType::kInt},
                                                   {"s", ValueType::kInt}})))
                  .ok());
  // acct: every UPDATE bumps ALL rows in one publish, so a snapshot must
  // always see every balance equal.
  Table acct("acct", Schema({{"id", ValueType::kInt},
                             {"bal", ValueType::kInt}}));
  for (int i = 0; i < 128; ++i) {
    acct.AppendRow({Value::Int(i), Value::Int(0)});
  }
  ASSERT_TRUE(catalog.AddTable(std::move(acct)).ok());
  catalog.AnalyzeAll();

  txn::WriteManager wm(&catalog);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread pair_writer([&] {
    for (int i = 0; i < 1500; ++i) {
      txn::WriteStatement s;
      s.op = txn::WriteOp::kInsert;
      s.table = "pairs";
      s.rows.push_back({Value::Int(i), Value::Int(i + 1)});
      s.rows.push_back({Value::Int(i), Value::Int(-(i + 1))});
      if (!wm.Apply(s).ok()) failures.fetch_add(1);
      // Periodically delete a prior pair atomically (keeps both
      // invariants: count stays even, sum stays zero).
      if (i % 7 == 3) {
        txn::WriteStatement del;
        del.op = txn::WriteOp::kDelete;
        del.table = "pairs";
        ResolvedPredicate p;
        p.pos = 0;
        p.kind = PredKind::kEq;
        p.operand = Value::Int(i - 2);
        del.where.push_back(p);
        if (!wm.Apply(del).ok()) failures.fetch_add(1);
      }
    }
    stop.store(true);
  });

  std::thread acct_writer([&] {
    int tick = 0;
    while (!stop.load()) {
      txn::WriteStatement s;
      s.op = txn::WriteOp::kUpdate;
      s.table = "acct";
      s.sets.push_back(txn::SetClause{1, Value::Int(1), /*is_delta=*/true});
      if (!wm.Apply(s).ok()) failures.fetch_add(1);
      ++tick;
    }
    (void)tick;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      const Table* pairs = catalog.GetTable("pairs");
      const Table* accts = catalog.GetTable("acct");
      while (!stop.load()) {
        {
          const TableSnapshot snap = pairs->Snapshot();
          int64_t live = 0, sum = 0;
          for (int64_t rid = 0; rid < snap.num_rows(); ++rid) {
            if (!snap.alive(rid)) continue;
            ++live;
            sum += snap.Cell(rid, 1).AsInt();
          }
          if (sum != 0 || live % 2 != 0) failures.fetch_add(1);
        }
        {
          const TableSnapshot snap = accts->Snapshot();
          int64_t first = -1;
          for (int64_t rid = 0; rid < snap.num_rows(); ++rid) {
            if (!snap.alive(rid)) continue;
            const int64_t bal = snap.Cell(rid, 1).AsInt();
            if (first < 0) first = bal;
            if (bal != first) {
              failures.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }

  pair_writer.join();
  acct_writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(0, failures.load());
}

/// Index postings are inserted before the rows they point to are
/// published: a reader whose pinned snapshot contains a freshly inserted
/// row must find that row through the index, or an index NLJN would miss a
/// row of its own snapshot. The reader probes for the newest row of each
/// snapshot it pins while single-row INSERTs with fresh keys publish.
TEST(SnapshotConsistencyTest, IndexFindsNewestRowOfEverySnapshot) {
  Catalog catalog;
  Table t("t", Schema({{"k", ValueType::kInt}}));
  t.AppendRow({Value::Int(0)});
  ASSERT_TRUE(catalog.AddTable(std::move(t)).ok());
  ASSERT_TRUE(catalog.AnalyzeTable("t").ok());
  ASSERT_TRUE(catalog.CreateIndex("t", "k").ok());
  txn::WriteManager wm(&catalog);
  constexpr int kInserts = 20000;

  std::atomic<bool> done{false};
  std::atomic<int64_t> probes{0};
  std::atomic<int64_t> misses{0};
  std::thread reader([&] {
    const Table* table = catalog.GetTable("t");
    const HashIndex* idx = catalog.FindIndex("t", 0);
    std::vector<int64_t> scratch;
    while (!done.load(std::memory_order_acquire)) {
      const TableSnapshot snap = table->Snapshot();
      const int64_t rid = snap.num_rows() - 1;
      const std::span<const int64_t> candidates =
          idx->Probe(snap.Cell(rid, 0), &scratch);
      if (std::find(candidates.begin(), candidates.end(), rid) ==
          candidates.end()) {
        misses.fetch_add(1, std::memory_order_relaxed);
      }
      probes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  int failed = 0;
  for (int i = 1; i <= kInserts; ++i) {
    txn::WriteStatement s;
    s.op = txn::WriteOp::kInsert;
    s.table = "t";
    s.rows.push_back({Value::Int(i)});
    if (!wm.Apply(s).ok()) ++failed;
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(0, failed);
  EXPECT_GT(probes.load(), 0);
  EXPECT_EQ(0, misses.load()) << "of " << probes.load() << " probes";
}

/// A scalar aggregate runs through a QueryService while a writer churns
/// the scanned table with zero-sum pairs. Every result must see a
/// snapshot-consistent state: SUM == 0 and an even COUNT. A torn pair
/// breaks it immediately.
TEST(SnapshotConsistencyTest, ServiceSumUnderWritesSeesWholePairs) {
  Catalog catalog;
  Table big("big", Schema({{"g", ValueType::kInt}, {"v", ValueType::kInt}}));
  for (int i = 0; i < 3000; ++i) {
    big.AppendRow({Value::Int(i), Value::Int(i + 1)});
    big.AppendRow({Value::Int(i), Value::Int(-(i + 1))});
  }
  ASSERT_TRUE(catalog.AddTable(std::move(big)).ok());
  catalog.AnalyzeAll();

  ServiceConfig config;
  config.num_workers = 1;
  QueryService service(catalog, config);

  txn::WriteManager wm(&catalog);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; !stop.load() && i < 400; ++i) {
      txn::WriteStatement s;
      s.op = txn::WriteOp::kInsert;
      s.table = "big";
      s.rows.push_back({Value::Int(9000 + i), Value::Int(i + 1)});
      s.rows.push_back({Value::Int(9000 + i), Value::Int(-(i + 1))});
      if (!wm.Apply(s).ok()) failures.fetch_add(1);
    }
  });

  auto sum_query = [] {
    QuerySpec q("sum_big");
    const int b = q.AddTable("big");
    q.AddAgg(AggFunc::kSum, {b, 1});
    q.AddAgg(AggFunc::kCount);
    return q;
  };
  for (int round = 0; round < 50; ++round) {
    const QueryResult r = service.ExecuteSync(sum_query());
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    ASSERT_EQ(1u, r.rows.size());
    ASSERT_EQ(2u, r.rows[0].size());
    EXPECT_DOUBLE_EQ(0.0, r.rows[0][0].AsDouble())
        << "torn snapshot: non-zero SUM at round " << round;
    EXPECT_EQ(0, r.rows[0][1].AsInt() % 2)
        << "torn snapshot: odd COUNT at round " << round;
  }

  stop.store(true);
  writer.join();
  service.Shutdown();
  EXPECT_EQ(0, failures.load());
}

// --------------------------- plan cache vs. stats-version (satellite #6)

std::shared_ptr<PlanNode> ScanPlan() {
  auto scan = std::make_shared<PlanNode>();
  scan->kind = PlanOpKind::kTableScan;
  scan->set = TableSet{1};
  scan->table_id = 0;
  scan->table_name = "t";
  return scan;
}

TEST(PlanCacheStatsVersionTest, StaleStatsLookupEvictsAndIsCounted) {
  PlanCache cache;
  cache.Install("sig", ScanPlan(), /*external_epoch=*/0,
                /*catalog_version=*/1, /*feedback_digest=*/42, 0, 0.0, 0.0);

  // A write-path fold moved the catalog stats version: hard invalidation,
  // attributed to stale stats (not to an external epoch bump).
  EXPECT_EQ(PlanCacheOutcome::kMissEpoch,
            cache.Lookup("sig", 0, 2, 42, {}).outcome);
  EXPECT_EQ(0, cache.size());
  EXPECT_EQ(1, cache.stats().evictions_stale_stats);

  // An external epoch bump alone evicts too but is not a stale-stats
  // eviction.
  cache.Install("sig", ScanPlan(), 0, 2, 42, 0, 0.0, 0.0);
  EXPECT_EQ(PlanCacheOutcome::kMissEpoch,
            cache.Lookup("sig", 1, 2, 42, {}).outcome);
  EXPECT_EQ(2, cache.stats().evictions_invalid);
  EXPECT_EQ(1, cache.stats().evictions_stale_stats);
}

TEST(PlanCacheStatsVersionTest, PlacementFromMovedStatsVersionIsNotAttached) {
  // Regression for the lookup/placement race: a stats fold lands between
  // the signature lookup (which captured catalog version 1) and the
  // checkpoint-placement install. The placement was computed under the old
  // statistics; attaching it would let a later exact hit skip placement
  // with a stale placed plan.
  PlanCache cache;
  cache.Install("sig", ScanPlan(), /*external_epoch=*/0,
                /*catalog_version=*/1, /*feedback_digest=*/42, 0, 0.0, 0.0);
  cache.InstallPlacement("sig", ScanPlan(), /*external_epoch=*/0,
                         /*catalog_version=*/2, /*feedback_digest=*/42, {});

  PlanCache::LookupResult hit = cache.Lookup("sig", 0, 1, 42, {});
  ASSERT_EQ(PlanCacheOutcome::kHit, hit.outcome);
  EXPECT_EQ(nullptr, hit.placed_plan) << "stale placement was served";
  EXPECT_EQ(0, cache.stats().placement_installs);

  // The matching-version install attaches and is then served on the next
  // exact hit.
  cache.InstallPlacement("sig", ScanPlan(), 0, /*catalog_version=*/1, 42, {});
  PlanCache::LookupResult placed = cache.Lookup("sig", 0, 1, 42, {});
  ASSERT_EQ(PlanCacheOutcome::kHit, placed.outcome);
  EXPECT_NE(nullptr, placed.placed_plan);
  EXPECT_EQ(1, cache.stats().placement_installs);
  EXPECT_EQ(1, cache.stats().placement_hits);
}

}  // namespace
}  // namespace popdb
