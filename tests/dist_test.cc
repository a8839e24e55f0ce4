// Tests of the sharded scatter-gather subsystem (src/dist): range
// partitioning, subplan JSON round trips, distributed-vs-single-node
// result equivalence over real loopback shard servers, coordinator-level
// progressive re-optimization from per-shard CHECK violations, fan-out
// cancellation/deadlines, and shard death mid-query.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/span.h"
#include "core/explain.h"
#include "dist/coordinator.h"
#include "dist/observability.h"
#include "dist/partition.h"
#include "dist/plan_json.h"
#include "dist/shard.h"
#include "dist/split.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/metrics_registry.h"
#include "sql/binder.h"
#include "tests/test_util.h"

namespace popdb {
namespace {

/// Correlated orders/items pair (o_subclass determines o_class, so
/// conjunctive predicates on both are 10x overestimated under the
/// independence assumption) — the same trap that drives single-node POP
/// re-optimization, here scaled per shard.
void BuildDistCatalog(Catalog* catalog) {
  Rng rng(5);
  Table orders("orders", Schema({{"o_id", ValueType::kInt},
                                 {"o_class", ValueType::kInt},
                                 {"o_subclass", ValueType::kInt}}));
  for (int64_t i = 0; i < 4000; ++i) {
    const int64_t sub = rng.UniformInt(0, 199);
    orders.AppendRow({Value::Int(i), Value::Int(sub / 10), Value::Int(sub)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(orders)).ok());
  Table items("items", Schema({{"i_order", ValueType::kInt},
                               {"i_qty", ValueType::kInt}}));
  for (int64_t i = 0; i < 12000; ++i) {
    items.AppendRow({Value::Int(rng.UniformInt(0, 3999)),
                     Value::Int(rng.UniformInt(1, 50))});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(items)).ok());
  // Replicated dimension (not in the partition spec).
  Table clazz("clazz", Schema({{"c_id", ValueType::kInt},
                               {"c_name", ValueType::kString}}));
  for (int64_t i = 0; i < 20; ++i) {
    clazz.AppendRow({Value::Int(i), Value::String("class-" +
                                                  std::to_string(i))});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(clazz)).ok());
  catalog->AnalyzeAll();
}

dist::PartitionSpec DistSpec() {
  dist::PartitionSpec spec;
  spec.keys = {{"orders", 0}, {"items", 0}};
  return spec;
}

QuerySpec Parse(const Catalog& catalog, const std::string& sql) {
  Result<sql::BoundStatement> bound = sql::ParseSql(catalog, sql);
  EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
  return bound.value().query;
}

/// A `subplan` request for `sql`, planned on the full catalog.
std::string SubplanRequest(const Catalog& full, const std::string& sql) {
  const QuerySpec query = Parse(full, sql);
  ProgressiveExecutor exec(full, OptimizerConfig{}, PopConfig{});
  Result<OptimizedPlan> plan = exec.Plan(query);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("subplan");
  w.Key("query");
  dist::AppendQuerySpecJson(query, &w);
  w.Key("plan");
  EXPECT_TRUE(dist::AppendPlanJson(*plan.value().root, &w).ok());
  w.Key("batch_rows").Int(100);
  w.Key("trace_token").String("tok-sub-7");
  w.EndObject();
  return w.str();
}

/// Runs a subplan request to its query_done frame; returns the subplan's
/// query id and its query_done payload.
std::pair<int64_t, JsonValue> RunSubplan(net::Client* client,
                                         const std::string& request) {
  Result<int64_t> id = client->SubplanStart(request);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  if (!id.ok()) return {-1, JsonValue()};
  while (true) {
    Result<net::ShardEvent> event = client->SubplanNext();
    EXPECT_TRUE(event.ok()) << event.status().ToString();
    if (!event.ok()) return {id.value(), JsonValue()};
    if (event.value().kind == net::ShardEvent::Kind::kDone) {
      return {id.value(), event.value().payload};
    }
  }
}

class DistTest : public ::testing::Test {
 protected:
  void StartCluster(int num_shards, double stall_ms = 0.0) {
    if (!built_full_) {
      BuildDistCatalog(&full_);
      built_full_ = true;
    }
    spec_ = DistSpec();
    testing::LoopbackClusterOptions options;
    options.num_shards = num_shards;
    options.stall_ms = stall_ms;
    const Status started = cluster_.Start(full_, spec_, options);
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  Result<std::vector<Row>> RunDist(const std::string& sql,
                                   ExecutionStats* stats = nullptr,
                                   CancelToken* cancel = nullptr) {
    const QuerySpec query = Parse(full_, sql);
    EXPECT_TRUE(cluster_.coordinator->CanExecute(query)) << sql;
    CancelToken local_cancel;
    ExecutionStats local_stats;
    return cluster_.coordinator->Execute(
        query, cancel != nullptr ? cancel : &local_cancel,
        /*feedback=*/nullptr, stats != nullptr ? stats : &local_stats);
  }

  /// Single-node oracle: the same query through the progressive executor
  /// against the full catalog.
  std::vector<Row> RunLocal(const std::string& sql) {
    ProgressiveExecutor exec(full_, OptimizerConfig{}, PopConfig{});
    Result<std::vector<Row>> rows = exec.Execute(Parse(full_, sql));
    EXPECT_TRUE(rows.ok()) << sql << ": " << rows.status().ToString();
    return rows.ok() ? rows.value() : std::vector<Row>{};
  }

  Catalog full_;
  bool built_full_ = false;
  dist::PartitionSpec spec_;
  testing::LoopbackCluster cluster_;
};

// -------------------------------------------------------- partitioning

TEST(PartitionTest, RangesCoverDomainWithoutOverlap) {
  Catalog full;
  BuildDistCatalog(&full);
  Result<std::vector<dist::KeyRange>> ranges =
      dist::ComputeRanges(full, DistSpec(), 4);
  ASSERT_TRUE(ranges.ok());
  ASSERT_EQ(4u, ranges.value().size());
  EXPECT_EQ(0, ranges.value()[0].lo);
  for (size_t i = 1; i < ranges.value().size(); ++i) {
    EXPECT_EQ(ranges.value()[i - 1].hi, ranges.value()[i].lo);
  }
  EXPECT_EQ(4000, ranges.value().back().hi);  // max key 3999, half-open.
}

TEST(PartitionTest, ShardCatalogsPartitionFactsAndReplicateDims) {
  Catalog full;
  BuildDistCatalog(&full);
  const dist::PartitionSpec spec = DistSpec();
  Result<std::vector<dist::KeyRange>> ranges =
      dist::ComputeRanges(full, spec, 3);
  ASSERT_TRUE(ranges.ok());
  int64_t orders_total = 0;
  int64_t items_total = 0;
  for (int s = 0; s < 3; ++s) {
    Catalog shard;
    ASSERT_TRUE(
        dist::BuildShardCatalog(full, spec, ranges.value(), s, 32, &shard)
            .ok());
    orders_total += shard.GetTable("orders")->num_rows();
    items_total += shard.GetTable("items")->num_rows();
    // Replicated dimension is complete on every shard.
    EXPECT_EQ(20, shard.GetTable("clazz")->num_rows());
    // Shard statistics describe the shard, not the global table.
    EXPECT_LT(shard.GetTable("orders")->num_rows(), 4000);
  }
  EXPECT_EQ(4000, orders_total);
  EXPECT_EQ(12000, items_total);
}

TEST(PartitionTest, ComputeRangesRejectsBadInput) {
  Catalog full;
  BuildDistCatalog(&full);
  EXPECT_FALSE(dist::ComputeRanges(full, DistSpec(), 0).ok());
  dist::PartitionSpec missing;
  missing.keys = {{"nope", 0}};
  EXPECT_FALSE(dist::ComputeRanges(full, missing, 2).ok());
}

// ----------------------------------------------------- JSON round trips

TEST(PlanJsonTest, QuerySpecRoundTripsThroughJson) {
  Catalog full;
  BuildDistCatalog(&full);
  const std::vector<std::string> corpus = {
      "SELECT o_id, o_subclass FROM orders WHERE o_subclass < 12",
      "SELECT o_class, COUNT(*), SUM(o_subclass), AVG(o_subclass) "
      "FROM orders GROUP BY o_class ORDER BY 1",
      "SELECT o_class, COUNT(*) FROM orders, items WHERE o_id = i_order "
      "AND o_class = 7 AND o_subclass = 77 GROUP BY o_class",
      "SELECT DISTINCT o_class FROM orders ORDER BY 1 LIMIT 5",
  };
  for (const std::string& sql : corpus) {
    const QuerySpec query = Parse(full, sql);
    JsonWriter w;
    dist::AppendQuerySpecJson(query, &w);
    Result<JsonValue> parsed = JsonParse(w.str());
    ASSERT_TRUE(parsed.ok()) << sql;
    Result<QuerySpec> back = dist::QuerySpecFromJson(parsed.value());
    ASSERT_TRUE(back.ok()) << sql << ": " << back.status().ToString();
    // Re-serialization is a faithful equality proxy: every field the
    // engine reads participates in the encoding.
    JsonWriter w2;
    dist::AppendQuerySpecJson(back.value(), &w2);
    EXPECT_EQ(w.str(), w2.str()) << sql;
  }
}

TEST(PlanJsonTest, OptimizedPlanRoundTripsThroughJson) {
  Catalog full;
  BuildDistCatalog(&full);
  ProgressiveExecutor exec(full, OptimizerConfig{}, PopConfig{});
  const QuerySpec query = Parse(
      full,
      "SELECT o_class, COUNT(*) FROM orders, items WHERE o_id = i_order "
      "GROUP BY o_class");
  Result<OptimizedPlan> plan = exec.Plan(query);
  ASSERT_TRUE(plan.ok());
  JsonWriter w;
  ASSERT_TRUE(dist::AppendPlanJson(*plan.value().root, &w).ok());
  Result<JsonValue> parsed = JsonParse(w.str());
  ASSERT_TRUE(parsed.ok());
  Result<std::shared_ptr<PlanNode>> back =
      dist::PlanFromJson(parsed.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  JsonWriter w2;
  ASSERT_TRUE(dist::AppendPlanJson(*back.value(), &w2).ok());
  EXPECT_EQ(w.str(), w2.str());
}

// ---------------------------------------------------------- shardability

TEST(SplitTest, CoPartitionedJoinIsShardableNonKeyJoinIsNot) {
  Catalog full;
  BuildDistCatalog(&full);
  const dist::PartitionSpec spec = DistSpec();
  EXPECT_TRUE(dist::IsShardable(
      Parse(full, "SELECT COUNT(*) FROM orders, items WHERE o_id = i_order"),
      spec));
  EXPECT_TRUE(dist::IsShardable(
      Parse(full, "SELECT COUNT(*) FROM orders"), spec));
  // Joining the two partitioned tables on non-key columns cannot be
  // answered shard-locally.
  EXPECT_FALSE(dist::IsShardable(
      Parse(full,
            "SELECT COUNT(*) FROM orders, items WHERE o_subclass = i_qty"),
      spec));
  // Pure replicated-table queries run locally too.
  EXPECT_FALSE(
      dist::IsShardable(Parse(full, "SELECT COUNT(*) FROM clazz"), spec));
}

// ----------------------------------------------------------- equivalence

TEST_F(DistTest, DistributedResultsMatchSingleNode) {
  StartCluster(3);
  const std::vector<std::string> corpus = {
      "SELECT o_id, o_subclass FROM orders WHERE o_subclass < 12",
      "SELECT o_class, COUNT(*), SUM(o_subclass), AVG(o_subclass) "
      "FROM orders GROUP BY o_class ORDER BY 1",
      "SELECT MIN(i_qty), MAX(i_qty), COUNT(*) FROM items",
      "SELECT o_class, COUNT(*) FROM orders, items WHERE o_id = i_order "
      "GROUP BY o_class ORDER BY 1",
      "SELECT o_class, SUM(i_qty), AVG(i_qty) FROM orders, items "
      "WHERE o_id = i_order AND o_subclass = 77 GROUP BY o_class ORDER BY 1",
      "SELECT o_class, COUNT(*) FROM orders GROUP BY o_class "
      "HAVING COUNT(*) > 190 ORDER BY 1",
      "SELECT DISTINCT o_class FROM orders ORDER BY 1",
      "SELECT o_id FROM orders WHERE o_subclass = 5 ORDER BY 1 LIMIT 7",
      "SELECT o_class, c_name, COUNT(*) FROM orders, clazz "
      "WHERE o_class = c_id GROUP BY o_class, c_name ORDER BY 1",
  };
  for (const std::string& sql : corpus) {
    Result<std::vector<Row>> dist_rows = RunDist(sql);
    ASSERT_TRUE(dist_rows.ok())
        << sql << ": " << dist_rows.status().ToString();
    EXPECT_EQ(testing::Canonicalize(RunLocal(sql)),
              testing::Canonicalize(dist_rows.value()))
        << sql;
  }
}

TEST_F(DistTest, OrderByIsRespectedAcrossShardMerge) {
  StartCluster(2);
  const std::string sql =
      "SELECT o_id FROM orders WHERE o_subclass < 4 ORDER BY 1";
  Result<std::vector<Row>> rows = RunDist(sql);
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows.value().empty());
  for (size_t i = 1; i < rows.value().size(); ++i) {
    EXPECT_LE(rows.value()[i - 1][0].AsInt(), rows.value()[i][0].AsInt());
  }
}

// ----------------------------------------- global progressive execution

TEST_F(DistTest, ShardCheckViolationTriggersGlobalReoptimization) {
  StartCluster(2);
  // The correlated predicate pair makes the coordinator's first plan
  // overestimate 10x; the shard-scaled CHECK fires shard-side.
  const std::string sql =
      "SELECT o_class, COUNT(*) FROM orders, items WHERE o_id = i_order "
      "AND o_class = 7 AND o_subclass = 77 GROUP BY o_class";
  ExecutionStats stats;
  Result<std::vector<Row>> rows = RunDist(sql, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GE(stats.reopts, 1) << "expected a cluster-level re-optimization";
  ASSERT_GE(stats.attempts.size(), 2u);
  EXPECT_TRUE(stats.attempts.front().reoptimized);
  // The harvested global cardinalities changed the plan.
  EXPECT_NE(stats.attempts.front().plan_text,
            stats.attempts.back().plan_text);
  EXPECT_EQ(testing::Canonicalize(RunLocal(sql)),
            testing::Canonicalize(rows.value()));
  // A violating shard records its subplan with the CHECK's flavor.
  int violations = 0;
  for (const auto& shard : cluster_.shards) {
    for (const auto& record : shard->traces.Tail(0)) {
      if (record->checks_fired == 0) continue;
      ++violations;
      ASSERT_EQ(1u, record->attempts.size());
      const CheckFlavor flavor = record->attempts[0].signal.flavor;
      EXPECT_TRUE(record->attempts[0].reoptimized);
      EXPECT_EQ(stats.attempts.front().signal.flavor, flavor);
      EXPECT_EQ(1, record->fired_by_flavor[static_cast<int>(flavor)]);
    }
  }
  EXPECT_GE(violations, 1);
}

TEST_F(DistTest, CrossQueryFeedbackSkipsRepeatViolation) {
  StartCluster(2);
  const std::string sql =
      "SELECT o_class, COUNT(*) FROM orders, items WHERE o_id = i_order "
      "AND o_class = 7 AND o_subclass = 77 GROUP BY o_class";
  const QuerySpec query = Parse(full_, sql);
  QueryFeedbackStore store;
  CancelToken c1;
  ExecutionStats first;
  ASSERT_TRUE(cluster_.coordinator->Execute(query, &c1, &store, &first).ok());
  EXPECT_GE(first.reopts, 1);
  // Second run seeds from the learned global cardinalities: right plan
  // first try, no violation.
  CancelToken c2;
  ExecutionStats second;
  ASSERT_TRUE(cluster_.coordinator->Execute(query, &c2, &store, &second).ok());
  EXPECT_EQ(0, second.reopts);
}

// ------------------------------------------------- cancellation fan-out

TEST_F(DistTest, DeadlinePropagatesToShards) {
  StartCluster(2, /*stall_ms=*/30.0);
  CancelToken cancel;
  cancel.SetDeadlineAfterMs(60.0);
  ExecutionStats stats;
  // Small batches force many stalled emits, so the deadline always lands
  // mid-stream.
  cluster_.coordinator->set_batch_rows(16);
  Result<std::vector<Row>> rows =
      RunDist("SELECT o_id, o_subclass FROM orders", &stats, &cancel);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(StatusCode::kDeadlineExceeded, rows.status().code())
      << rows.status().ToString();
  // Every shard query is released (cancel fan-out reached them); allow the
  // in-flight cancels a moment to settle.
  for (int i = 0; i < 100; ++i) {
    int64_t inflight = 0;
    for (const auto& shard : cluster_.shards) {
      inflight += shard->server->sessions().inflight_queries();
    }
    if (inflight == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "shard subqueries still in flight after cancellation";
}

TEST_F(DistTest, ExplicitCancelPropagatesToShards) {
  StartCluster(2, /*stall_ms=*/30.0);
  CancelToken cancel;
  cluster_.coordinator->set_batch_rows(16);
  std::thread trip([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel.RequestCancel();
  });
  Result<std::vector<Row>> rows =
      RunDist("SELECT o_id, o_subclass FROM orders", nullptr, &cancel);
  trip.join();
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(StatusCode::kCancelled, rows.status().code())
      << rows.status().ToString();
}

// ------------------------------------------------------------ shard death

TEST_F(DistTest, ShardDeathMidQueryFailsCleanlyWithoutHang) {
  StartCluster(2, /*stall_ms=*/20.0);
  cluster_.coordinator->set_batch_rows(16);
  std::thread killer([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    cluster_.shards[1]->server->Shutdown();  // Hard-drops every connection.
  });
  Result<std::vector<Row>> rows =
      RunDist("SELECT o_id, o_subclass FROM orders");
  killer.join();
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(StatusCode::kUnavailable, rows.status().code())
      << rows.status().ToString();
  // The error names the shard that died.
  EXPECT_NE(std::string::npos, rows.status().ToString().find("shard 1"))
      << rows.status().ToString();
  // The surviving shard drained its subquery (cancel fan-out / broken
  // sink), so nothing is left in flight.
  for (int i = 0; i < 100; ++i) {
    if (cluster_.shards[0]->server->sessions().inflight_queries() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(0, cluster_.shards[0]->server->sessions().inflight_queries());
}

TEST_F(DistTest, DeadShardAtScatterTimeFailsFast) {
  StartCluster(2);
  cluster_.shards[0]->server->Shutdown();
  cluster_.shards[0]->server = nullptr;
  Result<std::vector<Row>> rows = RunDist("SELECT COUNT(*) FROM orders");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(StatusCode::kUnavailable, rows.status().code())
      << rows.status().ToString();
}

// ------------------------------------------------------- local fallback

TEST_F(DistTest, NonShardableQueriesAreDeclined) {
  StartCluster(2);
  EXPECT_FALSE(cluster_.coordinator->CanExecute(
      Parse(full_, "SELECT COUNT(*) FROM clazz")));
  EXPECT_FALSE(cluster_.coordinator->CanExecute(Parse(
      full_, "SELECT COUNT(*) FROM orders, items WHERE o_subclass = i_qty")));
}

// ------------------------------------------------- observability plane

/// DFS for a profile node whose name starts with `prefix`.
const PlanProfileNode* FindProfileNode(const PlanProfileNode& node,
                                       const std::string& prefix) {
  if (node.name.rfind(prefix, 0) == 0) return &node;
  for (const PlanProfileNode& child : node.children) {
    const PlanProfileNode* hit = FindProfileNode(child, prefix);
    if (hit != nullptr) return hit;
  }
  return nullptr;
}

// Golden stitched two-process Chrome trace: pids are rewritten densely,
// shard clocks are shifted onto the coordinator's timeline, and every
// process gets a Perfetto process_name metadata row.
TEST(DistObservabilityTest, StitchChromeTraceRewritesPidsAndShiftsClocks) {
  dist::ProcessTrace coord;
  coord.name = "coordinator";
  coord.trace_json =
      R"([{"name":"dist_execute","cat":"dist","ph":"X","ts":100,)"
      R"("dur":50,"pid":7,"tid":0}])";
  coord.ts_offset_us = 0;
  dist::ProcessTrace shard;
  shard.name = "shard 0 @127.0.0.1:9001";
  shard.trace_json =
      R"([{"name":"subplan_execute","cat":"dist","ph":"X","ts":10,)"
      R"("dur":20,"tid":3,"args":{"label":"q1"}},)"
      R"([{"name":"ignored_non_object"}]])";
  shard.ts_offset_us = 105;

  Result<std::string> stitched =
      dist::StitchChromeTrace({coord, shard});
  ASSERT_TRUE(stitched.ok()) << stitched.status().ToString();
  Result<JsonValue> parsed = JsonParse(stitched.value(), {16, 100000});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(JsonValue::Kind::kArray, parsed.value().kind());

  int metadata_rows = 0;
  bool saw_coord = false;
  bool saw_shard = false;
  for (const JsonValue& event : parsed.value().items()) {
    const std::string name = event.GetString("name", "");
    if (event.GetString("ph", "") == "M") {
      ASSERT_EQ("process_name", name);
      ++metadata_rows;
      continue;
    }
    if (name == "dist_execute") {
      saw_coord = true;
      EXPECT_EQ(0, event.GetInt("pid", -1));  // 7 rewritten to slot 0.
      EXPECT_EQ(100, event.GetInt("ts", -1));
    } else if (name == "subplan_execute") {
      saw_shard = true;
      EXPECT_EQ(1, event.GetInt("pid", -1));  // pid appended when absent.
      EXPECT_EQ(115, event.GetInt("ts", -1));  // 10 + offset 105.
      EXPECT_EQ(3, event.GetInt("tid", -1));   // tid passes through.
      const JsonValue* args = event.Find("args");
      ASSERT_NE(nullptr, args);
      EXPECT_EQ("q1", args->GetString("label", ""));
    }
  }
  EXPECT_EQ(2, metadata_rows);
  EXPECT_TRUE(saw_coord);
  EXPECT_TRUE(saw_shard);
  EXPECT_NE(std::string::npos,
            stitched.value().find("shard 0 @127.0.0.1:9001"));
}

TEST(DistObservabilityTest, StitchChromeTraceRejectsCorruptDump) {
  dist::ProcessTrace bad;
  bad.name = "shard 1";
  bad.trace_json = "{not json";
  EXPECT_FALSE(dist::StitchChromeTrace({bad}).ok());
  dist::ProcessTrace wrong_shape;
  wrong_shape.name = "shard 2";
  wrong_shape.trace_json = R"({"name":"object_not_array"})";
  EXPECT_FALSE(dist::StitchChromeTrace({wrong_shape}).ok());
}

// Golden federated exposition: each shard line gains shard="N" as its
// first label; repeated HELP/TYPE headers are dropped.
TEST(DistObservabilityTest, FederateMetricsTextInjectsShardLabels) {
  const std::string local =
      "# HELP popdb_up 1 while the server is serving.\n"
      "# TYPE popdb_up gauge\n"
      "popdb_up 1\n";
  const std::string shard0 =
      "# HELP popdb_up 1 while the server is serving.\n"
      "# TYPE popdb_up gauge\n"
      "popdb_up 1\n"
      "popdb_checks_fired_by_flavor_total{flavor=\"LC\"} 2\n";
  const std::string shard1 =
      "popdb_up 1\n"
      "\n"
      "garbage-line-without-value\n";

  const std::string merged = dist::FederateMetricsText(
      local, {{"0", shard0}, {"1", shard1}});
  EXPECT_EQ(
      "# HELP popdb_up 1 while the server is serving.\n"
      "# TYPE popdb_up gauge\n"
      "popdb_up 1\n"
      "# federated from shard 0\n"
      "popdb_up{shard=\"0\"} 1\n"
      "popdb_checks_fired_by_flavor_total{shard=\"0\",flavor=\"LC\"} 2\n"
      "# federated from shard 1\n"
      "popdb_up{shard=\"1\"} 1\n"
      "garbage-line-without-value\n",
      merged);
}

// The trap query on a live 2-shard cluster: the merged EXPLAIN ANALYZE
// tree has the gather root, the cross-shard aggregate, and one subtree per
// shard with its own Q-errors; the per-shard breakdown and the fired
// CHECK are recorded in the stats.
TEST_F(DistTest, DistributedExplainAnalyzeMergesShardProfiles) {
  StartCluster(2);
  const std::string sql =
      "SELECT o_class, COUNT(*) FROM orders, items WHERE o_id = i_order "
      "AND o_class = 7 AND o_subclass = 77 GROUP BY o_class";
  ExecutionStats stats;
  Result<std::vector<Row>> rows = RunDist(sql, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_GE(stats.reopts, 1);

  const AttemptInfo& last = stats.last_attempt();
  ASSERT_TRUE(last.has_profile);
  const PlanProfileNode& root = last.profile;
  EXPECT_EQ(0u, root.name.rfind("GATHER", 0)) << root.name;
  EXPECT_NE(std::string::npos, root.detail.find("2 shards")) << root.detail;

  const PlanProfileNode* cluster = FindProfileNode(root, "CLUSTER");
  ASSERT_NE(nullptr, cluster);
  std::vector<const PlanProfileNode*> shard_nodes;
  for (const PlanProfileNode& child : root.children) {
    if (child.name == "SHARD") shard_nodes.push_back(&child);
  }
  ASSERT_EQ(2u, shard_nodes.size());
  EXPECT_NE(std::string::npos, shard_nodes[0]->detail.find("shard 0"));
  EXPECT_NE(std::string::npos, shard_nodes[1]->detail.find("shard 1"));
  // Each shard subtree is a real executed profile: some operator in it
  // completed with estimates, so a Q-error is computable.
  EXPECT_GE(PeakProfileQError(*shard_nodes[0]), 1.0);
  EXPECT_GE(PeakProfileQError(*shard_nodes[1]), 1.0);

  // Per-shard breakdown of the final (successful) attempt.
  ASSERT_EQ(2u, last.shards.size());
  int64_t shard_rows = 0;
  for (const ShardAttemptInfo& s : last.shards) {
    EXPECT_EQ("ok", s.outcome);
    EXPECT_GE(s.execute_ms, 0.0);
    shard_rows += s.rows;
  }
  EXPECT_GE(shard_rows, static_cast<int64_t>(rows.value().size()));
  // The violating attempt recorded its shards too, one of them firing.
  bool saw_reopt_shard = false;
  for (const ShardAttemptInfo& s : stats.attempts.front().shards) {
    if (s.outcome == "reoptimize") saw_reopt_shard = true;
  }
  EXPECT_TRUE(saw_reopt_shard);
  // The fired CHECK surfaced as a cluster-level check event.
  bool saw_fired = false;
  for (const CheckEvent& e : stats.check_events) {
    if (e.fired) saw_fired = true;
  }
  EXPECT_TRUE(saw_fired);
}

// Live cluster trace stitching + metrics federation through the
// coordinator's ClusterObservability interface (what the `spans` /
// `metrics {cluster:true}` wire requests call).
TEST_F(DistTest, ClusterTraceAndFederatedMetricsFromLiveCluster) {
  StartCluster(2);
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Enable();
  const std::string sql =
      "SELECT o_class, COUNT(*) FROM orders, items WHERE o_id = i_order "
      "AND o_class = 7 AND o_subclass = 77 GROUP BY o_class";
  ExecutionStats stats;
  Result<std::vector<Row>> rows = RunDist(sql, &stats);
  tracer.Disable();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();

  // The coordinator recorded the distributed phases, labeled by token.
  bool saw_execute = false;
  bool saw_scatter = false;
  bool saw_violation = false;
  for (const SpanEvent& e : tracer.Snapshot()) {
    const std::string name = e.name;
    if (name == "dist_execute") saw_execute = true;
    if (name == "dist_scatter") saw_scatter = true;
    if (name == "check_violation") {
      saw_violation = true;
      ASSERT_NE(nullptr, e.label);
      EXPECT_EQ('q', e.label[0]);
    }
  }
  EXPECT_TRUE(saw_execute);
  EXPECT_TRUE(saw_scatter);
  EXPECT_TRUE(saw_violation);

  // Stitched cluster trace: coordinator + both shards, one pid row each
  // (in-process shards share the tracer, but the stitch still assigns
  // every process its own pid and name row).
  Result<std::string> trace = cluster_.coordinator->ClusterTraceJson();
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  Result<JsonValue> parsed = JsonParse(trace.value(), {32, 2000000});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  int process_rows = 0;
  bool saw_pid2 = false;
  for (const JsonValue& event : parsed.value().items()) {
    if (event.GetString("ph", "") == "M") ++process_rows;
    if (event.GetInt("pid", -1) == 2) saw_pid2 = true;
  }
  EXPECT_EQ(3, process_rows);  // coordinator + 2 shards.
  EXPECT_TRUE(saw_pid2);
  EXPECT_NE(std::string::npos, trace.value().find("coordinator"));
  EXPECT_NE(std::string::npos, trace.value().find("shard 1"));

  // Federated exposition: coordinator families plus per-shard samples.
  Result<std::string> metrics =
      cluster_.coordinator->FederatedMetricsText("popdb_up 1\n");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(std::string::npos, metrics.value().find("popdb_up 1"));
  EXPECT_NE(std::string::npos, metrics.value().find("shard=\"0\""));
  EXPECT_NE(std::string::npos, metrics.value().find("shard=\"1\""));
  // Shard servers count the subplans they executed.
  EXPECT_NE(std::string::npos,
            metrics.value().find("popdb_net_subplans_total{shard=\"1\"}"));
  tracer.Clear();
}

// Wire-level: a shard's subplan query_done frame reports the shard's
// execution wall time and its EXPLAIN ANALYZE profile (what the
// coordinator merges), and the shard's own query log records the subplan.
TEST_F(DistTest, SubplanQueryDoneCarriesTimingAndProfile) {
  StartCluster(2);
  Result<net::Client> connected =
      net::Client::Connect("127.0.0.1", cluster_.shards[0]->server->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  net::Client client = std::move(connected).TakeValue();
  const auto [id, done] =
      RunSubplan(&client, SubplanRequest(full_, "SELECT COUNT(*) FROM orders"));
  EXPECT_EQ("ok", done.GetString("outcome", ""));
  EXPECT_GE(done.GetNumber("execute_ms", -1.0), 0.0);
  const JsonValue* profile_json = done.Find("profile");
  ASSERT_NE(nullptr, profile_json);
  PlanProfileNode profile;
  ASSERT_TRUE(ProfileFromJson(*profile_json, &profile));
  EXPECT_FALSE(profile.name.empty());

  // The shard logged the subplan with the query's name.
  Result<std::string> log = client.QueryLogTail(0);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  Result<JsonValue> entries = JsonParse(log.value());
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_FALSE(entries.value().items().empty());
  const JsonValue& last = entries.value().items().back();
  EXPECT_EQ(id, last.GetInt("query_id", -1));
  EXPECT_EQ("subplan", last.GetString("kind", ""));
  EXPECT_EQ("ok", last.GetString("outcome", ""));
  client.Close();
}

// A shard records each subplan it serves exactly once, in the one ring
// behind its `trace` and `query_log` requests.
TEST_F(DistTest, SubplanIsRecordedOnce) {
  StartCluster(2);
  Result<net::Client> shard =
      net::Client::Connect("127.0.0.1", cluster_.shards[0]->server->port());
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  const int64_t id =
      RunSubplan(&shard.value(),
                 SubplanRequest(full_, "SELECT COUNT(*) FROM orders"))
          .first;
  shard.value().Close();
  const std::vector<std::shared_ptr<const QueryTrace>> records =
      cluster_.shards[0]->traces.Tail(0);
  ASSERT_EQ(1u, records.size());
  EXPECT_EQ(id, records[0]->query_id);
  EXPECT_EQ("subplan", records[0]->kind);
  EXPECT_EQ(1, cluster_.shards[0]->traces.total());
}

// Key sequences of the `trace` and `query_log` views a cluster serves: a
// shard's views of a subplan and a coordinator's views of a distributed
// read. The table pins the wire format: clients parse these views, so a
// change to a key or its order is a protocol change.
TEST_F(DistTest, RecordViewsKeepTheirKeys) {
  StartCluster(2);
  const std::string sql = "SELECT COUNT(*) FROM orders";
  Result<net::Client> shard =
      net::Client::Connect("127.0.0.1", cluster_.shards[0]->server->port());
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  const int64_t subplan_id =
      RunSubplan(&shard.value(), SubplanRequest(full_, sql)).first;
  Result<std::string> subplan_trace = shard.value().Trace(subplan_id);
  Result<std::string> shard_log = shard.value().QueryLogTail(0);
  ASSERT_TRUE(subplan_trace.ok()) << subplan_trace.status().ToString();
  ASSERT_TRUE(shard_log.ok()) << shard_log.status().ToString();
  shard.value().Close();
  EXPECT_EQ(
      "query_id,query,session,priority,outcome,shared_feedback,latency_ms,"
      "latency_ms.queue,latency_ms.optimize,latency_ms.execute,"
      "latency_ms.total,work,result_rows,reopts,"
      "check_events,checks_fired,plan_cache,attempts,attempts[].plan,"
      "attempts[].optimize_ms,attempts[].execute_ms,attempts[].work,"
      "attempts[].rows_returned,attempts[].reoptimized,attempts[].profile",
      testing::JsonKeySequence(subplan_trace.value()));
  EXPECT_EQ(
      "query_id,end_ms,kind,query,outcome,plan_cache,reopts,checks_fired,"
      "queue_ms,optimize_ms,execute_ms,total_ms,result_rows,peak_qerror,"
      "distributed",
      testing::LogEntryKeySequence(shard_log.value(), subplan_id));

  // A coordinator front end over the same cluster.
  TraceStore traces;
  ServiceConfig service_config;
  service_config.trace_sink = &traces;
  service_config.dist_backend = cluster_.coordinator.get();
  QueryService service(full_, service_config);
  net::NetServerConfig net_config;
  net_config.host = "127.0.0.1";
  net_config.port = 0;
  net::NetServer server(&service, &traces, net_config);
  ASSERT_TRUE(server.Start().ok());
  Result<net::Client> front = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(front.ok()) << front.status().ToString();
  const net::ClientQueryResult read = front.value().Query(sql);
  ASSERT_TRUE(read.status.ok()) << read.status.ToString();
  Result<std::string> read_trace = front.value().Trace(read.query_id);
  Result<std::string> front_log = front.value().QueryLogTail(0);
  ASSERT_TRUE(read_trace.ok()) << read_trace.status().ToString();
  ASSERT_TRUE(front_log.ok()) << front_log.status().ToString();
  front.value().Close();
  server.Shutdown();
  service.Shutdown();
  const std::string shards =
      "shards[].shard,shards[].execute_ms,shards[].rows,shards[].outcome";
  const std::string attempt_shards =
      "attempts[].shards[].shard,attempts[].shards[].execute_ms,"
      "attempts[].shards[].rows,attempts[].shards[].outcome";
  EXPECT_EQ(
      "query_id,query,session,priority,outcome,shared_feedback,latency_ms,"
      "latency_ms.queue,latency_ms.optimize,latency_ms.execute,"
      "latency_ms.total,work,result_rows,reopts,"
      "check_events,checks_fired,plan_cache,attempts,attempts[].plan,"
      "attempts[].optimize_ms,attempts[].execute_ms,attempts[].work,"
      "attempts[].rows_returned,attempts[].reoptimized,attempts[].profile,"
      "attempts[].shards," +
          attempt_shards + "," + attempt_shards,
      testing::JsonKeySequence(read_trace.value()));
  EXPECT_EQ(
      "query_id,end_ms,kind,query,signature,plan_digest,outcome,plan_cache,"
      "reopts,checks_fired,queue_ms,optimize_ms,execute_ms,total_ms,"
      "result_rows,peak_qerror,distributed,shards," +
          shards + "," + shards,
      testing::LogEntryKeySequence(front_log.value(), read.query_id));
}

// The coordinator's own per-shard gauges after a distributed query.
TEST_F(DistTest, CoordinatorExportsPerShardMetrics) {
  StartCluster(2);
  MetricsRegistry registry;
  cluster_.coordinator->RegisterMetrics(&registry);
  ASSERT_TRUE(RunDist("SELECT COUNT(*) FROM orders").ok());
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(std::string::npos,
            text.find("popdb_dist_shard_rows_total{shard=\"0\"}"));
  EXPECT_NE(std::string::npos,
            text.find("popdb_dist_shard_rows_total{shard=\"1\"}"));
  EXPECT_NE(std::string::npos,
            text.find("popdb_dist_shard_latency_ms_bucket{shard=\"0\",le="));
  EXPECT_NE(std::string::npos, text.find("popdb_dist_shard_lag_ms_count 1"));
}

}  // namespace
}  // namespace popdb
