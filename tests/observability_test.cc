// End-to-end observability: EXPLAIN ANALYZE profiles (est vs. actual rows
// with Q-error per operator), span tracing with Chrome-trace export, the
// Prometheus metrics registry, and the JSONL trace escaping guarantees.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/span.h"
#include "core/explain.h"
#include "core/pop.h"
#include "runtime/metrics_registry.h"
#include "runtime/query_service.h"
#include "runtime/trace.h"
#include "tests/test_util.h"

namespace popdb {
namespace {

using ::popdb::testing::BuildToyCatalog;

/// Correlated-predicate trap (see runtime_test.cc): the static optimizer
/// multiplies the two predicate selectivities, underestimates badly, and
/// the first progressive run re-optimizes at least once.
void BuildTrapCatalog(Catalog* catalog) {
  Rng rng(5);
  Table orders("orders", Schema({{"o_id", ValueType::kInt},
                                 {"clazz", ValueType::kInt},
                                 {"subclass", ValueType::kInt}}));
  for (int64_t i = 0; i < 4000; ++i) {
    const int64_t sub = rng.UniformInt(0, 199);
    orders.AppendRow({Value::Int(i), Value::Int(sub / 10), Value::Int(sub)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(orders)).ok());
  Table items("items", Schema({{"i_order", ValueType::kInt},
                               {"qty", ValueType::kInt}}));
  for (int64_t i = 0; i < 12000; ++i) {
    items.AppendRow({Value::Int(rng.UniformInt(0, 3999)),
                     Value::Int(rng.UniformInt(1, 50))});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(items)).ok());
  catalog->AnalyzeAll();
}

QuerySpec TrapQuery(const std::string& name = "trap") {
  QuerySpec q(name);
  const int o = q.AddTable("orders");
  const int it = q.AddTable("items");
  q.AddJoin({o, 0}, {it, 0});
  q.AddPred({o, 1}, PredKind::kEq, Value::Int(7));
  q.AddPred({o, 2}, PredKind::kEq, Value::Int(77));
  q.AddGroupBy({o, 1});
  q.AddAgg(AggFunc::kCount);
  return q;
}

/// Depth-first search for a profile node matching (name prefix, detail).
const PlanProfileNode* FindNode(const PlanProfileNode& node,
                                const std::string& name_prefix,
                                const std::string& detail) {
  if (node.name.rfind(name_prefix, 0) == 0 &&
      (detail.empty() || node.detail.find(detail) != std::string::npos)) {
    return &node;
  }
  for (const PlanProfileNode& child : node.children) {
    if (const PlanProfileNode* hit = FindNode(child, name_prefix, detail)) {
      return hit;
    }
  }
  return nullptr;
}

// ------------------------------------------------------- EXPLAIN ANALYZE.

TEST(ExplainAnalyzeTest, ScanEstimateMatchesActualOnAnalyzedTable) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});

  QuerySpec q("scan_dept");
  q.AddTable("dept");

  ExecutionStats stats;
  ASSERT_TRUE(exec.Execute(q, &stats).ok());
  ASSERT_EQ(1u, stats.attempts.size());
  ASSERT_TRUE(stats.attempts[0].has_profile);

  const PlanProfileNode* scan =
      FindNode(stats.attempts[0].profile, "TBSCAN", "dept");
  ASSERT_NE(nullptr, scan);
  EXPECT_TRUE(scan->completed);
  EXPECT_EQ(8, scan->actual_rows);  // dept has exactly 8 rows.
  ASSERT_TRUE(scan->has_estimates());
  // ANALYZE collected the exact table cardinality, so the estimate is
  // perfect and the Q-error is 1.
  EXPECT_NEAR(1.0, scan->QError(), 1e-9);
  EXPECT_GT(scan->next_calls, 0);
}

TEST(ExplainAnalyzeTest, KnownCardinalityJoinHasLowQError) {
  Catalog catalog;
  BuildToyCatalog(&catalog);  // Every emp row matches exactly one dept.
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});

  QuerySpec q("fk_join");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({e, 1}, {d, 0});

  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(q, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(200u, rows.value().size());
  ASSERT_TRUE(stats.attempts.back().has_profile);

  // The topmost join produced the full FK-join result; with uniform keys
  // the estimator should be close to exact.
  const PlanProfileNode* join = FindNode(stats.attempts.back().profile, "", "");
  ASSERT_NE(nullptr, join);  // Root.
  const PlanProfileNode* join_node = nullptr;
  for (const std::string name : {"NLJN", "HSJN", "MGJN"}) {
    if ((join_node = FindNode(stats.attempts.back().profile, name, ""))) break;
  }
  ASSERT_NE(nullptr, join_node);
  EXPECT_TRUE(join_node->completed);
  EXPECT_EQ(200, join_node->actual_rows);
  ASSERT_TRUE(join_node->has_estimates());
  EXPECT_LE(join_node->QError(), 2.0);
}

TEST(ExplainAnalyzeTest, RendersEveryAttemptWithCheckFiring) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});

  ExecutionStats stats;
  Result<std::string> text = exec.ExplainAnalyze(TrapQuery(), &stats);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_GE(stats.reopts, 1);

  // Every attempt carries a profile, including the aborted first one.
  for (const AttemptInfo& a : stats.attempts) {
    EXPECT_TRUE(a.has_profile);
  }

  const std::string& out = text.value();
  EXPECT_NE(std::string::npos, out.find("=== Attempt 1"));
  EXPECT_NE(std::string::npos, out.find("=== Attempt 2"));
  EXPECT_NE(std::string::npos, out.find("CHECK fired"));
  EXPECT_NE(std::string::npos, out.find("re-optimizing"));
  EXPECT_NE(std::string::npos, out.find("est_rows="));
  EXPECT_NE(std::string::npos, out.find("act_rows="));
  EXPECT_NE(std::string::npos, out.find("q="));
  EXPECT_NE(std::string::npos, out.find("=== Done"));
}

TEST(ExplainAnalyzeTest, ProfileJsonIsWellFormed) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});

  QuerySpec q("json_probe");
  const int d = q.AddTable("dept");
  const int e = q.AddTable("emp");
  q.AddJoin({e, 1}, {d, 0});
  q.AddGroupBy({d, 1});
  q.AddAgg(AggFunc::kCount);

  ExecutionStats stats;
  ASSERT_TRUE(exec.Execute(q, &stats).ok());
  ASSERT_TRUE(stats.attempts[0].has_profile);
  const std::string json = ProfileToJsonString(stats.attempts[0].profile);
  EXPECT_EQ('{', json.front());
  EXPECT_EQ('}', json.back());
  EXPECT_NE(std::string::npos, json.find("\"op\":"));
  EXPECT_NE(std::string::npos, json.find("\"est_rows\":"));
  EXPECT_NE(std::string::npos, json.find("\"act_rows\":"));
  EXPECT_NE(std::string::npos, json.find("\"children\":["));
}

// ------------------------------------------------------------ span tracer.

TEST(SpanTracerTest, SpansNestAcrossReoptimization) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);

  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Enable();
  ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});
  ExecutionStats stats;
  ASSERT_TRUE(exec.Execute(TrapQuery(), &stats).ok());
  tracer.Disable();
  ASSERT_GE(stats.reopts, 1);

  const std::vector<SpanEvent> events = tracer.Snapshot();
  int optimize_spans = 0, attempt_spans = 0, check_fired = 0, exec_spans = 0;
  for (const SpanEvent& ev : events) {
    const std::string name = ev.name;
    if (name == "optimize") ++optimize_spans;
    if (name == "execute_attempt") ++attempt_spans;
    if (name == "check_fired") {
      ++check_fired;
      EXPECT_TRUE(ev.IsInstant());
      ASSERT_NE(nullptr, ev.arg_name);
      EXPECT_EQ(std::string("observed_rows"), ev.arg_name);
    }
    if (std::string(ev.category) == "exec" && !ev.IsInstant()) ++exec_spans;
  }
  // One optimize + one execute span per attempt; the re-optimization left
  // an instant marking why.
  EXPECT_GE(optimize_spans, 2);
  EXPECT_GE(attempt_spans, 2);
  EXPECT_GE(check_fired, 1);
  EXPECT_GT(exec_spans, 0);

  // Nesting: every operator span lies entirely inside some execute_attempt
  // span. (The snapshot sort puts parents first, but a root operator span
  // can tie with its attempt span at microsecond granularity, so enclosure
  // is checked over all events rather than only preceding ones.)
  for (const SpanEvent& ev : events) {
    if (std::string(ev.category) != "exec" || ev.IsInstant()) continue;
    bool enclosed = false;
    for (const SpanEvent& parent : events) {
      if (std::string(parent.name) == "execute_attempt" &&
          parent.Encloses(ev)) {
        enclosed = true;
        break;
      }
    }
    EXPECT_TRUE(enclosed) << "operator span '" << ev.name
                          << "' not enclosed by any execute_attempt";
  }
  tracer.Clear();
}

TEST(SpanTracerTest, ChromeTraceExportIsValidTraceEventJson) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Enable();
  {
    TRACE_SPAN_NAMED(outer, "outer", "test");
    TRACE_SPAN("inner", "test");
    TRACE_INSTANT_ARG("marker", "test", "count", 3);
  }
  tracer.Disable();

  const std::string json = tracer.ExportChromeTrace();
  EXPECT_EQ('[', json.front());
  EXPECT_EQ(']', json[json.find_last_not_of('\n')]);
  EXPECT_NE(std::string::npos, json.find("\"ph\":\"X\""));  // Complete spans.
  EXPECT_NE(std::string::npos, json.find("\"ph\":\"i\""));  // Instant.
  EXPECT_NE(std::string::npos, json.find("\"name\":\"outer\""));
  EXPECT_NE(std::string::npos, json.find("\"args\":{\"count\":3}"));

  const std::string jsonl = tracer.ExportJsonl();
  int lines = 0;
  size_t pos = 0;
  while (pos < jsonl.size()) {
    size_t end = jsonl.find('\n', pos);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(pos, end - pos);
    if (!line.empty()) {
      EXPECT_EQ('{', line.front());
      EXPECT_EQ('}', line.back());
      ++lines;
    }
    pos = end + 1;
  }
  EXPECT_EQ(3, lines);
  tracer.Clear();
}

TEST(SpanTracerTest, DisabledTracerRecordsNothing) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Disable();
  {
    TRACE_SPAN("ignored", "test");
    TRACE_INSTANT("ignored_too", "test");
  }
  EXPECT_EQ(0, tracer.event_count());
}

// ------------------------------------------------------- metrics registry.

TEST(MetricsRegistryTest, PrometheusExpositionGolden) {
  MetricsRegistry reg;
  reg.GetCounter("demo_requests_total", "Requests served.")->Increment(3);
  reg.GetCounter("demo_errors_total", "Errors by kind.", "kind=\"parse\"")
      ->Increment(2);
  reg.GetCounter("demo_errors_total", "Errors by kind.", "kind=\"io\"");
  reg.GetGauge("demo_in_flight", "In-flight requests.")->Set(7);
  Histogram* h = reg.GetHistogram("demo_latency_ms", "Request latency.",
                                  {1.0, 10.0, 100.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);
  h->Observe(500.0);

  const std::string expected =
      "# HELP demo_requests_total Requests served.\n"
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total 3\n"
      "# HELP demo_errors_total Errors by kind.\n"
      "# TYPE demo_errors_total counter\n"
      "demo_errors_total{kind=\"parse\"} 2\n"
      "demo_errors_total{kind=\"io\"} 0\n"
      "# HELP demo_in_flight In-flight requests.\n"
      "# TYPE demo_in_flight gauge\n"
      "demo_in_flight 7\n"
      "# HELP demo_latency_ms Request latency.\n"
      "# TYPE demo_latency_ms histogram\n"
      "demo_latency_ms_bucket{le=\"1\"} 1\n"
      "demo_latency_ms_bucket{le=\"10\"} 2\n"
      "demo_latency_ms_bucket{le=\"100\"} 3\n"
      "demo_latency_ms_bucket{le=\"+Inf\"} 4\n"
      "demo_latency_ms_sum 555.5\n"
      "demo_latency_ms_count 4\n";
  EXPECT_EQ(expected, reg.RenderPrometheus());
}

TEST(MetricsRegistryTest, HistogramQuantilesAndEmptyWindow) {
  MetricsRegistry reg;
  Histogram& h = *reg.GetHistogram(
      "q_hist", "h", Histogram::LogBuckets(1.0, 2.0, 6));  // 1,2,...,32.
  EXPECT_TRUE(std::isnan(h.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.Quantile(0.95)));

  for (int i = 0; i < 90; ++i) h.Observe(1.5);  // -> le="2" bucket.
  for (int i = 0; i < 10; ++i) h.Observe(30.0);  // -> le="32" bucket.
  EXPECT_EQ(100, h.count());
  EXPECT_DOUBLE_EQ(2.0, h.Quantile(0.5));
  EXPECT_DOUBLE_EQ(32.0, h.Quantile(0.95));
  // Beyond the last finite bound the largest finite boundary is reported.
  h.Observe(1e9);
  EXPECT_DOUBLE_EQ(32.0, h.Quantile(1.0));
}

TEST(MetricsRegistryTest, SameNameSameLabelsReturnsSameInstance) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("c_total", "c");
  Counter* b = reg.GetCounter("c_total", "c");
  EXPECT_EQ(a, b);
  // Same name with a different type is rejected rather than clobbered.
  EXPECT_EQ(nullptr, reg.GetGauge("c_total", "c"));
}

// ---------------------------------------------------- service-level wiring.

TEST(ServiceObservabilityTest, MetricsTextExposesServiceAndEngineMetrics) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  ServiceConfig config;
  config.num_workers = 1;
  QueryService service(catalog, config);

  ASSERT_TRUE(service.ExecuteSync(TrapQuery("t1")).status.ok());
  ASSERT_TRUE(service.ExecuteSync(TrapQuery("t2")).status.ok());
  service.Shutdown();

  const ServiceStatsSnapshot stats = service.Stats();
  ASSERT_GE(stats.checks_fired, 1);  // The trap fired at least once.

  const std::string text = service.MetricsText();
  EXPECT_NE(std::string::npos,
            text.find("# TYPE popdb_queries_submitted_total counter"));
  EXPECT_NE(std::string::npos, text.find("popdb_queries_submitted_total 2"));
  EXPECT_NE(std::string::npos, text.find("popdb_queries_completed_total 2"));
  // Check firings broken out by flavor; the trap fires at least one LC or
  // LCEM checkpoint.
  EXPECT_NE(std::string::npos,
            text.find("popdb_checks_fired_by_flavor_total{flavor=\"LC\"}"));
  EXPECT_NE(std::string::npos,
            text.find("popdb_checks_fired_by_flavor_total{flavor=\"ECB\"}"));
  // Latency histogram with both queries accounted for.
  EXPECT_NE(std::string::npos,
            text.find("popdb_query_latency_ms_bucket{le=\""));
  EXPECT_NE(std::string::npos, text.find("popdb_query_latency_ms_count 2"));
  // Q-errors harvested from the EXPLAIN ANALYZE profiles.
  EXPECT_NE(std::string::npos, text.find("# TYPE popdb_operator_qerror"));
  // Feedback-store effectiveness: both compilations consulted the store,
  // the second was seeded from the first run's harvest.
  EXPECT_NE(std::string::npos, text.find("popdb_feedback_seed_lookups 2"));
  EXPECT_NE(std::string::npos, text.find("popdb_admission_queue_depth 0"));

  // The Q-error histogram saw at least one observation.
  Histogram* qerr = service.metrics_registry().GetHistogram(
      "popdb_operator_qerror", "", Histogram::LogBuckets(1.0, 2.0, 20));
  ASSERT_NE(nullptr, qerr);
  EXPECT_GT(qerr->count(), 0);
}

TEST(ServiceObservabilityTest, QueryLogRecordsTrapReoptimization) {
  Catalog catalog;
  BuildTrapCatalog(&catalog);
  TraceStore traces;
  ServiceConfig config;
  config.num_workers = 1;
  config.trace_sink = &traces;
  QueryService service(catalog, config);
  ASSERT_TRUE(service.ExecuteSync(TrapQuery("logged")).status.ok());
  service.Shutdown();

  const std::vector<std::shared_ptr<const QueryTrace>> tail = traces.Tail(0);
  ASSERT_EQ(1u, tail.size());
  const QueryTrace& e = *tail[0];
  EXPECT_EQ("query", e.kind);
  EXPECT_EQ("logged", e.query_name);
  EXPECT_EQ("ok", e.outcome);
  EXPECT_GE(e.reopts, 1);  // The trap re-optimized.
  EXPECT_GE(e.checks_fired, 1);
  int64_t flavor_sum = 0;
  for (int f = 0; f < 6; ++f) flavor_sum += e.fired_by_flavor[f];
  EXPECT_EQ(e.checks_fired, flavor_sum);
  EXPECT_GT(e.result_rows, 0);
  EXPECT_GT(e.total_ms, 0.0);
  // The query_log view derives the rest from the record.
  Result<JsonValue> entry = JsonParse(e.ToLogJson());
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  // The final plan was digested.
  EXPECT_FALSE(entry.value().GetString("plan_digest", "").empty());
  // The trap's misestimate shows up as a large peak Q-error.
  EXPECT_GE(entry.value().GetNumber("peak_qerror", -1.0), 2.0);
  EXPECT_FALSE(entry.value().GetBool("distributed", true));
}

TEST(ServiceObservabilityTest, PercentilesAreNaNWithNoCompletedQueries) {
  Catalog catalog;
  BuildToyCatalog(&catalog);
  QueryService service(catalog, ServiceConfig{});
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_TRUE(std::isnan(stats.p50_latency_ms));
  EXPECT_TRUE(std::isnan(stats.p95_latency_ms));
  service.Shutdown();
}

// ------------------------------------------------- JSONL trace escaping.

TEST(TraceJsonTest, EscapesQuotesNewlinesAndBackslashes) {
  QueryTrace trace;
  trace.query_id = 7;
  trace.query_name = "q\"uote\nline\\slash";
  trace.outcome = "error";
  trace.status_message = "tab\there";

  const std::string json = trace.ToJson();
  // A JSONL consumer reads one object per line: no raw control characters.
  EXPECT_EQ(std::string::npos, json.find('\n'));
  EXPECT_EQ(std::string::npos, json.find('\t'));
  EXPECT_NE(std::string::npos, json.find("q\\\"uote\\nline\\\\slash"));
  EXPECT_NE(std::string::npos, json.find("tab\\there"));
}

// ------------------------------------------------- multithreaded hammer.

TEST(ObservabilityConcurrencyTest, RegistryAndTracerHammer) {
  MetricsRegistry reg;
  Counter* counter = reg.GetCounter("hammer_total", "Hammered counter.");
  Gauge* gauge = reg.GetGauge("hammer_gauge", "Hammered gauge.");
  Histogram* hist = reg.GetHistogram("hammer_hist", "Hammered histogram.",
                                     Histogram::LogBuckets(1.0, 2.0, 10));

  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Enable();

  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<int64_t> renders{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kIters; ++i) {
        counter->Increment();
        gauge->Increment();
        hist->Observe(static_cast<double>(i % 37));
        gauge->Decrement();
        // Re-registration from many threads must return the same cell.
        if (i % 64 == 0) {
          Counter* again = reg.GetCounter("hammer_total", "Hammered counter.");
          if (again != counter) std::abort();
        }
        const int64_t t0 = tracer.NowUs();
        tracer.RecordSpan("hammer_span", "test", t0, 1, "iter", i);
        if (i % 512 == t) {
          renders += static_cast<int64_t>(reg.RenderPrometheus().size());
          renders += static_cast<int64_t>(tracer.Snapshot().size());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  tracer.Disable();

  EXPECT_EQ(kThreads * kIters, counter->value());
  EXPECT_EQ(0, gauge->value());
  EXPECT_EQ(kThreads * kIters, hist->count());
  EXPECT_EQ(kThreads * kIters, tracer.event_count());
  EXPECT_GT(renders.load(), 0);
  tracer.Clear();
}

// ------------------------------------------------- span labels (interning).

TEST(SpanTracerTest, InternReturnsStablePointerForEqualContents) {
  SpanTracer& tracer = SpanTracer::Global();
  const std::string token = "q12345";
  const char* a = tracer.Intern(token);
  const char* b = tracer.Intern(std::string("q") + "12345");
  EXPECT_EQ(a, b);  // Same contents, same pointer.
  EXPECT_STREQ("q12345", a);
  const char* c = tracer.Intern("q12346");
  EXPECT_NE(a, c);
}

TEST(SpanTracerTest, LabelsRenderInChromeTraceArgs) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Enable();
  {
    TRACE_SPAN_NAMED(span, "labeled_work", "test");
    span.SetLabel(std::string_view("q777"));
    span.SetArg("rows", 42);
  }
  TRACE_INSTANT_TAGGED("tagged_instant", "test", "q777", "shard", 3);
  tracer.Disable();

  const std::vector<SpanEvent> events = tracer.Snapshot();
  ASSERT_EQ(2u, events.size());
  for (const SpanEvent& e : events) {
    ASSERT_NE(nullptr, e.label);
    EXPECT_STREQ("q777", e.label);
  }
  // Both events carry the same interned pointer.
  EXPECT_EQ(events[0].label, events[1].label);

  const std::string json = tracer.ExportChromeTrace();
  EXPECT_NE(std::string::npos, json.find("\"label\":\"q777\""));
  // The exported trace is valid JSON a viewer can load.
  Result<JsonValue> parsed = JsonParse(json, {64, 4000000});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  tracer.Clear();
}

TEST(SpanTracerTest, SetLabelIsANoOpWhenDisabled) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.Disable();
  {
    TRACE_SPAN_NAMED(span, "dead_span", "test");
    span.SetLabel(std::string_view("never_interned"));
  }
  TRACE_INSTANT_TAGGED("dead_instant", "test", "never_interned", "x", 1);
  EXPECT_EQ(0, tracer.event_count());
}

// ------------------------------------------------- peak profile Q-error.

TEST(ExplainAnalyzeTest, PeakProfileQErrorPicksWorstOperator) {
  PlanProfileNode root;
  root.name = "ROOT";
  root.est_rows = 100.0;
  root.actual_rows = 100;
  root.completed = true;
  PlanProfileNode bad;
  bad.name = "BAD";
  bad.est_rows = 10.0;
  bad.actual_rows = 1000;
  bad.completed = true;
  PlanProfileNode unfinished;  // Not completed: must not contribute.
  unfinished.name = "PARTIAL";
  unfinished.est_rows = 1.0;
  unfinished.actual_rows = 500000;
  unfinished.completed = false;
  bad.children.push_back(unfinished);
  root.children.push_back(bad);

  const double peak = PeakProfileQError(root);
  EXPECT_NEAR((1000.0 + 1.0) / (10.0 + 1.0), peak, 1e-9);

  PlanProfileNode empty;  // No completed+estimated operator anywhere.
  empty.name = "EMPTY";
  EXPECT_DOUBLE_EQ(-1.0, PeakProfileQError(empty));
}

// ------------------------------------------------- structured query log.

TEST(QueryLogTest, RingEvictsOldestAndTracksTotals) {
  TraceStore store(/*capacity=*/3);
  EXPECT_EQ(3, store.capacity());
  for (int64_t i = 0; i < 5; ++i) {
    QueryTrace e;
    e.query_id = i;
    e.query_name = "q" + std::to_string(i);
    store.Emit(e);
  }
  EXPECT_EQ(3, store.size());
  EXPECT_EQ(5, store.total());

  // Oldest first; the first two records were evicted.
  const std::vector<std::shared_ptr<const QueryTrace>> all = store.Tail(0);
  ASSERT_EQ(3u, all.size());
  EXPECT_EQ(2, all[0]->query_id);
  EXPECT_EQ(4, all[2]->query_id);
  EXPECT_FALSE(store.Get(1).has_value());
  EXPECT_TRUE(store.Get(2).has_value());

  const std::vector<std::shared_ptr<const QueryTrace>> last = store.Tail(2);
  ASSERT_EQ(2u, last.size());
  EXPECT_EQ(3, last[0]->query_id);
  EXPECT_EQ(4, last[1]->query_id);
}

TEST(QueryLogTest, LogJsonIsParseableAndCarriesDigest) {
  TraceStore store(8);
  QueryTrace e;
  e.query_id = 41;
  e.kind = "query";
  e.query_name = "trap";
  e.signature = "sig-abc";
  e.outcome = "ok";
  e.plan_cache = "miss";
  e.reopts = 2;
  e.checks_fired = 2;
  e.fired_by_flavor[0] = 1;  // LC
  e.fired_by_flavor[2] = 1;  // ECB
  e.result_rows = 7;
  TraceAttempt attempt;
  attempt.plan_text = "HSJN(orders, items)";
  ShardAttemptInfo shard;
  shard.shard = 1;
  shard.execute_ms = 3.25;
  shard.rows = 4;
  shard.outcome = "reoptimize";
  attempt.shards.push_back(shard);
  e.attempts.push_back(std::move(attempt));
  store.Emit(e);

  const std::string array = store.LogJson(0);
  Result<JsonValue> parsed = JsonParse(array, {16, 1000000});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Digest renders as a fixed-width hex string, never 0 for non-empty text.
  EXPECT_NE(std::string::npos, array.find("\"plan_digest\":\""));
  EXPECT_EQ(std::string::npos, array.find("\"plan_digest\":\"0\""));
  EXPECT_NE(std::string::npos, array.find("\"reopts\":2"));
  EXPECT_NE(std::string::npos, array.find("\"LC\":1"));
  EXPECT_NE(std::string::npos, array.find("\"ECB\":1"));
  EXPECT_NE(std::string::npos, array.find("\"distributed\":true"));
  EXPECT_NE(std::string::npos, array.find("\"shard\":1"));
  EXPECT_NE(std::string::npos, array.find("\"outcome\":\"reoptimize\""));
}

TEST(QueryLogTest, PlanTextDigestDistinguishesPlans) {
  const uint64_t a = PlanTextDigest("HSJN(orders, items)");
  const uint64_t b = PlanTextDigest("NLJN(items, orders)");
  EXPECT_NE(a, b);
  EXPECT_NE(0u, a);
  EXPECT_NE(0u, PlanTextDigest(""));  // Offset basis: 0 means "no plan".
}

// Concurrent writers + readers over the bounded ring; run under TSan via
// the ci.sh sanitizer stage. Invariants: size never exceeds capacity,
// total is exact, snapshots are internally consistent. Writers start only
// once every reader has finished one read round: the appends take a few
// milliseconds, so without the latch they could all finish before any
// reader is scheduled, leaving nothing read.
TEST(ObservabilityConcurrencyTest, QueryLogHammer) {
  TraceStore store(/*capacity=*/64);
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> done{false};
  std::atomic<int> readers_ready{0};
  std::atomic<int64_t> read_bytes{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w]() {
      while (readers_ready.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kPerWriter; ++i) {
        QueryTrace e;
        e.query_id = w * kPerWriter + i;
        e.query_name = "hammer";
        e.outcome = (i % 13 == 0) ? "error" : "ok";
        e.reopts = i % 3;
        TraceAttempt attempt;
        attempt.plan_text = "plan" + std::to_string(i % 7);
        if (i % 5 == 0) {
          ShardAttemptInfo s;
          s.shard = i % 4;
          s.rows = i;
          attempt.shards.push_back(s);
        }
        e.attempts.push_back(std::move(attempt));
        store.Emit(e);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&]() {
      bool ready = false;
      while (!done.load(std::memory_order_acquire)) {
        const std::vector<std::shared_ptr<const QueryTrace>> tail =
            store.Tail(16);
        if (tail.size() > 16u) std::abort();
        if (store.size() > store.capacity()) std::abort();
        read_bytes += static_cast<int64_t>(store.LogJson(8).size());
        // Renders a record the writers are about to evict.
        if (!tail.empty()) {
          read_bytes += static_cast<int64_t>(
              store.Get(tail.front()->query_id).value_or("").size());
        }
        if (!ready) {
          ready = true;
          readers_ready.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(kWriters * kPerWriter, store.total());
  EXPECT_EQ(64, store.size());
  EXPECT_GT(read_bytes.load(), 0);
}

}  // namespace
}  // namespace popdb
