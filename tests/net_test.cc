// End-to-end tests of the network front end: wire framing, the request
// protocol, session bookkeeping, cancellation and deadlines over TCP,
// malformed-input hardening, and cooperative shutdown. Every test runs a
// real NetServer on a loopback ephemeral port.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/span.h"
#include "common/string_util.h"
#include "net/client.h"
#include "net/server.h"
#include "sql/binder.h"
#include "tests/test_util.h"
#include "txn/write_manager.h"

namespace popdb {
namespace {

/// Orders table with 20 classes plus a pair of big tables whose equi-join
/// (50 hot keys, 8000 rows per side) runs long enough that a cancel or a
/// short deadline always lands mid-execution.
void BuildNetCatalog(Catalog* catalog) {
  Rng rng(7);
  Table orders("orders", Schema({{"o_id", ValueType::kInt},
                                 {"o_class", ValueType::kInt}}));
  for (int64_t i = 0; i < 2000; ++i) {
    orders.AppendRow({Value::Int(i), Value::Int(i % 20)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(orders)).ok());
  Table big_a("big_a",
              Schema({{"a_k", ValueType::kInt}, {"a_v", ValueType::kInt}}));
  Table big_b("big_b",
              Schema({{"b_k", ValueType::kInt}, {"b_v", ValueType::kInt}}));
  for (int64_t i = 0; i < 8000; ++i) {
    big_a.AppendRow({Value::Int(rng.UniformInt(0, 49)), Value::Int(i)});
    big_b.AppendRow({Value::Int(rng.UniformInt(0, 49)), Value::Int(i)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(big_a)).ok());
  POPDB_DCHECK(catalog->AddTable(std::move(big_b)).ok());
  catalog->AnalyzeAll();
}

constexpr const char* kSlowSql =
    "SELECT a_k, COUNT(*) FROM big_a, big_b WHERE a_k = b_k GROUP BY a_k";

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildNetCatalog(&catalog_);
    ServiceConfig service_config;
    service_config.share_feedback = true;
    service_config.trace_sink = &traces_;
    service_ = std::make_unique<QueryService>(catalog_, service_config);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    if (service_ != nullptr) service_->Shutdown(/*drain=*/false);
  }

  /// Starts the server with `config` (host/port are pinned to loopback +
  /// ephemeral) and returns its port.
  int StartServer(net::NetServerConfig config = {}) {
    config.host = "127.0.0.1";
    config.port = 0;
    server_ = std::make_unique<net::NetServer>(service_.get(), &traces_,
                                               config);
    const Status s = server_->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
    return server_->port();
  }

  net::Client Connect() {
    Result<net::Client> c = net::Client::Connect("127.0.0.1",
                                                 server_->port());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).TakeValue();
  }

  Catalog catalog_;
  TraceStore traces_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<net::NetServer> server_;
};

// ----------------------------------------------------------- handshake

TEST_F(NetTest, HandshakeAssignsDistinctSessions) {
  StartServer();
  net::Client a = Connect();
  net::Client b = Connect();
  EXPECT_GT(a.session_id(), 0u);
  EXPECT_GT(b.session_id(), 0u);
  EXPECT_NE(a.session_id(), b.session_id());
  EXPECT_EQ(2, server_->sessions().open_sessions());
  a.Close();
  b.Close();
}

TEST_F(NetTest, WrongProtocolVersionIsRejected) {
  StartServer();
  Result<int> fd = net::ConnectTcp("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(fd.ok());
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("hello");
  w.Key("protocol").Int(net::kProtocolVersion + 7);
  w.EndObject();
  ASSERT_TRUE(net::WriteFrame(fd.value(), w.str(), 2000.0).ok());
  net::FrameResult reply =
      net::ReadFrame(fd.value(), net::kAbsoluteMaxFrameBytes, 2000.0);
  ASSERT_TRUE(reply.ok());
  Result<JsonValue> parsed = JsonParse(reply.payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ("error", parsed.value().GetString("type", ""));
  EXPECT_EQ("invalid_argument", parsed.value().GetString("code", ""));
  net::CloseFd(fd.value());
}

TEST_F(NetTest, RequestBeforeHelloIsRejected) {
  StartServer();
  Result<int> fd = net::ConnectTcp("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(fd.ok());
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("metrics");
  w.EndObject();
  ASSERT_TRUE(net::WriteFrame(fd.value(), w.str(), 2000.0).ok());
  net::FrameResult reply =
      net::ReadFrame(fd.value(), net::kAbsoluteMaxFrameBytes, 2000.0);
  ASSERT_TRUE(reply.ok());
  Result<JsonValue> parsed = JsonParse(reply.payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ("error", parsed.value().GetString("type", ""));
  EXPECT_NE(std::string::npos,
            parsed.value().GetString("message", "").find("hello"));
  net::CloseFd(fd.value());
}

// ------------------------------------------------------------ streaming

TEST_F(NetTest, StreamedRowsMatchInProcessExecution) {
  StartServer();
  const std::string sql =
      "SELECT o_class, COUNT(*) FROM orders GROUP BY o_class ORDER BY 1";

  Result<sql::BoundStatement> bound = sql::ParseSql(catalog_, sql);
  ASSERT_TRUE(bound.ok());
  QueryResult expected =
      service_->ExecuteSync(std::move(bound.value().query));
  ASSERT_TRUE(expected.status.ok());

  net::Client client = Connect();
  // batch_rows=3 over 20 groups forces several row_batch frames.
  net::ClientQueryOptions opts;
  opts.batch_rows = 3;
  net::ClientQueryResult got = client.Query(sql, opts);
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ("ok", got.outcome);
  EXPECT_EQ(testing::Canonicalize(expected.rows),
            testing::Canonicalize(got.rows));
  client.Close();
}

TEST_F(NetTest, ParameterMarkersBindOverTheWire) {
  StartServer();
  net::Client client = Connect();
  net::ClientQueryOptions opts;
  opts.params.push_back(Value::Int(3));
  net::ClientQueryResult got =
      client.Query("SELECT COUNT(*) FROM orders WHERE o_class = ?", opts);
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  ASSERT_EQ(1u, got.rows.size());
  EXPECT_EQ(100, got.rows[0][0].AsInt());  // 2000 rows over 20 classes.
  client.Close();
}

TEST_F(NetTest, SqlErrorsCarryAnnotatedMessageAndKeepConnection) {
  StartServer();
  net::Client client = Connect();
  net::ClientQueryResult bad = client.Query("SELECT zap FROM orders");
  EXPECT_FALSE(bad.status.ok());
  // The connection survives: the same session keeps working.
  net::ClientQueryResult good = client.Query("SELECT COUNT(*) FROM orders");
  EXPECT_TRUE(good.status.ok()) << good.status.ToString();
  client.Close();
}

// --------------------------------------------------- cancel + deadlines

TEST_F(NetTest, CancelFromSecondConnectionStopsRunningQuery) {
  StartServer();
  net::Client runner = Connect();
  Result<int64_t> id = runner.QueryAsync(kSlowSql);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Query ids are process-wide: a different session can cancel.
  net::Client killer = Connect();
  Result<bool> found = killer.Cancel(id.value());
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found.value());

  net::ClientQueryResult result = runner.Wait(id.value());
  EXPECT_EQ(StatusCode::kCancelled, result.status.code());
  EXPECT_EQ("cancelled", result.outcome);
  runner.Close();
  killer.Close();
}

TEST_F(NetTest, DeadlineExpiresMidQuery) {
  StartServer();
  net::Client client = Connect();
  net::ClientQueryOptions opts;
  opts.deadline_ms = 5.0;
  net::ClientQueryResult result = client.Query(kSlowSql, opts);
  EXPECT_EQ(StatusCode::kDeadlineExceeded, result.status.code());
  EXPECT_EQ("deadline", result.outcome);
  client.Close();
}

TEST_F(NetTest, CancelUnknownQueryReportsNotFound) {
  StartServer();
  net::Client client = Connect();
  Result<bool> found = client.Cancel(987654321);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found.value());
  client.Close();
}

TEST_F(NetTest, PerSessionInflightBoundRejectsExcessQueries) {
  net::NetServerConfig config;
  config.max_inflight_per_session = 1;
  StartServer(config);
  net::Client client = Connect();
  Result<int64_t> first = client.QueryAsync(kSlowSql);
  ASSERT_TRUE(first.ok());
  // Second submission in the same session exceeds the bound.
  Result<int64_t> second = client.QueryAsync(kSlowSql);
  EXPECT_EQ(StatusCode::kResourceExhausted, second.status().code());
  // The rejected submission was rolled back, not leaked: the first query
  // is still the only one in flight and remains collectable.
  ASSERT_TRUE(client.Cancel(first.value()).ok());
  net::ClientQueryResult r = client.Wait(first.value());
  EXPECT_EQ(StatusCode::kCancelled, r.status.code());
  client.Close();
}

// --------------------------------------------------- trace and metrics

TEST_F(NetTest, TraceRoundTripForFinishedQuery) {
  StartServer();
  net::Client client = Connect();
  net::ClientQueryResult r =
      client.Query("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(r.status.ok());
  Result<std::string> trace = client.Trace(r.query_id);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  Result<JsonValue> parsed = JsonParse(trace.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(r.query_id, parsed.value().GetInt("query_id", -1));

  Result<std::string> missing = client.Trace(424242);
  EXPECT_EQ(StatusCode::kNotFound, missing.status().code());
  client.Close();
}

TEST_F(NetTest, MetricsExposeNetFamilies) {
  StartServer();
  net::Client client = Connect();
  ASSERT_TRUE(client.Query("SELECT COUNT(*) FROM orders").status.ok());
  Result<std::string> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(std::string::npos,
            metrics.value().find("popdb_net_connections_total"));
  EXPECT_NE(std::string::npos,
            metrics.value().find("popdb_net_queries_total"));
  EXPECT_NE(std::string::npos,
            metrics.value().find("popdb_net_bytes_written_total"));
  client.Close();
}

// --------------------------------------- spans, query log, trace token

TEST_F(NetTest, SpansRoundTripCarriesClientTraceToken) {
  StartServer();
  net::Client client = Connect();

  // Remote tracer control: enable, run a labeled query, export, clear.
  SpanTracer::Global().Clear();
  net::ClientSpansOptions enable_opts;
  enable_opts.enable = 1;
  ASSERT_TRUE(client.Spans(enable_opts).ok());

  net::ClientQueryOptions opts;
  opts.trace_token = "tok-net-1";
  ASSERT_TRUE(
      client.Query("SELECT COUNT(*) FROM orders", opts).status.ok());

  net::ClientSpansOptions dump_opts;
  dump_opts.clear = true;
  dump_opts.enable = 0;
  Result<net::ClientSpanDump> dump = client.Spans(dump_opts);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_GT(dump.value().event_count, 0);
  EXPECT_GT(dump.value().now_us, 0);
  Result<JsonValue> parsed = JsonParse(dump.value().trace_json,
                                       {32, 2000000});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The service's "query" span carries the client-chosen token.
  EXPECT_NE(std::string::npos,
            dump.value().trace_json.find("\"label\":\"tok-net-1\""));

  // `clear` dropped the buffer: a fresh dump is empty.
  Result<net::ClientSpanDump> after = client.Spans();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(0, after.value().event_count);
  EXPECT_FALSE(SpanTracer::Global().enabled());

  // A plain server has no cluster observability hook.
  net::ClientSpansOptions cluster_opts;
  cluster_opts.cluster = true;
  Result<net::ClientSpanDump> cluster = client.Spans(cluster_opts);
  EXPECT_EQ(StatusCode::kUnimplemented, cluster.status().code());
  client.Close();
}

TEST_F(NetTest, QueryLogRoundTripRecordsFinishedQueries) {
  StartServer();
  net::Client client = Connect();
  ASSERT_TRUE(client.Query("SELECT COUNT(*) FROM orders").status.ok());
  ASSERT_TRUE(
      client.Query("SELECT o_class FROM orders WHERE o_id = 1").status.ok());

  Result<std::string> all = client.QueryLogTail(0);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  Result<JsonValue> parsed = JsonParse(all.value(), {16, 100000});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(JsonValue::Kind::kArray, parsed.value().kind());
  int entries = 0;
  for (const JsonValue& entry : parsed.value().items()) {
    ++entries;
    EXPECT_EQ("query", entry.GetString("kind", ""));
    EXPECT_EQ("ok", entry.GetString("outcome", ""));
    EXPECT_FALSE(entry.GetString("plan_digest", "").empty());
  }
  EXPECT_EQ(2, entries);

  // limit=1 returns only the most recent entry.
  Result<std::string> last = client.QueryLogTail(1);
  ASSERT_TRUE(last.ok());
  Result<JsonValue> last_parsed = JsonParse(last.value(), {16, 100000});
  ASSERT_TRUE(last_parsed.ok());
  int last_count = 0;
  for (const JsonValue& entry : last_parsed.value().items()) {
    (void)entry;
    ++last_count;
  }
  EXPECT_EQ(1, last_count);
  client.Close();
}

// Key sequences of the `trace` and `query_log` views over the wire, for a
// read planned by DP, the same read served from the plan cache, and a
// write. The table pins the wire format: clients parse these views, so a
// change to a key or its order is a protocol change.
TEST_F(NetTest, RecordViewsKeepTheirKeys) {
  txn::WriteManager writes(&catalog_);
  service_->AttachWriteManager(&writes);
  StartServer();
  net::Client client = Connect();
  const std::string sql =
      "SELECT o_class, COUNT(*) FROM orders WHERE o_id < 500 GROUP BY o_class";
  const net::ClientQueryResult cold = client.Query(sql);
  // The first run's feedback moves the digest (a stale miss); the third
  // run is served from the cache.
  ASSERT_TRUE(client.Query(sql).status.ok());
  const net::ClientQueryResult warm = client.Query(sql);
  const net::ClientWriteResult write =
      client.Write("INSERT INTO orders VALUES (5000, 3)");
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  ASSERT_TRUE(write.status.ok()) << write.status.ToString();
  EXPECT_EQ("miss_cold", cold.plan_cache);
  EXPECT_EQ("hit", warm.plan_cache);

  const auto trace_keys = [&client](int64_t query_id) {
    Result<std::string> trace = client.Trace(query_id);
    return trace.ok() ? testing::JsonKeySequence(trace.value())
                      : trace.status().ToString();
  };
  Result<std::string> log = client.QueryLogTail(0);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  const std::string read_trace =
      "query_id,query,session,priority,outcome,shared_feedback,latency_ms,"
      "latency_ms.queue,latency_ms.optimize,latency_ms.execute,"
      "latency_ms.total,work,result_rows,reopts,"
      "check_events,checks_fired,plan_cache";
  const std::string attempt =
      "attempts[].plan,attempts[].optimize_ms,attempts[].execute_ms,"
      "attempts[].work,attempts[].rows_returned,attempts[].reoptimized,"
      "attempts[].profile";
  EXPECT_EQ(read_trace + ",attempts," + attempt,
            trace_keys(cold.query_id));
  EXPECT_EQ(read_trace + ",plan_cache_age_ms,attempts," + attempt,
            trace_keys(warm.query_id));
  const std::string read_log =
      "query_id,end_ms,kind,query,signature,plan_digest,outcome,plan_cache,"
      "reopts,checks_fired,queue_ms,optimize_ms,execute_ms,total_ms,"
      "result_rows,peak_qerror,distributed";
  EXPECT_EQ(read_log,
            testing::LogEntryKeySequence(log.value(), cold.query_id));
  EXPECT_EQ(read_log,
            testing::LogEntryKeySequence(log.value(), warm.query_id));
  EXPECT_EQ(
      "query_id,end_ms,kind,query,outcome,plan_cache,reopts,checks_fired,"
      "queue_ms,optimize_ms,execute_ms,total_ms,result_rows,affected_rows,"
      "distributed",
      testing::LogEntryKeySequence(log.value(), write.query_id));
  client.Close();
  server_->Shutdown();
  service_->AttachWriteManager(nullptr);
}

// Writes land in the server's trace store, so `trace` resolves a write id
// to the write's own record.
TEST_F(NetTest, TraceResolvesWriteIds) {
  txn::WriteManager writes(&catalog_);
  service_->AttachWriteManager(&writes);
  StartServer();
  net::Client client = Connect();
  const net::ClientWriteResult write =
      client.Write("INSERT INTO orders VALUES (5001, 4)");
  ASSERT_TRUE(write.status.ok()) << write.status.ToString();
  Result<std::string> trace = client.Trace(write.query_id);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  Result<JsonValue> parsed = JsonParse(trace.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(write.query_id, parsed.value().GetInt("query_id", -1));
  EXPECT_EQ("insert orders", parsed.value().GetString("query", ""));
  EXPECT_EQ("ok", parsed.value().GetString("outcome", ""));
  EXPECT_EQ(static_cast<int64_t>(client.session_id()),
            parsed.value().GetInt("session", -1));
  client.Close();
  server_->Shutdown();
  service_->AttachWriteManager(nullptr);
}

// The query log is the server's trace store: without one, `query_log`
// answers not_found like `trace` does.
TEST_F(NetTest, QueryLogIsNotFoundWithoutTraceStore) {
  net::NetServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  server_ = std::make_unique<net::NetServer>(service_.get(), nullptr, config);
  ASSERT_TRUE(server_->Start().ok());
  net::Client client = Connect();
  const net::ClientQueryResult read =
      client.Query("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(read.status.ok()) << read.status.ToString();
  EXPECT_EQ(StatusCode::kNotFound, client.QueryLogTail(0).status().code());
  EXPECT_EQ(StatusCode::kNotFound,
            client.Trace(read.query_id).status().code());
  client.Close();
}

TEST_F(NetTest, MetricsClusterFlagIsUnimplementedWithoutCoordinator) {
  StartServer();
  net::Client client = Connect();
  Result<std::string> federated = client.Metrics(/*cluster=*/true);
  EXPECT_EQ(StatusCode::kUnimplemented, federated.status().code());
  client.Close();
}

// ------------------------------------------------- malformed framing

TEST_F(NetTest, GarbageJsonGetsErrorFrameAndConnectionSurvives) {
  StartServer();
  net::Client client = Connect();
  ASSERT_TRUE(client.SendRaw("this is not json {").ok());
  net::FrameResult reply = client.ReadRaw();
  ASSERT_TRUE(reply.ok());
  Result<JsonValue> parsed = JsonParse(reply.payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ("error", parsed.value().GetString("type", ""));
  // Framing stayed sound, so the session keeps working.
  EXPECT_TRUE(client.Query("SELECT COUNT(*) FROM orders").status.ok());
  client.Close();
}

TEST_F(NetTest, NonObjectPayloadIsRejected) {
  StartServer();
  net::Client client = Connect();
  ASSERT_TRUE(client.SendRaw("[1,2,3]").ok());
  net::FrameResult reply = client.ReadRaw();
  ASSERT_TRUE(reply.ok());
  Result<JsonValue> parsed = JsonParse(reply.payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ("error", parsed.value().GetString("type", ""));
  client.Close();
}

TEST_F(NetTest, OversizedFrameIsRefusedWithoutAllocation) {
  net::NetServerConfig config;
  config.max_frame_bytes = 1024;
  StartServer(config);
  net::Client client = Connect();
  // Announce a 512 MiB payload; the server must reject on the prefix
  // alone (never allocating or reading the body) and close.
  const uint32_t huge = 512u << 20;
  std::string prefix(4, '\0');
  prefix[0] = static_cast<char>((huge >> 24) & 0xff);
  prefix[1] = static_cast<char>((huge >> 16) & 0xff);
  prefix[2] = static_cast<char>((huge >> 8) & 0xff);
  prefix[3] = static_cast<char>(huge & 0xff);
  ASSERT_TRUE(client.SendBytes(prefix).ok());
  net::FrameResult reply = client.ReadRaw();
  ASSERT_TRUE(reply.ok());
  Result<JsonValue> parsed = JsonParse(reply.payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ("error", parsed.value().GetString("type", ""));
  // The server hangs up after an oversized announcement.
  net::FrameResult eof = client.ReadRaw();
  EXPECT_EQ(net::FrameStatus::kEof, eof.status);
}

TEST_F(NetTest, UnknownRequestTypeGetsUnimplemented) {
  StartServer();
  net::Client client = Connect();
  ASSERT_TRUE(client.SendRaw("{\"type\":\"teleport\"}").ok());
  net::FrameResult reply = client.ReadRaw();
  ASSERT_TRUE(reply.ok());
  Result<JsonValue> parsed = JsonParse(reply.payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ("unimplemented", parsed.value().GetString("code", ""));
  client.Close();
}

TEST_F(NetTest, ShutdownRequestIsGatedByConfig) {
  StartServer();  // allow_shutdown_request defaults to false.
  net::Client client = Connect();
  EXPECT_FALSE(client.RequestShutdown().ok());
  EXPECT_FALSE(server_->shutdown_requested());
  client.Close();
}

// ------------------------------------------------------------ shutdown

TEST_F(NetTest, ShutdownCancelsInFlightQueriesAndJoins) {
  StartServer();
  net::Client client = Connect();
  Result<int64_t> id = client.QueryAsync(kSlowSql);
  ASSERT_TRUE(id.ok());
  // Shutdown with the query still running: it must cancel the ticket,
  // close the connection, and join every thread without hanging.
  server_->Shutdown();
  EXPECT_EQ(0, server_->sessions().inflight_queries());
  EXPECT_EQ(0, server_->sessions().open_sessions());
}

TEST_F(NetTest, OverloadShedsConnectionsBeyondPendingCap) {
  net::NetServerConfig config;
  config.num_workers = 1;
  config.max_pending_connections = 1;
  StartServer(config);
  // Worker 1 is parked on a long query; further connections stack up in
  // the pending queue (cap 1) and the rest are shed at accept time.
  net::Client busy = Connect();
  Result<int64_t> id = busy.QueryAsync(kSlowSql);
  ASSERT_TRUE(id.ok());
  std::ignore = busy.SendRaw(
      StrFormat("{\"type\":\"wait\",\"query_id\":%lld}",
                static_cast<long long>(id.value())));

  // These connect() calls succeed at the TCP level (backlog), but the
  // server closes the shed ones before serving them.
  std::vector<int> fds;
  for (int i = 0; i < 6; ++i) {
    Result<int> fd = net::ConnectTcp("127.0.0.1", server_->port(), 2000.0);
    if (fd.ok()) fds.push_back(fd.value());
  }
  // Give the acceptor a moment to drain the backlog.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (const int fd : fds) net::CloseFd(fd);
  std::ignore = busy.Cancel(id.value());
  busy.Close();
  server_->Shutdown();
  EXPECT_GT(service_->metrics_registry()
                .GetCounter("popdb_net_connections_shed_total", "")
                ->value(),
            0);
}

// ------------------------------------------------------------- hammer

TEST_F(NetTest, ConcurrentSessionsHammer) {
  net::NetServerConfig config;
  config.num_workers = 8;
  StartServer(config);
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 12;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      Result<net::Client> client =
          net::Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kQueriesPerClient; ++i) {
        net::ClientQueryOptions opts;
        opts.params.push_back(Value::Int((c + i) % 20));
        net::ClientQueryResult r = client.value().Query(
            "SELECT COUNT(*) FROM orders WHERE o_class = ?", opts);
        if (!r.status.ok() || r.rows.size() != 1 ||
            r.rows[0][0].AsInt() != 100) {
          failures.fetch_add(1);
        }
      }
      client.value().Close();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(0, server_->sessions().open_sessions());
  EXPECT_EQ(kClients * kQueriesPerClient,
            service_->metrics_registry()
                .GetCounter("popdb_net_queries_total", "")
                ->value());
}

// ------------------------------------------------------- connect retry

TEST_F(NetTest, RefusedConnectFailsUnavailableWithoutRetry) {
  StartServer();
  const int dead_port = server_->port();
  server_->Shutdown();
  server_ = nullptr;
  net::ClientConnectOptions options;
  options.retry_refused = false;
  options.connect_timeout_ms = 1000.0;
  Result<net::Client> c =
      net::Client::Connect("127.0.0.1", dead_port, options);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(StatusCode::kUnavailable, c.status().code())
      << c.status().ToString();
}

TEST_F(NetTest, ConnectRetriesOnceWhenListenerBindsLate) {
  // Grab the port of a live server, kill it, then resurrect it on the same
  // port while the client is sleeping between its first (refused) connect
  // and its single retry — the coordinator/shard startup race.
  StartServer();
  const int port = server_->port();
  server_->Shutdown();
  server_ = nullptr;
  std::thread late_bind([this, port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    net::NetServerConfig config;
    config.host = "127.0.0.1";
    config.port = port;
    server_ = std::make_unique<net::NetServer>(service_.get(), &traces_,
                                               config);
    EXPECT_TRUE(server_->Start().ok());
  });
  net::ClientConnectOptions options;
  options.retry_refused = true;
  options.retry_delay_ms = 400.0;
  Result<net::Client> c = net::Client::Connect("127.0.0.1", port, options);
  late_bind.join();
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_GT(c.value().session_id(), 0u);
  c.value().Close();
}

}  // namespace
}  // namespace popdb
