// mixed_wire: one net::Client connection to an in-process net::NetServer
// with a txn::WriteManager attached, sending a seeded interleaving of
// read templates and write transactions as SQL text.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/rng.h"
#include "common/span.h"
#include "core/pop.h"
#include "net/client.h"
#include "net/server.h"
#include "opt/optimizer.h"
#include "runtime/session.h"
#include "sql/binder.h"
#include "tpch/tpch_gen.h"
#include "txn/write_manager.h"
#include "txn_mix.h"
#include "workloads.h"

namespace popdb::perfbench {

namespace {

/// Outcome of one DML statement.
struct StmtOutcome {
  bool ok = false;
  int64_t affected = 0;
  double server_ms = 0.0;  ///< Engine-side apply time (reply total_ms).
  std::string error;
};
using StmtRunner = std::function<StmtOutcome(const Stmt&, int64_t op)>;

/// Runs the next transaction of `type`; the sample's latency covers every
/// statement. Each statement's engine time goes to `apply_ms`.
OpSample RunTxn(TxnMix* mix, int type, const StmtRunner& run, int64_t op,
                std::vector<double>* apply_ms) {
  OpSample s;
  s.group = type;
  s.write = true;
  s.traced = SpanTracer::Global().enabled();
  const std::vector<Stmt> stmts = mix->Next(type);
  const Clock::time_point t0 = Clock::now();
  for (const Stmt& st : stmts) {
    const StmtOutcome out = run(st, op);
    s.server_ms += out.server_ms;
    if (apply_ms != nullptr && out.ok) apply_ms->push_back(out.server_ms);
    if (!out.ok || out.affected != st.expect_rows) {
      s.ok = false;
      s.error = out.ok ? "'" + st.sql + "' affected " +
                             std::to_string(out.affected) + " rows, expected " +
                             std::to_string(st.expect_rows)
                       : out.error;
      break;
    }
  }
  s.ms = MsSince(t0);
  if (s.ok) mix->Applied(type);
  return s;
}

/// Table sizes and balance sum the write checks compare against.
struct TxnBaseline {
  int64_t orders = 0;
  int64_t lines = 0;
  double balance_sum = 0.0;
};

double BalanceSum(const Catalog& catalog) {
  Result<sql::BoundStatement> bound =
      sql::ParseSql(catalog, "SELECT SUM(c_acctbal) FROM customer");
  if (!bound.ok()) return 0.0;
  ProgressiveExecutor reference(catalog, OptimizerConfig{}, PopConfig{});
  Result<std::vector<Row>> rows = reference.ExecuteStatic(bound.value().query);
  if (!rows.ok() || rows.value().empty() || rows.value()[0].empty()) {
    return 0.0;
  }
  return rows.value()[0][0].AsNumeric();
}

TxnBaseline ReadBaseline(const Catalog& catalog) {
  return {catalog.GetTable("orders")->live_rows(),
          catalog.GetTable("lineitem")->live_rows(), BalanceSum(catalog)};
}

/// Checks sizes = initial + inserted - deleted and that SUM(c_acctbal)
/// moved by exactly the applied payments; returns the number of failures.
int64_t CheckTxnEffects(const Catalog& catalog, const TxnMix& mix,
                        const TxnBaseline& before, Report* report) {
  int64_t failures = 0;
  auto check_rows = [&](const char* table, int64_t want) {
    const int64_t got = catalog.GetTable(table)->live_rows();
    if (got != want) {
      report->Fail(std::string(table) + " holds " + std::to_string(got) +
                   " rows, expected " + std::to_string(want));
      ++failures;
    }
  };
  check_rows("orders",
             before.orders + mix.orders_inserted() - mix.orders_deleted());
  check_rows("lineitem",
             before.lines + mix.lines_inserted() - mix.lines_deleted());
  const double moved = BalanceSum(catalog) - before.balance_sum;
  const double tolerance = 1e-9 * std::max(1.0, std::fabs(before.balance_sum));
  if (std::fabs(moved - mix.payments_applied()) > tolerance) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "SUM(c_acctbal) moved by %.6f, payments applied %.6f", moved,
                  mix.payments_applied());
    report->Fail(buf);
    ++failures;
  }
  return failures;
}

/// Read templates shaped like TPC-H Q3, Q10 and Q4. The parser rejects '?'
/// inside BETWEEN, hence the ">= ? AND < ?" ranges.
struct ReadTemplate {
  const char* name;
  const char* sql;
};
const ReadTemplate kReads[] = {
    {"q3_shipping",
     "SELECT o_shippriority, COUNT(*), SUM(l_extendedprice) FROM customer, "
     "orders, lineitem WHERE c_custkey = o_custkey AND l_orderkey = "
     "o_orderkey AND c_mktsegment = ? AND o_orderdate < ? AND l_shipdate > ? "
     "GROUP BY o_shippriority"},
    {"q10_returns",
     "SELECT n_name, COUNT(*), SUM(l_extendedprice) FROM customer, orders, "
     "lineitem, nation WHERE c_custkey = o_custkey AND l_orderkey = "
     "o_orderkey AND c_nationkey = n_nationkey AND o_orderdate >= ? AND "
     "o_orderdate < ? AND l_returnflag = ? GROUP BY n_name"},
    {"q4_priority",
     "SELECT o_orderpriority, COUNT(*) FROM orders, lineitem WHERE "
     "l_orderkey = o_orderkey AND o_orderdate >= ? AND o_orderdate < ? AND "
     "l_late = ? GROUP BY o_orderpriority"},
};
constexpr int kReadTemplates = 3;
const char* const kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                  "HOUSEHOLD", "MACHINERY"};

std::vector<Value> ReadParams(int kind, Rng* rng) {
  switch (kind) {
    case 0: {
      const int64_t cutoff = rng->UniformInt(365, 6 * 365);
      return {Value::String(kSegments[rng->UniformInt(0, 4)]),
              Value::Int(cutoff), Value::Int(cutoff)};
    }
    case 1: {
      const int64_t lo = rng->UniformInt(0, 7 * 365 - 92);
      return {Value::Int(lo), Value::Int(lo + 92), Value::String("R")};
    }
    default: {
      const int64_t lo = rng->UniformInt(0, 7 * 365 - 92);
      return {Value::Int(lo), Value::Int(lo + 92), Value::Int(1)};
    }
  }
}

/// Operation i of the seeded stream: even = read, odd = write transaction
/// (new_order, payment, delivery in turn, so every written table stays
/// within one order of its initial size while churning).
class WireStream {
 public:
  struct Op {
    bool write = false;
    int kind = 0;
    std::vector<Value> params;  ///< Reads only.
  };
  WireStream(const Catalog& catalog, uint64_t seed)
      : rng_(seed * 0x2545F4914F6CDD1Dull + 7),
        mix_(catalog, seed) {}

  Op Next(int64_t i) {
    Op op;
    op.write = i % 2 == 1;
    if (op.write) {
      op.kind = static_cast<int>((i / 2) % TxnMix::kTypes);
    } else {
      op.kind = static_cast<int>(rng_.UniformInt(0, kReadTemplates - 1));
      op.params = ReadParams(op.kind, &rng_);
    }
    return op;
  }
  TxnMix* mix() { return &mix_; }

 private:
  Rng rng_;
  TxnMix mix_;
};

/// Trace sink of the server: the TraceStore that backs the wire `trace`
/// request (as popdb_server wires it), plus a by-id copy of each read's
/// engine-side breakdown until the benchmark joins it. The service emits a
/// read's trace before it replies, so joining right after each read keeps
/// the map from growing with the run.
class RecordingSink : public TraceSink {
 public:
  void Emit(const QueryTrace& trace) override {
    store.Emit(trace);
    OpSample s;
    FillFromTrace(trace, &s);
    std::lock_guard<std::mutex> lock(mu_);
    by_id_[trace.query_id] = s;
  }
  /// Moves the engine-side fields into `s` (client fields are kept).
  bool Join(OpSample* s) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_id_.find(s->query_id);
    if (it == by_id_.end()) return false;
    const OpSample e = it->second;
    by_id_.erase(it);
    s->total_ms = e.total_ms;
    s->optimize_ms = e.optimize_ms;
    s->execute_ms = e.execute_ms;
    s->work = e.work;
    s->wasted_work = e.wasted_work;
    s->checks_fired = e.checks_fired;
    s->reopts = e.reopts;
    s->cache_hit = e.cache_hit;
    return true;
  }

  TraceStore store{1024};

 private:
  std::mutex mu_;
  std::unordered_map<int64_t, OpSample> by_id_;
};

struct WireEnv {
  Catalog catalog;
  std::unique_ptr<txn::WriteManager> writes;
  RecordingSink sink;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::NetServer> server;
  std::optional<net::Client> client;

  WireEnv() = default;
  WireEnv(const WireEnv&) = delete;
  WireEnv& operator=(const WireEnv&) = delete;
  ~WireEnv() {
    if (client) client->Close();
    if (server) server->Shutdown();
  }
};

std::unique_ptr<WireEnv> MakeWireEnv(const BuildFn& build, SetupStats* st) {
  auto env = std::make_unique<WireEnv>();
  WireEnv* e = env.get();
  auto start = [e] {
    {
      TraceSpan span("bench.service_start", "perfbench");
      e->writes = std::make_unique<txn::WriteManager>(&e->catalog);
      ServiceConfig config;
      config.trace_sink = &e->sink;
      e->service = std::make_unique<QueryService>(e->catalog, config);
      e->service->AttachWriteManager(e->writes.get());
    }
    {
      TraceSpan span("bench.server_start", "perfbench");
      e->server = std::make_unique<net::NetServer>(
          e->service.get(), &e->sink.store, net::NetServerConfig{});
      const Status s = e->server->Start();
      if (!s.ok()) {
        std::printf("server start failed: %s\n", s.ToString().c_str());
        return false;
      }
    }
    TraceSpan span("bench.client_connect", "perfbench");
    Result<net::Client> c =
        net::Client::Connect("127.0.0.1", e->server->port());
    if (!c.ok()) {
      std::printf("connect failed: %s\n", c.status().ToString().c_str());
      return false;
    }
    e->client.emplace(std::move(c).TakeValue());
    return true;
  };
  if (!TimedSetup(&env->catalog, build, start, st)) return nullptr;
  return env;
}

OpSample RunWireRead(net::Client* client, int kind,
                     const std::vector<Value>& params, int64_t op) {
  OpSample s;
  s.group = kind;
  s.traced = SpanTracer::Global().enabled();
  net::ClientQueryOptions options;
  options.params = params;
  const Clock::time_point t0 = Clock::now();
  net::ClientQueryResult r;
  {
    TraceSpan span("bench.client_query", "perfbench", "op", op);
    r = client->Query(kReads[kind].sql, options);
  }
  s.ms = MsSince(t0);
  s.ok = r.status.ok();
  if (!s.ok) s.error = r.status.ToString();
  s.rows = static_cast<int64_t>(r.rows.size());
  s.query_id = r.query_id;
  s.server_ms = r.total_ms;
  s.total_ms = r.total_ms;
  s.queue_ms = r.queue_ms;
  return s;
}

/// Everything measured over one pass of the stream.
struct WirePhase {
  std::vector<OpSample> ops;  ///< Timed operations only.
  EngineSnapshot at_start;
  EngineSnapshot at_counted;
  double wall_s = 0.0;
  std::vector<double> apply_ms;
  std::vector<double> write_wire_ms;
  std::map<std::string, int64_t> folds_by_table;  ///< Timed phase only.
  int64_t min_orders = INT64_MAX;
  int64_t max_orders = 0;
  int64_t min_lines = INT64_MAX;
  int64_t max_lines = 0;
  int64_t candidates = 0;  ///< DP probe at the end of the counted prefix.
  std::vector<double> dp_ms;
  double peak_rss_mb = 0.0;
};

constexpr int64_t kWireWarmup = 120;
/// Statements per write transaction, at most (new_order, delivery).
constexpr size_t kMaxTxnStmts = 2;

/// Optimizer probe over the counted reads, run in process against the
/// catalog exactly as it stands when the counted prefix ends.
void CountedDpProbe(WireEnv* env, const std::vector<WireStream::Op>& reads,
                    WirePhase* ph) {
  std::vector<QuerySpec> specs;
  for (const WireStream::Op& read : reads) {
    Result<sql::BoundStatement> bound =
        sql::ParseSql(env->catalog, kReads[read.kind].sql, read.params);
    if (bound.ok()) specs.push_back(std::move(bound.value().query));
  }
  std::vector<const QuerySpec*> ptrs;
  for (const QuerySpec& q : specs) ptrs.push_back(&q);
  DpProbe(env->catalog, ptrs, &ph->dp_ms, &ph->candidates);
}

/// Runs the warm-up, then the timed operations until `plan` is over.
void WireRun(WireEnv* env, WireStream* stream, const TimedPlan& plan,
             bool trace, size_t counted_ops, bool probe, WirePhase* ph,
             Report* report) {
  net::Client* client = &*env->client;
  const Table* orders = env->catalog.GetTable("orders");
  const Table* lines = env->catalog.GetTable("lineitem");
  bool timed = false;
  StmtRunner run = [client, ph, &timed](const Stmt& st, int64_t op) {
    StmtOutcome out;
    net::ClientQueryOptions options;
    options.params = st.params;
    const Clock::time_point t0 = Clock::now();
    net::ClientWriteResult r;
    {
      TraceSpan span("bench.client_write", "perfbench", "op", op);
      r = client->Write(st.sql, options);
    }
    const double rtt = MsSince(t0);
    out.ok = r.status.ok();
    out.affected = r.affected_rows;
    out.server_ms = r.total_ms;
    if (!out.ok) out.error = r.status.ToString();
    if (timed) {
      ph->write_wire_ms.push_back(rtt - r.total_ms);
      if (r.stats_folded) ++ph->folds_by_table[st.table];
    }
    return out;
  };
  // The driver's own bookkeeping must not grow with throughput.
  ph->ops.reserve(plan.ops);
  ph->apply_ms.reserve(kMaxTxnStmts * plan.ops);
  ph->write_wire_ms.reserve(kMaxTxnStmts * plan.ops);
  std::vector<WireStream::Op> counted_reads;
  Clock::time_point t0 = Clock::now();
  for (int64_t i = 0;; ++i) {
    const int64_t op = i - kWireWarmup;
    if (op == 0) {
      timed = true;
      ph->at_start = Snap(env->service.get(), env->writes->stats_folds());
      t0 = Clock::now();
    }
    if (timed && plan.Over(ph->ops.size(), t0)) break;
    // Alternate in read+write pairs so both kinds are traced half the time.
    if (timed) SetTracing(trace && (op / 2) % 2 == 0);
    WireStream::Op next = stream->Next(i);
    OpSample s;
    if (next.write) {
      s = RunTxn(stream->mix(), next.kind, run, op,
                 timed ? &ph->apply_ms : nullptr);
      if (timed) {
        ph->min_orders = std::min(ph->min_orders, orders->live_rows());
        ph->max_orders = std::max(ph->max_orders, orders->live_rows());
        ph->min_lines = std::min(ph->min_lines, lines->live_rows());
        ph->max_lines = std::max(ph->max_lines, lines->live_rows());
      }
    } else {
      s = RunWireRead(client, next.kind, next.params, op);
      if (s.ok && !env->sink.Join(&s)) {
        report->Fail("no engine trace for query " + std::to_string(s.query_id));
      }
      if (timed && static_cast<size_t>(op) < counted_ops) {
        counted_reads.push_back(next);
      }
    }
    if (!s.ok) {
      report->Fail(std::string(next.write ? TxnMix::TypeName(next.kind)
                                          : kReads[next.kind].name) +
                   " (op " + std::to_string(op) + "): " + s.error);
    }
    if (!timed) continue;
    s.end_s = MsSince(t0) / 1000.0;
    ph->ops.push_back(std::move(s));
    if (ph->ops.size() == counted_ops) {
      ph->at_counted = Snap(env->service.get(), env->writes->stats_folds());
      if (probe) CountedDpProbe(env, counted_reads, ph);
    }
  }
  ph->wall_s = MsSince(t0) / 1000.0;
  ph->peak_rss_mb = PeakRssMb();
  SetTracing(trace);
}

/// Each read template, with three seeded bindings, over the wire against
/// the static reference on the final catalog.
int64_t CheckReads(WireEnv* env, uint64_t seed, Report* report) {
  ProgressiveExecutor reference(env->catalog, OptimizerConfig{}, PopConfig{});
  Rng rng(seed + 99);
  int64_t failures = 0;
  for (int kind = 0; kind < kReadTemplates; ++kind) {
    for (int b = 0; b < 3; ++b) {
      const std::vector<Value> params = ReadParams(kind, &rng);
      net::ClientQueryOptions options;
      options.params = params;
      const net::ClientQueryResult got =
          env->client->Query(kReads[kind].sql, options);
      Result<sql::BoundStatement> bound =
          sql::ParseSql(env->catalog, kReads[kind].sql, params);
      std::string diff;
      if (!got.status.ok()) {
        diff = got.status.ToString();
      } else if (!bound.ok()) {
        diff = bound.status().ToString();
      } else {
        Result<std::vector<Row>> want =
            reference.ExecuteStatic(bound.value().query);
        diff = want.ok() ? CompareRows(got.rows, want.value())
                         : want.status().ToString();
      }
      if (!diff.empty()) {
        report->Fail(std::string(kReads[kind].name) +
                     " differs from the reference: " + diff);
        ++failures;
      }
    }
  }
  return failures;
}

/// Times sql::ParseSqlStatement on every statement text the timed run
/// sent, regenerating the stream from its seed.
std::vector<double> ParseBindProbe(const Catalog& catalog, uint64_t seed,
                                   int64_t total_ops) {
  std::vector<double> us;
  WireStream stream(catalog, seed);
  auto time_one = [&](const std::string& sql, const std::vector<Value>& ps,
                      int64_t op) {
    TraceSpan span("bench.parse_bind_probe", "perfbench", "op", op);
    const Clock::time_point t0 = Clock::now();
    Result<sql::BoundStatement> bound =
        sql::ParseSqlStatement(catalog, sql, ps);
    us.push_back(MsSince(t0) * 1000.0);
    (void)bound;
  };
  for (int64_t i = 0; i < total_ops; ++i) {
    WireStream::Op next = stream.Next(i);
    if (!next.write) {
      time_one(kReads[next.kind].sql, next.params, i);
      continue;
    }
    for (const Stmt& st : stream.mix()->Next(next.kind)) {
      time_one(st.sql, st.params, i);
    }
    stream.mix()->Applied(next.kind);
  }
  return us;
}

}  // namespace

void RunMixedWire(const Options& o, const WorkloadSpec& w, Report* report) {
  tpch::GenConfig gen;
  gen.scale = w.scale;
  if (o.data_seed != 0) gen.seed = o.data_seed;
  std::printf("provenance: data_seed=%llu scale=%g\n",
              static_cast<unsigned long long>(gen.seed), gen.scale);
  const BuildFn build = [gen](Catalog* c) {
    return tpch::BuildCatalog(gen, c);
  };
  const EnvFactory<WireEnv> make = [&build](SetupStats* st) {
    return MakeWireEnv(build, st);
  };
  const TimedPlan plan = TimedPlan::For(w, o.seconds);
  const size_t counted = std::min<size_t>(w.counted_ops, plan.ops);

  SetupStats st;
  std::unique_ptr<WireEnv> env = SetupBefore(make, w, &st);
  if (env == nullptr) return report->Fail("setup failed");
  WireStream stream(env->catalog, o.seed);
  const TxnBaseline before = ReadBaseline(env->catalog);
  WirePhase ph;
  WireRun(env.get(), &stream, plan, o.trace, counted, o.trace, &ph, report);
  plan.Report(ph.ops.size());
  CheckCounted(ph.ops.size(), counted, report);
  std::printf("timed phase: %zu operations in %.2f s\n", ph.ops.size(),
              ph.wall_s);
  CheckHalves(ph.ops, true);
  std::vector<std::string> names;
  for (const ReadTemplate& r : kReads) names.push_back(r.name);
  PrintGroups(ph.ops, false, names);
  names.clear();
  for (int t = 0; t < TxnMix::kTypes; ++t) names.push_back(TxnMix::TypeName(t));
  PrintGroups(ph.ops, true, names);

  // Size bands and statistics folds during the timed phase.
  const double band = 0.05;
  auto in_band = [band](int64_t lo, int64_t hi, int64_t base) {
    return static_cast<double>(lo) >= (1.0 - band) * static_cast<double>(base) &&
           static_cast<double>(hi) <= (1.0 + band) * static_cast<double>(base);
  };
  if (!in_band(ph.min_orders, ph.max_orders, before.orders) ||
      !in_band(ph.min_lines, ph.max_lines, before.lines)) {
    report->Fail("a written table left its +-5% size band");
  }
  for (const char* table : {"orders", "lineitem", "customer"}) {
    std::printf("stats folds in the timed phase: %s %lld\n", table,
                static_cast<long long>(ph.folds_by_table[table]));
    if (ph.folds_by_table[table] == 0) {
      report->Fail(std::string(table) +
                   " never folded statistics during the timed phase");
    }
  }

  // Correctness after the stream.
  int64_t mismatches = CheckTxnEffects(env->catalog, *stream.mix(), before,
                                       report);
  mismatches += CheckReads(env.get(), o.seed, report);

  int64_t failed_ops = 0;
  for (const OpSample& s : ph.ops) failed_ops += s.ok ? 0 : 1;
  report->attempted = static_cast<int64_t>(ph.ops.size());
  report->failed = failed_ops + mismatches;
  const Quantiles read = LatencyQuantiles(ph.ops, false, true);
  const Quantiles write = LatencyQuantiles(ph.ops, true, true);
  if (!read.enough || !write.enough) {
    std::printf("WARNING: fewer than 10 samples beyond p90 in some set\n");
  }
  std::printf("samples: %zu ops (read min %zu, write min %zu per set)\n",
              ph.ops.size(), read.min_samples, write.min_samples);

  LayerResults layers;
  if (o.trace) {
    ReadLayers(ph.ops, &layers);
    layers.counters = CountOps(ph.ops, 0, counted, ph.at_start, ph.at_counted);
    layers.counters.candidates = ph.candidates;
    layers.dp_ms = PooledQuantiles(ph.dp_ms);
    layers.apply_ms = PooledQuantiles(ph.apply_ms);
    layers.write_wire_ms = PooledQuantiles(ph.write_wire_ms);
    std::vector<double> read_wire;
    for (const OpSample& s : ph.ops) {
      if (!s.write && s.ok) read_wire.push_back(s.ms - s.server_ms);
    }
    layers.read_wire_ms = PooledQuantiles(read_wire);
    layers.bytes_per_op =
        static_cast<double>(ph.at_counted.net_bytes - ph.at_start.net_bytes) /
        static_cast<double>(std::max<size_t>(1, counted));
    const ServiceStatsSnapshot stats = env->service->Stats();
    layers.failed_ops = static_cast<double>(stats.failed + stats.rejected +
                                            stats.cancelled +
                                            stats.deadline_expired);
    layers.parse_bind_us = PooledQuantiles(ParseBindProbe(
        env->catalog, o.seed,
        kWireWarmup + static_cast<int64_t>(ph.ops.size())));
    const Quantiles on = LatencyQuantiles(ph.ops, false, true, 1);
    const Quantiles off = LatencyQuantiles(ph.ops, false, true, 0);
    layers.trace_overhead = off.p50 > 0 ? on.p50 / off.p50 : 0.0;
    std::printf("tracing overhead: traced read_p50 %.4f ms / untraced %.4f "
                "ms\n", on.p50, off.p50);
  }
  env.reset();

  if (o.trace) {
    // Replay the warm-up and the counted prefix on a fresh instance.
    SetTracing(false);
    SetupStats replay_st;
    std::unique_ptr<WireEnv> fresh = MakeWireEnv(build, &replay_st);
    if (fresh == nullptr) return report->Fail("replay setup failed");
    WireStream replay_stream(fresh->catalog, o.seed);
    WirePhase again;
    WireRun(fresh.get(), &replay_stream, TimedPlan::Exactly(counted), false,
            counted, true, &again, report);
    Counters replay =
        CountOps(again.ops, 0, counted, again.at_start, again.at_counted);
    replay.candidates = again.candidates;
    CompareReplay(layers.counters, replay, report);
    SetTracing(true);
  }

  SetupAfter(make, w, &st);
  PrintSetups(st);
  if (o.trace) {
    layers.build_s = Median(st.build_s);
    layers.catalog_mb = st.catalog_mb;
    EmitLayerMetrics(layers, report);
    return;
  }
  // Write latency is printed, not gated: only this workload has writes,
  // and every gated metric must exist on every workload.
  std::printf("write_p50_ms %.6f ms, write_p90_ms %.6f ms\n", write.p50,
              write.p90);
  EndToEnd e;
  e.setup_s = Median(st.setup_s);
  e.peak_rss_mb = ph.peak_rss_mb;
  e.ops_per_s = WindowedRate(ph.ops);
  e.read = read;
  EmitEndToEnd(e, report);
}

}  // namespace popdb::perfbench
