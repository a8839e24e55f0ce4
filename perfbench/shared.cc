#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "common/span.h"
#include "opt/optimizer.h"
#include "workloads.h"

namespace popdb::perfbench {

namespace {

/// One per-layer metric: unit, layer, and which end-to-end metric it should
/// move on which workload (the layer -> metric -> end-to-end map).
struct LayerInfo {
  const char* name;
  const char* unit;
  const char* layer;
  const char* moves;
  const char* on;
};

const LayerInfo kLayerInfo[] = {
    {"storage.build_s", "s", "storage", "setup_s", "all"},
    {"storage.catalog_mb", "MiB", "storage", "peak_rss_mb", "all"},
    {"sql.parse_bind_us.p50", "us", "sql", "read_p50_ms, ops_per_s",
     "mixed_wire"},
    {"sql.parse_bind_us.p90", "us", "sql", "read_p50_ms, ops_per_s",
     "mixed_wire"},
    {"opt.optimize_ms.p50", "ms", "opt", "read_p50_ms",
     "dmv_adhoc, mixed_wire"},
    {"opt.optimize_ms.p90", "ms", "opt", "read_p50_ms",
     "dmv_adhoc, mixed_wire"},
    {"opt.dp_ms.p50", "ms", "opt", "read_p50_ms", "dmv_adhoc"},
    {"opt.dp_ms.p90", "ms", "opt", "read_p50_ms", "dmv_adhoc"},
    {"opt.candidates", "count", "opt", "read_p50_ms", "dmv_adhoc"},
    {"opt.plan_cache_hit_ratio", "ratio", "opt", "read_p50_ms",
     "mixed_wire (tpch_exec reads 1.0)"},
    {"opt.plan_cache_hits", "count", "opt", "read_p50_ms", "mixed_wire"},
    {"opt.plan_cache_lookups", "count", "opt", "read_p50_ms", "mixed_wire"},
    {"opt.plan_cache_near_misses", "count", "opt", "read_p50_ms",
     "mixed_wire"},
    {"opt.stale_stats_evictions", "count", "opt", "read_p90_ms",
     "mixed_wire"},
    {"opt.share", "ratio", "opt", "read_p50_ms", "dmv_adhoc"},
    {"core.reopts_per_query", "reopts/query", "core", "read_p90_ms",
     "dmv_adhoc"},
    {"core.checks_fired", "count", "core", "read_p90_ms", "dmv_adhoc"},
    {"core.wasted_work_ratio", "ratio", "core", "read_p90_ms", "dmv_adhoc"},
    {"core.memo_reused", "count", "core", "read_p50_ms", "dmv_adhoc"},
    {"core.pop_overhead_ms.p50", "ms", "core", "read_p50_ms", "tpch_exec"},
    {"core.pop_overhead_ms.p90", "ms", "core", "read_p50_ms", "tpch_exec"},
    {"exec.execute_ms.p50", "ms", "exec", "read_p50_ms, read_p90_ms",
     "tpch_exec"},
    {"exec.execute_ms.p90", "ms", "exec", "read_p50_ms, read_p90_ms",
     "tpch_exec"},
    {"exec.work_units", "count", "exec", "cross-checks ops_per_s",
     "tpch_exec, dmv_adhoc"},
    {"exec.work_per_ms", "units/ms", "exec", "ops_per_s", "tpch_exec"},
    {"exec.share", "ratio", "exec", "read_p50_ms", "tpch_exec"},
    {"runtime.queue_ms.p50", "ms", "runtime", "read_p90_ms", "mixed_wire"},
    {"runtime.queue_ms.p90", "ms", "runtime", "read_p90_ms", "mixed_wire"},
    {"runtime.failed_ops", "count", "runtime", "failure share", "all"},
    {"net.read_wire_ms.p50", "ms", "net", "read_p50_ms", "mixed_wire"},
    {"net.read_wire_ms.p90", "ms", "net", "read_p50_ms", "mixed_wire"},
    {"net.write_wire_ms.p50", "ms", "net", "ops_per_s (writes)",
     "mixed_wire"},
    {"net.write_wire_ms.p90", "ms", "net", "ops_per_s (writes)",
     "mixed_wire"},
    {"net.bytes_per_op", "B/op", "net", "read_p50_ms", "mixed_wire"},
    {"txn.apply_ms.p50", "ms", "txn", "ops_per_s (writes)", "mixed_wire"},
    {"txn.apply_ms.p90", "ms", "txn", "ops_per_s (writes)", "mixed_wire"},
    {"txn.stats_folds", "count", "txn", "read_p90_ms", "mixed_wire"},
    {"trace.overhead_ratio", "ratio", "(tracing)", "read_p50_ms", "all"},
};

void Put(std::map<std::string, double>* v, const std::string& name,
         const Quantiles& q) {
  (*v)[name + ".p50"] = q.p50;
  (*v)[name + ".p90"] = q.p90;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void PrintSetups(const SetupStats& st) {
  std::printf("setup_s repetitions:");
  for (double s : st.setup_s) std::printf(" %.4f", s);
  std::printf("\n");
}

void EmitEndToEnd(const EndToEnd& e, Report* report) {
  report->Add("setup_s", e.setup_s, "s");
  report->Add("peak_rss_mb", e.peak_rss_mb, "MiB");
  report->Add("ops_per_s", e.ops_per_s, "1/s");
  report->Add("read_p50_ms", e.read.p50, "ms");
  report->Add("read_p90_ms", e.read.p90, "ms");
}

void EmitLayerMetrics(const LayerResults& l, Report* report) {
  std::map<std::string, double> v;
  const Counters& c = l.counters;
  v["storage.build_s"] = l.build_s;
  v["storage.catalog_mb"] = l.catalog_mb;
  Put(&v, "sql.parse_bind_us", l.parse_bind_us);
  Put(&v, "opt.optimize_ms", l.optimize_ms);
  Put(&v, "opt.dp_ms", l.dp_ms);
  v["opt.candidates"] = static_cast<double>(c.candidates);
  v["opt.plan_cache_hit_ratio"] = Ratio(static_cast<double>(c.cache_hits),
                                        static_cast<double>(c.cache_lookups));
  v["opt.plan_cache_hits"] = static_cast<double>(c.cache_hits);
  v["opt.plan_cache_lookups"] = static_cast<double>(c.cache_lookups);
  v["opt.plan_cache_near_misses"] = static_cast<double>(c.near_misses);
  v["opt.stale_stats_evictions"] = static_cast<double>(c.stale_evictions);
  v["opt.share"] = l.opt_share;
  v["core.reopts_per_query"] = Ratio(static_cast<double>(c.reopts),
                                     static_cast<double>(c.ops));
  v["core.checks_fired"] = static_cast<double>(c.checks_fired);
  v["core.wasted_work_ratio"] = Ratio(static_cast<double>(c.wasted_work),
                                      static_cast<double>(c.work_units));
  v["core.memo_reused"] = static_cast<double>(c.memo_reused);
  Put(&v, "core.pop_overhead_ms", l.pop_overhead_ms);
  Put(&v, "exec.execute_ms", l.execute_ms);
  v["exec.work_units"] = static_cast<double>(c.work_units);
  v["exec.work_per_ms"] = l.work_per_ms;
  v["exec.share"] = l.exec_share;
  Put(&v, "runtime.queue_ms", l.queue_ms);
  v["runtime.failed_ops"] = l.failed_ops;
  Put(&v, "net.read_wire_ms", l.read_wire_ms);
  Put(&v, "net.write_wire_ms", l.write_wire_ms);
  v["net.bytes_per_op"] = l.bytes_per_op;
  Put(&v, "txn.apply_ms", l.apply_ms);
  v["txn.stats_folds"] = static_cast<double>(c.stats_folds);
  v["trace.overhead_ratio"] = l.trace_overhead;
  for (const LayerInfo& info : kLayerInfo) {
    report->Add(info.name, v[info.name], info.unit);
  }
}

void PrintLayerTable() {
  std::printf("%-28s %-12s %-9s %-26s %s\n", "per-layer metric", "unit",
              "layer", "should move", "on");
  for (const LayerInfo& info : kLayerInfo) {
    std::printf("%-28s %-12s %-9s %-26s %s\n", info.name, info.unit,
                info.layer, info.moves, info.on);
  }
}

void ReadLayers(const std::vector<OpSample>& ops, LayerResults* l) {
  std::vector<double> optimize;
  std::vector<double> execute;
  std::vector<double> queue;
  std::vector<double> overhead;
  double sum_total = 0.0;
  double sum_opt = 0.0;
  double sum_exec = 0.0;
  double work = 0.0;
  for (const OpSample& s : ops) {
    if (s.write || !s.ok) continue;
    optimize.push_back(s.optimize_ms);
    execute.push_back(s.execute_ms);
    queue.push_back(s.queue_ms);
    overhead.push_back(s.total_ms - s.queue_ms - s.optimize_ms -
                       s.execute_ms);
    sum_total += s.total_ms;
    sum_opt += s.optimize_ms;
    sum_exec += s.execute_ms;
    work += static_cast<double>(s.work);
  }
  l->optimize_ms = PooledQuantiles(optimize);
  l->execute_ms = PooledQuantiles(execute);
  l->queue_ms = PooledQuantiles(queue);
  l->pop_overhead_ms = PooledQuantiles(overhead);
  l->exec_share = Ratio(sum_exec, sum_total);
  l->opt_share = Ratio(sum_opt, sum_total);
  l->work_per_ms = Ratio(work, sum_exec);
}

void SetTracing(bool on) {
  if (on) {
    SpanTracer::Global().Enable();
  } else {
    SpanTracer::Global().Disable();
  }
}

bool TimedSetup(Catalog* catalog, const BuildFn& build,
                const std::function<bool()>& start, SetupStats* st) {
  const double rss0 = CurrentRssMb();
  const Clock::time_point t0 = Clock::now();
  {
    TraceSpan span("bench.storage_build", "perfbench");
    const Status s = build(catalog);
    if (!s.ok()) {
      std::printf("catalog build failed: %s\n", s.ToString().c_str());
      return false;
    }
  }
  const double build_s = MsSince(t0) / 1000.0;
  if (st->build_s.empty()) st->catalog_mb = CurrentRssMb() - rss0;
  if (!start()) return false;
  st->setup_s.push_back(MsSince(t0) / 1000.0);
  st->build_s.push_back(build_s);
  return true;
}

std::unique_ptr<LocalEnv> MakeLocalEnv(const BuildFn& build, SetupStats* st) {
  auto env = std::make_unique<LocalEnv>();
  auto start = [&env] {
    TraceSpan span("bench.service_start", "perfbench");
    env->service =
        std::make_unique<QueryService>(env->catalog, ServiceConfig{});
    return true;
  };
  if (!TimedSetup(&env->catalog, build, start, st)) return nullptr;
  return env;
}

OpSample RunLocalRead(QueryService* service, int group, const QuerySpec& spec,
                      int64_t op, std::vector<Row>* keep_rows) {
  OpSample s;
  s.group = group;
  s.traced = SpanTracer::Global().enabled();
  std::shared_ptr<QueryTicket> ticket;
  const Clock::time_point t0 = Clock::now();
  {
    TraceSpan span("bench.submit_wait", "perfbench", "op", op);
    Result<std::shared_ptr<QueryTicket>> submitted = service->Submit(spec);
    if (submitted.ok()) {
      ticket = submitted.value();
      ticket->Wait();
    } else {
      s.error = submitted.status().ToString();
    }
  }
  s.ms = MsSince(t0);
  if (ticket == nullptr) {
    s.ok = false;
    return s;
  }
  const QueryResult& r = ticket->Wait();
  s.ok = r.status.ok();
  if (!s.ok) s.error = r.status.ToString();
  s.rows = static_cast<int64_t>(r.rows.size());
  FillFromTrace(r.trace, &s);
  if (keep_rows != nullptr) *keep_rows = r.rows;
  return s;
}

void DpProbe(const Catalog& catalog, const std::vector<const QuerySpec*>& qs,
             std::vector<double>* dp_ms, int64_t* candidates) {
  const Optimizer optimizer(catalog, OptimizerConfig{});
  for (size_t i = 0; i < qs.size(); ++i) {
    TraceSpan span("bench.optimize_probe", "perfbench", "op",
                   static_cast<int64_t>(i));
    const Clock::time_point t0 = Clock::now();
    Result<OptimizedPlan> plan = optimizer.Optimize(*qs[i]);
    if (dp_ms != nullptr) dp_ms->push_back(MsSince(t0));
    if (plan.ok()) *candidates += plan.value().candidates;
  }
}

void CheckCounted(size_t done, size_t counted, Report* report) {
  if (done < counted) {
    report->Fail("timed phase ended after " + std::to_string(done) +
                 " operations, before the " + std::to_string(counted) +
                 " the exact counters cover");
  }
}

void CompareReplay(const Counters& first, const Counters& replay,
                   Report* report) {
  const std::string diff = first.Diff(replay);
  if (diff.empty()) {
    std::printf("exact-repeat counters: identical across two runs\n");
  } else {
    report->Fail("exact-repeat counters differ between two runs: " + diff);
  }
}

void PrintGroups(const std::vector<OpSample>& ops, bool writes,
                 const std::vector<std::string>& names) {
  std::vector<std::vector<OpSample>> by_group(names.size());
  for (const OpSample& s : ops) {
    if (s.write == writes) by_group[static_cast<size_t>(s.group)].push_back(s);
  }
  for (size_t g = 0; g < names.size(); ++g) {
    const Quantiles q = LatencyQuantiles(by_group[g], writes, false);
    std::printf("%s %-12s n=%zu p50=%.3f p90=%.3f ms\n",
                writes ? "write" : "template", names[g].c_str(),
                by_group[g].size(), q.p50, q.p90);
  }
}

void CheckHalves(const std::vector<OpSample>& ops, bool per_group) {
  // The bound on read_p50_ms in BENCHMARK.json.
  constexpr double kBound = 0.24;
  const size_t mid = ops.size() / 2;
  const double a = LatencyQuantiles(ops, false, per_group, -1, 0, mid).p50;
  const double b = LatencyQuantiles(ops, false, per_group, -1, mid).p50;
  std::printf("stationarity: read_p50_ms first half %.4f, second half %.4f\n",
              a, b);
  // Work per read moves with the engine's state (plans, data), time per
  // work unit with the host.
  std::printf("stationarity: read_p50_ms | work units per read, by tenth of "
              "the timed phase:");
  for (size_t t = 0; t < 10; ++t) {
    const size_t begin = t * ops.size() / 10;
    const size_t end = (t + 1) * ops.size() / 10;
    double work = 0.0;
    double reads = 0.0;
    for (size_t i = begin; i < end; ++i) {
      if (ops[i].write) continue;
      work += static_cast<double>(ops[i].work);
      reads += 1.0;
    }
    std::printf(" %.3f|%.0f",
                LatencyQuantiles(ops, false, per_group, -1, begin, end).p50,
                reads > 0 ? work / reads : 0.0);
  }
  std::printf("\n");
  if (std::fabs(a - b) > kBound * std::min(a, b)) {
    std::printf("WARNING: the halves of the timed phase differ by more than "
                "the %.0f%% bound on read_p50_ms\n", 100.0 * kBound);
  }
}

}  // namespace popdb::perfbench
