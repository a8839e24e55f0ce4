// tpch_exec and dmv_adhoc: in-process QueryService workloads driven by one
// client thread in a closed loop.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pop.h"
#include "dmv/dmv_gen.h"
#include "dmv/dmv_queries.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"
#include "workloads.h"

namespace popdb::perfbench {

namespace {

std::vector<int> Shuffled(int n, Rng* rng) {
  std::vector<int> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(v[static_cast<size_t>(i)],
              v[static_cast<size_t>(rng->UniformInt(0, i))]);
  }
  return v;
}

int64_t FailedInService(QueryService* service) {
  const ServiceStatsSnapshot s = service->Stats();
  return s.failed + s.rejected + s.cancelled + s.deadline_expired;
}

// ------------------------------------------------------------ tpch_exec

struct Template {
  std::string name;
  QuerySpec spec;
};

/// The ten paper queries, each with literals and with parameter markers.
std::vector<Template> TpchTemplates() {
  std::vector<Template> out;
  for (int q : tpch::PaperQueries()) {
    for (bool markers : {false, true}) {
      tpch::QueryOptions options;
      options.param_markers = markers;
      out.push_back({"Q" + std::to_string(q) + (markers ? "_marker" : ""),
                     tpch::MakeQuery(q, options)});
    }
  }
  return out;
}

/// Template order of pass `pass`: a fresh permutation per pass.
std::vector<int> PassOrder(uint64_t seed, int64_t pass, int n) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(pass) + 1);
  return Shuffled(n, &rng);
}

constexpr int kMaxWarmupPasses = 12;

/// Runs passes until one is all plan-cache hits without a re-opt, so the
/// timed phase measures execution and not optimization. Returns the next
/// pass index, or -1 when the cache and feedback never converge. The
/// warm-up runs the templates in canonical order: the plans the shared
/// feedback converges to depend on the order it learned in, and every seed
/// must measure the same converged plans.
int64_t TpchWarmUp(QueryService* service, const std::vector<Template>& ts,
                   Report* report) {
  const int n = static_cast<int>(ts.size());
  for (int64_t pass = 0; pass < kMaxWarmupPasses; ++pass) {
    int64_t unsettled = 0;
    for (int t = 0; t < n; ++t) {
      const OpSample s = RunLocalRead(service, t, ts[t].spec, -1, nullptr);
      if (!s.ok) {
        report->Fail("warm-up " + ts[t].name + ": " + s.error);
        return -1;
      }
      if (!s.cache_hit || s.reopts > 0) ++unsettled;
    }
    if (pass >= 1 && unsettled == 0) return pass + 1;
  }
  report->Fail("tpch_exec warm-up did not converge in " +
               std::to_string(kMaxWarmupPasses) + " passes");
  return -1;
}

struct TpchPhase {
  std::vector<OpSample> ops;
  EngineSnapshot at_start;
  EngineSnapshot at_counted;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<std::vector<Row>> first_rows;
};

/// Timed passes from `first_pass` until `plan` is over. Traced runs switch
/// the tracer on for even passes only.
void TpchTimed(QueryService* service, const std::vector<Template>& ts,
               uint64_t seed, int64_t first_pass, const TimedPlan& plan,
               bool trace, size_t counted_ops, TpchPhase* ph) {
  const int n = static_cast<int>(ts.size());
  ph->first_rows.assign(ts.size(), {});
  std::vector<bool> have(ts.size(), false);
  ph->ops.reserve(plan.ops);
  ph->at_start = Snap(service, 0);
  const Clock::time_point t0 = Clock::now();
  for (int64_t pass = first_pass; !plan.Over(ph->ops.size(), t0); ++pass) {
    SetTracing(trace && pass % 2 == 0);
    for (int t : PassOrder(seed, pass, n)) {
      if (plan.Over(ph->ops.size(), t0)) break;
      const size_t i = static_cast<size_t>(t);
      ph->ops.push_back(RunLocalRead(service, t, ts[i].spec,
                                     static_cast<int64_t>(ph->ops.size()),
                                     have[i] ? nullptr : &ph->first_rows[i]));
      ph->ops.back().end_s = MsSince(t0) / 1000.0;
      have[i] = true;
      if (ph->ops.size() == counted_ops) ph->at_counted = Snap(service, 0);
    }
  }
  ph->wall_s = MsSince(t0) / 1000.0;
  ph->peak_rss_mb = PeakRssMb();
  SetTracing(trace);
}

// ------------------------------------------------------------ dmv_adhoc

constexpr int kDmvWarmup = 40;

/// The never-repeating DMV stream. Its content is a fixed pool: the timed
/// phase runs `chunks` chunks of kChunk queries from dmv::MakeWorkload, each
/// generated from its own fixed seed, so every workload seed runs the same
/// queries and a seed's heaviest query cannot set a run's peak memory or
/// tail on its own. The workload seed permutes the chunks and the queries
/// inside each. Chunks are generated when reached, so memory stays flat.
class DmvStream {
 public:
  static constexpr int kChunk = 512;

  DmvStream(uint64_t seed, int64_t chunks) : seed_(seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
    chunk_order_ = Shuffled(static_cast<int>(chunks), &rng);
    dmv::WorkloadConfig config;
    config.seed = kWarmupSeed;
    config.num_queries = kDmvWarmup;
    warmup_ = dmv::MakeWorkload(config);
  }

  /// Warm-up query `i`: a fixed set of its own, outside the pool.
  const QuerySpec& Warmup(int64_t i) const {
    return warmup_[static_cast<size_t>(i)];
  }

  /// Timed query `i`; valid until the next call.
  const QuerySpec& At(int64_t i) {
    const int64_t chunk = i / kChunk;
    if (chunk != chunk_) {
      dmv::WorkloadConfig config;
      const int pool_chunk = chunk_order_[static_cast<size_t>(chunk)];
      config.seed = kPoolSeed + static_cast<uint64_t>(pool_chunk);
      config.num_queries = kChunk;
      queries_ = dmv::MakeWorkload(config);
      Rng rng(seed_ * 1000003 + static_cast<uint64_t>(chunk));
      order_ = Shuffled(kChunk, &rng);
      chunk_ = chunk;
    }
    const int pos = order_[static_cast<size_t>(i % kChunk)];
    return queries_[static_cast<size_t>(pos)];
  }

 private:
  static constexpr uint64_t kPoolSeed = 2004;
  static constexpr uint64_t kWarmupSeed = 1;
  uint64_t seed_;
  std::vector<int> chunk_order_;
  std::vector<QuerySpec> warmup_;
  int64_t chunk_ = -1;
  std::vector<QuerySpec> queries_;
  std::vector<int> order_;
};

constexpr int64_t kDmvSampleEvery = 25;
constexpr size_t kDmvMaxSamples = 24;

struct DmvPhase {
  std::vector<OpSample> ops;
  EngineSnapshot at_start;
  EngineSnapshot at_counted;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<std::pair<int64_t, std::vector<Row>>> samples;
};

void DmvRun(QueryService* service, DmvStream* stream, const TimedPlan& plan,
            bool trace, size_t counted_ops, DmvPhase* ph, Report* report) {
  for (int64_t i = 0; i < kDmvWarmup; ++i) {
    const OpSample s = RunLocalRead(service, 0, stream->Warmup(i), -1, nullptr);
    if (!s.ok) report->Fail("dmv warm-up: " + s.error);
  }
  ph->ops.reserve(plan.ops);
  ph->at_start = Snap(service, 0);
  const Clock::time_point t0 = Clock::now();
  while (!plan.Over(ph->ops.size(), t0)) {
    const int64_t op = static_cast<int64_t>(ph->ops.size());
    SetTracing(trace && op % 2 == 0);
    std::vector<Row> rows;
    const bool sample =
        op % kDmvSampleEvery == 0 && ph->samples.size() < kDmvMaxSamples;
    ph->ops.push_back(RunLocalRead(service, 0, stream->At(op),
                                   op, sample ? &rows : nullptr));
    ph->ops.back().end_s = MsSince(t0) / 1000.0;
    if (sample) ph->samples.emplace_back(op, std::move(rows));
    if (ph->ops.size() == counted_ops) ph->at_counted = Snap(service, 0);
  }
  ph->wall_s = MsSince(t0) / 1000.0;
  ph->peak_rss_mb = PeakRssMb();
  SetTracing(trace);
}

/// Shared tail of both local workloads: failure accounting, end-to-end or
/// per-layer metrics.
void Finish(const Options& o, const SetupStats& st, double peak_rss,
            const std::vector<OpSample>& ops, double wall_s, bool per_group,
            LayerResults* layers, Report* report) {
  std::printf("timed phase: %zu operations in %.2f s\n", ops.size(), wall_s);
  int64_t failed_ops = 0;
  for (const OpSample& s : ops) failed_ops += s.ok ? 0 : 1;
  report->attempted += static_cast<int64_t>(ops.size());
  report->failed += failed_ops;
  const Quantiles read = LatencyQuantiles(ops, false, per_group);
  if (!read.enough) {
    std::printf("WARNING: fewer than 10 samples beyond p90 in some set\n");
  }
  std::printf("samples: %zu reads (min %zu per set)\n", ops.size(),
              read.min_samples);
  PrintSetups(st);
  if (!o.trace) {
    EndToEnd e;
    e.setup_s = Median(st.setup_s);
    e.peak_rss_mb = peak_rss;
    e.ops_per_s = WindowedRate(ops);
    e.read = read;
    EmitEndToEnd(e, report);
    return;
  }
  layers->build_s = Median(st.build_s);
  layers->catalog_mb = st.catalog_mb;
  ReadLayers(ops, layers);
  const Quantiles on = LatencyQuantiles(ops, false, per_group, 1);
  const Quantiles off = LatencyQuantiles(ops, false, per_group, 0);
  layers->trace_overhead = off.p50 > 0 ? on.p50 / off.p50 : 0.0;
  std::printf("tracing overhead: traced read_p50 %.4f ms / untraced %.4f ms\n",
              on.p50, off.p50);
  EmitLayerMetrics(*layers, report);
}

}  // namespace

void RunTpchExec(const Options& o, const WorkloadSpec& w, Report* report) {
  tpch::GenConfig gen;
  gen.scale = w.scale;
  if (o.data_seed != 0) gen.seed = o.data_seed;
  std::printf("provenance: data_seed=%llu scale=%g\n",
              static_cast<unsigned long long>(gen.seed), gen.scale);
  const BuildFn build = [gen](Catalog* c) { return tpch::BuildCatalog(gen, c); };
  const std::vector<Template> ts = TpchTemplates();
  std::vector<const QuerySpec*> specs;
  for (const Template& t : ts) specs.push_back(&t.spec);
  // Whole passes, so every template gets the same number of samples.
  const TimedPlan plan = TimedPlan::For(w, o.seconds, ts.size());
  const size_t counted = std::min<size_t>(w.counted_ops, plan.ops);
  const EnvFactory<LocalEnv> make = [&build](SetupStats* st) {
    return MakeLocalEnv(build, st);
  };

  SetupStats st;
  std::unique_ptr<LocalEnv> env = SetupBefore(make, w, &st);
  if (env == nullptr) return report->Fail("setup failed");
  QueryService* service = env->service.get();
  const int64_t first_pass = TpchWarmUp(service, ts, report);
  if (first_pass < 0) return;

  TpchPhase ph;
  TpchTimed(service, ts, o.seed, first_pass, plan, o.trace, counted, &ph);
  plan.Report(ph.ops.size());
  CheckCounted(ph.ops.size(), counted, report);
  CheckHalves(ph.ops, true);
  std::vector<std::string> names;
  for (const Template& t : ts) names.push_back(t.name);
  PrintGroups(ph.ops, false, names);

  // The timed phase must be pure execution: every lookup a hit, no re-opt.
  int64_t unsettled = 0;
  for (OpSample& s : ph.ops) {
    if (s.ok && (!s.cache_hit || s.reopts > 0)) {
      s.ok = false;
      ++unsettled;
    }
  }
  if (unsettled > 0) {
    report->Fail(std::to_string(unsettled) +
                 " timed operations missed the plan cache or re-optimized");
  }

  // Correctness: every template against the static reference executor.
  ProgressiveExecutor reference(env->catalog, OptimizerConfig{}, PopConfig{});
  std::vector<int64_t> want_rows(ts.size(), -1);
  for (size_t t = 0; t < ts.size(); ++t) {
    Result<std::vector<Row>> want = reference.ExecuteStatic(ts[t].spec);
    if (!want.ok()) {
      report->Fail("reference " + ts[t].name + ": " + want.status().ToString());
      continue;
    }
    want_rows[t] = static_cast<int64_t>(want.value().size());
    const std::string diff = CompareRows(ph.first_rows[t], want.value());
    if (!diff.empty()) {
      report->Fail(ts[t].name + " differs from the reference: " + diff);
      report->failed += 1;
    }
  }
  for (OpSample& s : ph.ops) {
    if (s.ok && s.rows != want_rows[static_cast<size_t>(s.group)]) {
      s.ok = false;
      report->Fail(ts[static_cast<size_t>(s.group)].name +
                   " returned a different row count than the reference");
    }
  }

  LayerResults layers;
  layers.failed_ops = static_cast<double>(FailedInService(service));
  if (o.trace) {
    std::vector<double> dp_ms;
    layers.counters = CountOps(ph.ops, 0, counted, ph.at_start, ph.at_counted);
    DpProbe(env->catalog, specs, &dp_ms, &layers.counters.candidates);
    layers.dp_ms = PooledQuantiles(dp_ms);

    // Replay the counted sequence on a fresh instance: the counts must
    // repeat exactly.
    SetTracing(false);
    SetupStats replay_st;
    std::unique_ptr<LocalEnv> fresh = MakeLocalEnv(build, &replay_st);
    if (fresh == nullptr) return report->Fail("replay setup failed");
    const int64_t pass = TpchWarmUp(fresh->service.get(), ts, report);
    if (pass < 0) return;
    TpchPhase again;
    TpchTimed(fresh->service.get(), ts, o.seed, pass,
              TimedPlan::Exactly(counted), false, counted, &again);
    Counters replay =
        CountOps(again.ops, 0, counted, again.at_start, again.at_counted);
    DpProbe(fresh->catalog, specs, nullptr, &replay.candidates);
    CompareReplay(layers.counters, replay, report);
    SetTracing(true);
  }
  env.reset();
  SetupAfter(make, w, &st);
  Finish(o, st, ph.peak_rss_mb, ph.ops, ph.wall_s, true, &layers, report);
}

void RunDmvAdhoc(const Options& o, const WorkloadSpec& w, Report* report) {
  dmv::GenConfig gen;
  gen.scale = w.scale;
  if (o.data_seed != 0) gen.seed = o.data_seed;
  std::printf("provenance: data_seed=%llu scale=%g\n",
              static_cast<unsigned long long>(gen.seed), gen.scale);
  const BuildFn build = [gen](Catalog* c) { return dmv::BuildCatalog(gen, c); };
  // Whole chunks, so every seed runs the same queries.
  const TimedPlan plan = TimedPlan::For(w, o.seconds, DmvStream::kChunk);
  const int64_t chunks = static_cast<int64_t>(plan.ops) / DmvStream::kChunk;
  const size_t counted = std::min<size_t>(w.counted_ops, plan.ops);
  const EnvFactory<LocalEnv> make = [&build](SetupStats* st) {
    return MakeLocalEnv(build, st);
  };
  auto counted_specs = [counted, chunks](uint64_t seed) {
    DmvStream stream(seed, chunks);
    std::vector<QuerySpec> qs;
    for (size_t i = 0; i < counted; ++i) {
      qs.push_back(stream.At(static_cast<int64_t>(i)));
    }
    return qs;
  };
  auto probe_candidates = [&](const Catalog& catalog,
                              std::vector<double>* dp_ms) {
    const std::vector<QuerySpec> qs = counted_specs(o.seed);
    std::vector<const QuerySpec*> ptrs;
    for (const QuerySpec& q : qs) ptrs.push_back(&q);
    int64_t candidates = 0;
    DpProbe(catalog, ptrs, dp_ms, &candidates);
    return candidates;
  };

  SetupStats st;
  std::unique_ptr<LocalEnv> env = SetupBefore(make, w, &st);
  if (env == nullptr) return report->Fail("setup failed");
  QueryService* service = env->service.get();
  DmvStream stream(o.seed, chunks);
  DmvPhase ph;
  DmvRun(service, &stream, plan, o.trace, counted, &ph, report);
  plan.Report(ph.ops.size());
  CheckCounted(ph.ops.size(), counted, report);
  CheckHalves(ph.ops, false);

  // Correctness: a seeded sample of the stream against the static plan.
  ProgressiveExecutor reference(env->catalog, OptimizerConfig{}, PopConfig{});
  for (const auto& [op, rows] : ph.samples) {
    const QuerySpec& q = stream.At(op);
    Result<std::vector<Row>> want = reference.ExecuteStatic(q);
    const std::string diff = want.ok() ? CompareRows(rows, want.value())
                                       : want.status().ToString();
    if (!diff.empty()) {
      report->Fail(q.name() + " (op " + std::to_string(op) +
                   ") differs from the reference: " + diff);
      ph.ops[static_cast<size_t>(op)].ok = false;
    }
  }
  std::printf("correctness: %zu sampled queries compared\n",
              ph.samples.size());

  LayerResults layers;
  layers.failed_ops = static_cast<double>(FailedInService(service));
  if (o.trace) {
    layers.counters = CountOps(ph.ops, 0, counted, ph.at_start, ph.at_counted);
    std::vector<double> dp_ms;
    layers.counters.candidates = probe_candidates(env->catalog, &dp_ms);
    layers.dp_ms = PooledQuantiles(dp_ms);

    // Replay the counted sequence on a fresh instance.
    SetTracing(false);
    SetupStats replay_st;
    std::unique_ptr<LocalEnv> fresh = MakeLocalEnv(build, &replay_st);
    if (fresh == nullptr) return report->Fail("replay setup failed");
    DmvStream replay_stream(o.seed, chunks);
    DmvPhase again;
    DmvRun(fresh->service.get(), &replay_stream, TimedPlan::Exactly(counted),
           false, counted, &again, report);
    Counters replay =
        CountOps(again.ops, 0, counted, again.at_start, again.at_counted);
    replay.candidates = probe_candidates(fresh->catalog, nullptr);
    CompareReplay(layers.counters, replay, report);
    SetTracing(true);
  }
  env.reset();
  SetupAfter(make, w, &st);
  Finish(o, st, ph.peak_rss_mb, ph.ops, ph.wall_s, false, &layers, report);
}

}  // namespace popdb::perfbench
