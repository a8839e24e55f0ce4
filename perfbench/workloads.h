// The three workloads and the pieces they share: the in-process
// environment and the metric sets every workload prints (end-to-end in an
// untraced run, per-layer in a traced run).

#ifndef POPDB_PERFBENCH_WORKLOADS_H_
#define POPDB_PERFBENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "runtime/query_service.h"
#include "storage/catalog.h"

namespace popdb::perfbench {

/// Setup timings of the repeated setups of one run.
struct SetupStats {
  std::vector<double> setup_s;
  std::vector<double> build_s;
  double catalog_mb = 0.0;  ///< RSS growth across the first build.
};

/// End-to-end metrics (untraced run).
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double ops_per_s = 0.0;
  Quantiles read;
};

/// Per-layer results (traced run). Fields a workload cannot observe stay 0.
struct LayerResults {
  double build_s = 0.0;
  double catalog_mb = 0.0;
  Quantiles parse_bind_us;
  Quantiles optimize_ms;
  Quantiles dp_ms;
  Quantiles pop_overhead_ms;
  Quantiles execute_ms;
  Quantiles queue_ms;
  Quantiles read_wire_ms;
  Quantiles write_wire_ms;
  Quantiles apply_ms;
  Counters counters;  ///< Over the counted prefix (exact).
  double work_per_ms = 0.0;
  double failed_ops = 0.0;
  double bytes_per_op = 0.0;
  double exec_share = 0.0;
  double opt_share = 0.0;
  double trace_overhead = 0.0;
};

void EmitEndToEnd(const EndToEnd& e2e, Report* report);
/// Prints every setup repetition (setup_s is their median).
void PrintSetups(const SetupStats& st);
void EmitLayerMetrics(const LayerResults& layers, Report* report);
/// Prints each per-layer metric with its unit, layer, and the end-to-end
/// metric and workload it should move.
void PrintLayerTable();

/// Fills the read-path layer quantiles and shares from timed-phase reads.
void ReadLayers(const std::vector<OpSample>& ops, LayerResults* layers);

/// Turns the global span tracer on or off (traced runs alternate it per
/// operation so the tracing overhead is measured inside one run).
void SetTracing(bool on);

using BuildFn = std::function<Status(Catalog*)>;

/// Times one setup: the catalog build (storage.build_s; storage.catalog_mb
/// on the first setup of the run), then `start`, the rest of what has to
/// happen before the first operation can be sent. Returns false, after
/// printing why, when either step fails.
bool TimedSetup(Catalog* catalog, const BuildFn& build,
                const std::function<bool()>& start, SetupStats* st);

/// Catalog and service of the in-process workloads; the service goes
/// first on destruction.
struct LocalEnv {
  Catalog catalog;
  std::unique_ptr<QueryService> service;
};

/// Builds the catalog and starts a default-configured service, timing both.
std::unique_ptr<LocalEnv> MakeLocalEnv(const BuildFn& build, SetupStats* st);

template <typename Env>
using EnvFactory = std::function<std::unique_ptr<Env>(SetupStats*)>;

/// Times the first half of the setup repetitions before the run and
/// returns the last instance, which runs the workload; SetupAfter() times
/// the rest once the run is over and its instance is gone, so setup_s
/// samples the host at both ends of the run under the same conditions.
template <typename Env>
std::unique_ptr<Env> SetupBefore(const EnvFactory<Env>& make,
                                 const WorkloadSpec& w, SetupStats* st) {
  std::unique_ptr<Env> env;
  for (int r = 0; r < (w.setup_reps + 1) / 2; ++r) {
    env.reset();  // Tear the previous instance down before timing the next.
    env = make(st);
    if (env == nullptr) return nullptr;
  }
  return env;
}

template <typename Env>
void SetupAfter(const EnvFactory<Env>& make, const WorkloadSpec& w,
                SetupStats* st) {
  for (int r = 0; r < w.setup_reps / 2; ++r) make(st);
}

/// Submit -> Wait of one read; copies the rows into `keep_rows` if given.
OpSample RunLocalRead(QueryService* service, int group, const QuerySpec& spec,
                      int64_t op, std::vector<Row>* keep_rows);

/// Standalone DP probe: Optimizer::Optimize with no feedback and no cache
/// on each query, timed into `dp_ms` when given; adds the candidates.
void DpProbe(const Catalog& catalog, const std::vector<const QuerySpec*>& qs,
             std::vector<double>* dp_ms, int64_t* candidates);

/// Fails the run when the counted prefix did not fit into the timed phase.
void CheckCounted(size_t done, size_t counted, Report* report);

/// Fails the run unless a replay repeated the counters exactly.
void CompareReplay(const Counters& first, const Counters& replay,
                   Report* report);

/// Prints n, p50 and p90 of each group of reads or writes, as the
/// benchmark's percentile rule takes them.
void PrintGroups(const std::vector<OpSample>& ops, bool writes,
                 const std::vector<std::string>& names);

/// Prints read_p50_ms of the two halves of the timed phase and warns when
/// they differ by more than the benchmark's bound on read_p50_ms.
void CheckHalves(const std::vector<OpSample>& ops, bool per_group);

void RunTpchExec(const Options& options, const WorkloadSpec& spec,
                 Report* report);
void RunDmvAdhoc(const Options& options, const WorkloadSpec& spec,
                 Report* report);
void RunMixedWire(const Options& options, const WorkloadSpec& spec,
                  Report* report);

}  // namespace popdb::perfbench

#endif  // POPDB_PERFBENCH_WORKLOADS_H_
