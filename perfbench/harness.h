// Shared pieces of the benchmark driver: run options, the per-operation
// record, the exact-repeat counters, latency aggregation, the result report
// and result comparison. Everything here talks to popdb through its public
// headers only; no instrumentation lives under src/.

#ifndef POPDB_PERFBENCH_HARNESS_H_
#define POPDB_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "opt/plan_cache.h"
#include "runtime/query_service.h"
#include "runtime/trace.h"

namespace popdb::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;       ///< Workload seed: query order, bindings, stream.
  uint64_t data_seed = 0;  ///< Generator seed; 0 = the generator default.
  double seconds = 10.0;   ///< Length of the timed phase.
  bool trace = false;      ///< Traced run: per-layer metrics instead.
  std::string trace_out;   ///< Chrome-trace dump path (traced runs).
};

/// Fixed shape of one workload.
struct WorkloadSpec {
  const char* name;
  double scale;
  /// Setups per run; setup_s is their median.
  int setup_reps;
  /// Operations at the head of the timed phase that the exact-repeat
  /// counters cover.
  int counted_ops;
  /// Timed operations per second of --seconds: the timed phase is a fixed
  /// sequence of ceil(ops_per_s * seconds) operations, which a 4-vCPU VM
  /// finishes in 0.6-0.85 * seconds.
  double ops_per_s;
};

/// Length of a timed phase: a fixed number of operations, so every run of
/// a seed does the same work on the same engine state however fast the
/// engine is. `cap_s` stops a phase the host is too slow to finish.
struct TimedPlan {
  size_t ops = 0;
  double cap_s = 0.0;

  /// Rounds the operation count up to a multiple of `multiple_of`.
  static TimedPlan For(const WorkloadSpec& w, double seconds,
                       size_t multiple_of = 1);
  /// Exactly `ops` timed operations, with no time cap (replays).
  static TimedPlan Exactly(size_t ops);
  /// True once `done` operations ran or the cap passed since `t0`.
  bool Over(size_t done, Clock::time_point t0) const;
  /// Prints a warning when the cap cut the phase short.
  void Report(size_t done) const;
};

/// One measured operation: a read or a write transaction.
struct OpSample {
  int group = 0;  ///< Read template or write type.
  bool write = false;
  bool ok = true;
  bool traced = false;  ///< Tracer was on for this operation.
  double ms = 0.0;      ///< Client-observed latency.
  double end_s = 0.0;   ///< Completion, seconds into the timed phase.
  int64_t rows = 0;
  // Engine-side breakdown of a read (QueryTrace).
  int64_t query_id = -1;
  double total_ms = 0.0;
  double queue_ms = 0.0;
  double optimize_ms = 0.0;
  double execute_ms = 0.0;
  int64_t work = 0;
  int64_t wasted_work = 0;  ///< Work of attempts that ended in a re-opt.
  int64_t checks_fired = 0;
  int reopts = 0;
  bool cache_hit = false;
  // Wire and write path.
  double server_ms = 0.0;  ///< Sum of the replies' total_ms.
  std::string error;
};

/// Copies the engine's per-query record into a sample.
void FillFromTrace(const QueryTrace& trace, OpSample* sample);

bool IsCacheHit(const std::string& outcome);

/// Engine state read at a phase boundary through public accessors.
struct EngineSnapshot {
  PlanCache::Stats cache;
  int64_t memo_hits = 0;  ///< popdb_reopt_incremental_hits.
  int64_t net_bytes = 0;  ///< popdb_net_bytes_{read,written}_total.
  int64_t stats_folds = 0;
};

/// Reads the counters; `stats_folds` is supplied by the caller (the write
/// manager belongs to the caller, not the service).
EngineSnapshot Snap(QueryService* service, int64_t stats_folds);

/// Counts the engine repeats exactly for a fixed operation sequence.
struct Counters {
  int64_t ops = 0;
  int64_t work_units = 0;
  int64_t wasted_work = 0;
  int64_t checks_fired = 0;
  int64_t reopts = 0;
  int64_t candidates = 0;
  int64_t stats_folds = 0;
  int64_t cache_hits = 0;
  int64_t cache_lookups = 0;
  int64_t near_misses = 0;
  int64_t stale_evictions = 0;
  int64_t memo_reused = 0;

  /// Names the fields that differ; empty when identical.
  std::string Diff(const Counters& other) const;
};

/// Counters over ops [begin, end) plus the engine deltas between `a` and
/// `b` (candidates are added by the caller's optimizer probe).
Counters CountOps(const std::vector<OpSample>& ops, size_t begin, size_t end,
                  const EngineSnapshot& a, const EngineSnapshot& b);

/// Nearest-rank percentile of `v` (0 for an empty set).
double Percentile(std::vector<double> v, double p);

/// Latency percentile under the benchmark's rule: per group, then the
/// geometric mean across groups (or pooled when `per_group` is false). A
/// group of at least five 100-sample chunks reports the median of its
/// per-chunk percentiles. `enough` turns false when some set has fewer than
/// ten samples beyond its p90.
struct Quantiles {
  double p50 = 0.0;
  double p90 = 0.0;
  bool enough = true;
  size_t min_samples = 0;
};
Quantiles LatencyQuantiles(const std::vector<OpSample>& ops, bool writes,
                           bool per_group, int traced_filter = -1,
                           size_t begin = 0, size_t end = SIZE_MAX);

/// Completed operations per second: the timed sequence is cut into ten
/// windows of equal operation count, and the median of their rates is
/// reported, so a slow stretch of the host moves one window.
double WindowedRate(const std::vector<OpSample>& ops);

/// Pooled percentiles of an arbitrary per-op quantity.
Quantiles PooledQuantiles(const std::vector<double>& values);

/// Result report printed as the last stdout line.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;
};

/// Order-insensitive comparison with a relative tolerance on doubles.
/// Returns an empty string on a match, else what differs.
std::string CompareRows(std::vector<Row> got, std::vector<Row> want);

/// Peak / current resident set size in MiB (/proc/self/status). The peak is
/// the kernel's high-water mark since the process started, so read right
/// after the timed phase it covers setup, warm-up and the timed phase.
double PeakRssMb();
double CurrentRssMb();

/// Sum of every sample of `family` in a Prometheus exposition.
int64_t SumSeries(const std::string& text, const std::string& family);

/// Median of a non-empty vector.
double Median(std::vector<double> v);

}  // namespace popdb::perfbench

#endif  // POPDB_PERFBENCH_HARNESS_H_
