#ifndef POPDB_DIST_COORDINATOR_H_
#define POPDB_DIST_COORDINATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/pop.h"
#include "dist/partition.h"
#include "dist/split.h"
#include "net/client_pool.h"
#include "net/server.h"
#include "opt/optimizer.h"
#include "runtime/metrics.h"
#include "runtime/query_service.h"

namespace popdb::dist {

/// Knobs for the scatter-gather coordinator.
struct CoordinatorConfig {
  /// Shard endpoints; shard i must serve the i-th partition range.
  std::vector<net::Endpoint> shards;
  PartitionSpec partition;
  OptimizerConfig optimizer;
  PopConfig pop;
  net::ClientConnectOptions connect;
  int64_t batch_rows = 4096;       ///< row_batch size requested of shards.
  double poll_interval_ms = 20.0;  ///< Cancellation/deadline poll period.
};

/// Scatter-gather executor with cluster-level progressive optimization.
///
/// The coordinator optimizes the full query against its own (global)
/// catalog, splits the plan into a shard fragment plus a gather recipe
/// (dist/split.h), scales the fragment's cardinalities and validity ranges
/// to one shard's share, places CHECK operators on the scaled fragment, and
/// scatters the identical fragment to every shard over the wire protocol's
/// `subplan` request. Shards stream row batches back; the coordinator
/// merges them per the gather recipe.
///
/// When any shard's CHECK fires (a per-shard cardinality left its scaled
/// validity range), the shard ships a check_violation event plus every
/// cardinality observation its aborted execution can justify. The
/// coordinator lets the other shards reach their own end (EOF or their own
/// violation): cancelling them would make the harvested cardinalities
/// depend on how far each got before the cancel arrived. It aggregates the
/// per-shard observations into global cardinalities (partitioned subplans
/// sum across shards; replicated-only subplans take the max), feeds them
/// into its feedback cache, and re-optimizes the *global* plan — the
/// cluster-level analogue of the paper's optimize-check-reoptimize loop.
/// The final attempt runs check-free to guarantee termination.
///
/// Thread safe: concurrent Execute() calls share only the connection pool
/// and metrics.
class Coordinator : public DistributedBackend,
                    public net::ClusterObservability {
 public:
  /// `catalog` is the coordinator's global catalog (full tables, used only
  /// for optimization — never scanned). Not owned; must outlive this.
  Coordinator(const Catalog& catalog, CoordinatorConfig config);

  /// True when the query can run scatter-gather (dist/split.h
  /// IsShardable); anything else falls back to local execution.
  bool CanExecute(const QuerySpec& query) const override;

  /// Runs `query` across the shards. `cancel` is polled and propagated to
  /// every in-flight shard subquery (fan-out cancellation); `feedback` (may
  /// be null) is seeded from and absorbed into across executions; `stats`
  /// receives one AttemptInfo per global attempt — including a merged
  /// per-shard EXPLAIN ANALYZE profile and per-shard timing breakdown.
  /// `info` carries the query id and trace token propagated to every shard
  /// subplan so the cluster trace stitches into one timeline.
  Result<std::vector<Row>> Execute(const QuerySpec& query,
                                   CancelToken* cancel,
                                   QueryFeedbackStore* feedback,
                                   ExecutionStats* stats,
                                   const DistQueryInfo& info = {}) override;

  /// net::ClusterObservability: harvests every shard's span dump over the
  /// pool and stitches it with the coordinator's own spans into one Chrome
  /// trace (pid 0 = coordinator, pid i+1 = shard i). Unreachable shards
  /// are skipped — a partial cluster trace beats none.
  Result<std::string> ClusterTraceJson() override;

  /// net::ClusterObservability: scrapes every reachable shard's metrics
  /// and appends them to `local_text` with shard="N" labels.
  Result<std::string> FederatedMetricsText(
      const std::string& local_text) override;

  /// Registers the coordinator's metrics (popdb_dist_*) in `registry`
  /// (typically the query service's). Call once, before Execute.
  void RegisterMetrics(MetricsRegistry* registry);

  int num_shards() const { return static_cast<int>(config_.shards.size()); }

  /// Test/bench knob: shrinks the row_batch size so cancellation and
  /// failure injection reliably land mid-stream.
  void set_batch_rows(int64_t rows) { config_.batch_rows = rows; }

 private:
  struct ShardOutcome;
  struct ScatterState;

  /// One gather thread: runs the subplan on shard `i`, streaming rows and
  /// events into `state`. `trace_token` tags the gather span so it stitches
  /// with the shard-side subplan span.
  void GatherFromShard(int shard, const std::string& payload,
                       const std::string& trace_token, ScatterState* state);

  /// Best-effort cancel of every in-flight shard subquery (fresh control
  /// connections; the streaming connections are busy).
  void CancelShards(ScatterState* state);

  const Catalog& catalog_;
  CoordinatorConfig config_;
  net::ClientPool pool_;

  // Metrics (registry-owned; null until RegisterMetrics).
  Gauge* shards_up_ = nullptr;
  Counter* queries_total_ = nullptr;
  Counter* reopts_total_ = nullptr;
  Counter* shard_errors_total_ = nullptr;
  Histogram* scatter_latency_ = nullptr;
  /// Per-shard series (one element per endpoint, labeled shard="i").
  std::vector<Counter*> shard_rows_total_;
  std::vector<Histogram*> shard_latency_;
  /// Straggler lag: slowest minus fastest shard wall time per round.
  Histogram* shard_lag_ = nullptr;
};

}  // namespace popdb::dist

#endif  // POPDB_DIST_COORDINATOR_H_
