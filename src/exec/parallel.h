#ifndef POPDB_EXEC_PARALLEL_H_
#define POPDB_EXEC_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace popdb {

/// Tuning knobs for morsel-driven intra-query parallelism (Hyrise/DuckDB
/// style). Carried from ServiceConfig through the ProgressiveExecutor into
/// the ExecutorBuilder, which decides per plan leaf whether to fan out.
struct ParallelPolicy {
  /// Maximum workers a single parallel fragment may occupy, including the
  /// query's own thread. 1 = serial execution (the default everywhere).
  int dop = 1;

  /// Rows per morsel. Morsels are claimed dynamically from a shared
  /// counter, so stragglers self-balance; the result order is the serial
  /// rid order regardless of this value or who ran which morsel.
  int64_t morsel_rows = 2048;

  /// Tables smaller than this never fan out: the task-group handshake
  /// costs more than scanning a few thousand rows.
  int64_t min_parallel_rows = 4096;

  /// Simulated per-morsel I/O stall in ms, sliced for cancel
  /// responsiveness. Models the page-read wait of a disk-based engine so
  /// scaling experiments (bench_morsel_scaling) can measure overlap
  /// independent of core count.
  double morsel_stall_ms = 0.0;

  /// Per-task hash-agg pre-aggregation above a parallel scan. Off by
  /// default: merging per-task partial aggregates reorders floating-point
  /// SUM/AVG addition, so results are only bit-identical to serial
  /// execution for integer/COUNT/MIN/MAX aggregates.
  bool preaggregate = false;

  /// Rows per execution batch (exec/batch.h) for the plan and its morsel
  /// fragments. Results, CHECK firings, work and harvested feedback do not
  /// depend on it; it only trades per-batch overhead against batch memory.
  int64_t batch_rows = kDefaultBatchRows;

  bool enabled() const { return dop > 1; }
};

class TaskGroup;

/// One claimable unit of work handed to a TaskRunner. Exactly one thread
/// ever runs it: a helper claims it when dequeued, and the owning
/// TaskGroup steals unclaimed tasks back at join time — so a task is never
/// lost when the pool is saturated and never runs twice.
class ParallelTask {
 public:
  ParallelTask(TaskGroup* group, std::function<void()> fn)
      : group_(group), fn_(std::move(fn)) {}

  /// Claims and runs the task if nobody else did. Safe to call from any
  /// thread at any time, including after the owning group joined (the
  /// claim then fails and the group is never touched).
  bool RunIfUnclaimed();

 private:
  TaskGroup* group_;
  std::function<void()> fn_;
  std::atomic<bool> claimed_{false};
};

/// Executes ParallelTasks on helper threads. Implementations (the
/// runtime's MorselDispatcher) may run a task at any later time or never;
/// the submitting TaskGroup reclaims unstarted tasks when it joins, so a
/// rejected or ignored submission only costs parallelism, not
/// correctness.
class TaskRunner {
 public:
  virtual ~TaskRunner() = default;

  /// Offers a task for asynchronous execution. Returns false when the
  /// runner cannot accept it (backpressure); the caller then simply does
  /// the work itself. Never blocks.
  virtual bool TrySubmit(std::shared_ptr<ParallelTask> task) = 0;
};

/// Fans one worker function out across the calling thread plus helper
/// threads and joins. The caller always participates (worker index 0), so
/// a busy or absent runner degrades gracefully to serial execution instead
/// of deadlocking — the pattern that lets QueryService workers double as
/// morsel helpers without reserving threads.
class TaskGroup {
 public:
  /// Runs `fn(worker_index)` on up to `parallelism` workers:
  /// `parallelism - 1` tasks offered to `runner` plus the calling thread.
  /// `fn` must pull its actual work (morsels) from shared state; indices
  /// only label workers. Blocks until every started instance returned and
  /// reclaims tasks no helper picked up. Serial (one inline call) when
  /// `runner` is null or `parallelism <= 1`.
  static void Run(TaskRunner* runner, int parallelism,
                  const std::function<void(int)>& fn);

 private:
  friend class ParallelTask;

  void OnTaskDone();

  std::mutex mu_;
  std::condition_variable cv_;
  int outstanding_ = 0;
};

/// Exchange operator: splits a base-table range into fixed-size morsels,
/// fans a fragment factory across a TaskGroup at Open, and merges the
/// per-morsel outputs in morsel order — so the row stream it serves to the
/// serial tail of the plan is bit-identical to serial execution for any
/// dop or morsel size. CHECK operators sit *above* the exchange and
/// therefore see aggregated row counts (they fire once at the global
/// threshold, never per morsel), and the pull-driven base-class counters
/// make harvested feedback match serial execution exactly: rows_produced
/// counts consumer pulls, not internally materialized rows, so an early
/// CHECK unwind still yields the same lower bound a partial serial scan
/// would have.
class MorselExchangeOp : public Operator {
 public:
  /// Builds the per-morsel fragment over source rows [begin, end) — e.g.
  /// a TBSCAN with a rid range, optionally under FILTER/PROJECT. Invoked
  /// concurrently from morsel tasks; must be pure construction from
  /// immutable inputs.
  using FragmentFactory =
      std::function<std::unique_ptr<Operator>(int64_t begin, int64_t end)>;

  /// Receives batches inside the producing task (hash-agg
  /// pre-aggregation). Called concurrently, but never concurrently for one
  /// worker index.
  using BatchSink = std::function<void(int worker, const RowBatch& batch)>;

  MorselExchangeOp(FragmentFactory factory, int64_t source_rows,
                   TableSet table_set, ParallelPolicy policy)
      : Operator(table_set),
        factory_(std::move(factory)),
        source_rows_(source_rows),
        policy_(policy) {}

  /// Diverts rows to `sink` instead of the reorder buffers: NextBatch()
  /// then reports EOF immediately and the externally consumed row count is
  /// credited to rows_produced so feedback stays exact. Set before Open,
  /// clear (pass nullptr) after; the exchange does not own sink state.
  void SetBatchSink(BatchSink sink) { sink_ = std::move(sink); }

  const ParallelPolicy& policy() const { return policy_; }
  /// Morsels executed during the last Open (all of them unless aborted).
  int64_t morsels_run() const { return morsels_run_; }
  /// Workers that ran at least one morsel during the last Open.
  int workers_used() const { return workers_used_; }
  /// Fragment-root OperatorStats summed across morsels (NextBatch calls,
  /// timings), aggregated under the exchange's merge lock.
  const OperatorStats& fragment_stats() const { return fragment_stats_; }

  ExecStatus OpenImpl(ExecContext* ctx) override;
  /// Serves the merged morsel outputs as batches in morsel order (rows are
  /// moved out of the reorder buffers).
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  const char* name() const override { return "EXCHANGE"; }

 private:
  FragmentFactory factory_;
  int64_t source_rows_;
  ParallelPolicy policy_;
  BatchSink sink_;

  /// Per-morsel output, merged in morsel (= rid) order by NextBatchImpl.
  std::vector<std::vector<Row>> buffers_;
  size_t cursor_morsel_ = 0;
  size_t cursor_pos_ = 0;

  int64_t morsels_run_ = 0;
  int workers_used_ = 0;
  OperatorStats fragment_stats_;
};

}  // namespace popdb

#endif  // POPDB_EXEC_PARALLEL_H_
