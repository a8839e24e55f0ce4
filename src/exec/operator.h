#ifndef POPDB_EXEC_OPERATOR_H_
#define POPDB_EXEC_OPERATOR_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/span.h"
#include "common/value.h"
#include "exec/batch.h"
#include "exec/layout.h"

namespace popdb {

/// Result of an operator call.
enum class ExecStatus {
  kOk,          ///< Open succeeded.
  kRow,         ///< NextBatch produced at least one row.
  kEof,         ///< NextBatch reached end of stream.
  kReoptimize,  ///< A CHECK fired; unwind and re-optimize.
  kError,       ///< Internal failure; details in ExecContext::error.
  kCancelled,   ///< Cooperative cancellation (client request or deadline).
};

/// True for statuses that must unwind the whole operator tree (anything
/// other than rows or a clean end of stream).
inline bool IsAbortStatus(ExecStatus s) {
  return s == ExecStatus::kReoptimize || s == ExecStatus::kError ||
         s == ExecStatus::kCancelled;
}

/// Which kind of checkpoint fired (paper Section 3).
enum class CheckFlavor {
  kLazy,                   ///< LC: above an existing materialization point.
  kLazyEagerMat,           ///< LCEM: artificial TEMP + CHECK on NLJN outer.
  kEagerBuffered,          ///< ECB: streaming check under a buffering TEMP.
  kEagerNoCompensation,    ///< ECWC: streaming check below a materialization.
  kEagerDeferredComp,      ///< ECDC: pipelined check with anti-join comp.
  kWorkBound,              ///< Extension: execution-work budget exceeded.
};

const char* CheckFlavorName(CheckFlavor flavor);

/// Details about the checkpoint that triggered re-optimization.
struct ReoptSignal {
  bool triggered = false;
  TableSet edge_set = 0;        ///< Table set of the guarded subplan edge.
  int64_t observed_rows = 0;    ///< Rows seen when the check fired.
  bool exact = false;           ///< True if the count is the full cardinality.
  CheckFlavor flavor = CheckFlavor::kLazy;
  double check_lo = 0;
  double check_hi = 0;
};

/// Where in the plan a checkpoint sits (used to classify opportunities in
/// the Figure 14 reproduction).
enum class CheckSite {
  kMatPoint,   ///< Above a SORT/TEMP materialization.
  kHsjnBuild,  ///< On a hash-join build side.
  kNljnOuter,  ///< Guarding a nested-loop-join outer (LCEM/ECB).
  kPipeline,   ///< Mid-pipeline (ECWC/ECDC).
};

/// Record of one checkpoint evaluation during execution, captured even
/// when the check range holds. Used by the opportunity analysis (paper
/// Figure 14): `work_first` / `work_eval` are the values of
/// ExecContext::work when the checkpoint saw its first row and when it
/// made its decision, so the harness can report checkpoint positions as
/// fractions of total work.
struct CheckEvent {
  TableSet edge_set = 0;
  CheckFlavor flavor = CheckFlavor::kLazy;
  CheckSite site = CheckSite::kMatPoint;
  int64_t work_first = -1;
  int64_t work_eval = -1;
  int64_t count = 0;
  bool fired = false;
};

struct ExecContext;

/// Check condition evaluated against a row count: the CHECK operators
/// (check.h) and the optional lazy check on a hash-join build. One
/// evaluation is recorded per checkpoint; the helpers below are the one
/// place that records it and raises the re-optimization signal.
struct CheckSpec {
  bool enabled = false;
  double lo = 0.0;
  double hi = 0.0;
  CheckFlavor flavor = CheckFlavor::kLazy;
  TableSet edge_set = 0;
  /// Record a CheckEvent but never trigger re-optimization (used by the
  /// opportunity-analysis experiments, Figure 14).
  bool observe_only = false;

  /// Records one evaluation at `site` over `count` rows as a CheckEvent
  /// (`work_first`: ExecContext::work when the first row arrived) with its
  /// checkpoint_fired / checkpoint_evaluated trace instant. When it
  /// `fired` and is enforced, raises the re-optimization signal with
  /// `count` observed rows and returns true: the caller stops with
  /// kReoptimize.
  bool Decide(ExecContext* ctx, CheckSite site, int64_t work_first,
              int64_t count, bool fired, bool exact) const;

  /// The lazy check on a completed materialization of `count` rows (CHECKM
  /// above SORT/TEMP, HSJN's build check): evaluated once, with an exact
  /// count. Returns true when the caller must stop with kReoptimize.
  bool DecideMaterialized(ExecContext* ctx, CheckSite site,
                          int64_t count) const;

  /// Fills ExecContext::reopt: this spec's edge, flavor and range, and
  /// `observed` rows (`exact` when the count is the full cardinality).
  void Raise(ExecContext* ctx, int64_t observed, bool exact) const;

  /// Batch target for the child of a streaming check that has passed
  /// `count` rows: the rows left before the next decision point (the
  /// violation threshold floor(hi) + 1 for a finite upper bound, else the
  /// release count lo), at least 1 and at most `full`. The decision then
  /// falls on the last row of a pulled batch.
  int64_t ClampTarget(int64_t count, int64_t full) const;

  /// Index in an `n`-row batch, arriving after `before` rows, of the first
  /// row that pushes the count past hi (so the rows kept before it), or -1
  /// when the batch stays within hi.
  int64_t ViolatingRow(int64_t before, int64_t n) const;
};

/// One completed materialization: the immutable row buffer a SORT, TEMP
/// or hash-join build fills during Open. The producing operator, the
/// temporary-MV registry, plan nodes, MVSCAN and NLJN inners share it, so
/// reusing a result copies no row and it lives as long as its last reader.
using SharedRows = std::shared_ptr<const std::vector<Row>>;

/// A materialized intermediate result offered for reuse after a CHECK
/// fires (paper Section 2.3).
struct HarvestedResult {
  TableSet table_set = 0;
  bool complete = false;  ///< True if materialization finished (exact card).
  int64_t count = 0;
  /// The completed buffer; null while incomplete or when reuse is off.
  SharedRows rows;
  /// Row-layout positions the rows are sorted on (empty if unsorted);
  /// lets a re-optimized merge join skip re-sorting the reused view.
  std::vector<int> sorted_positions;
};

class Operator;

/// Shared mutable state for one plan execution.
struct ExecContext {
  /// Parameter marker bindings (by param_index).
  std::vector<Value> params;

  /// Memory budget, in rows, for hash-join builds and sorts. Exceeding it
  /// switches those operators to multi-pass (spilling) mode — the source of
  /// the cost-model cliffs that motivate validity ranges (Section 2.2).
  int64_t mem_rows = 1 << 20;

  /// Deterministic work counter: incremented once per row touched by any
  /// operator. Used as a machine-independent cost measure alongside wall
  /// time in the experiments.
  int64_t work = 0;

  /// Set when a CHECK fires.
  ReoptSignal reopt;

  /// Operators that materialize results register here during Open so the
  /// re-optimization controller can harvest intermediate results and
  /// actual cardinalities.
  std::vector<Operator*> materializers;

  /// Rows already returned to the application, recorded by RidTrackOp when
  /// eager checking with deferred compensation is active.
  std::vector<Row> returned_rows;

  /// Checkpoint evaluations observed during this execution (Figure 14).
  std::vector<CheckEvent> check_events;

  std::string error;

  /// Cooperative cancellation token, polled by operators in their row loops
  /// (scans, NLJN inner loops, spill passes). Not owned; may be null.
  CancelToken* cancel = nullptr;

  /// Target rows per RowBatch exchanged between operators. A batch of one
  /// row gives row granularity; CHECKs and work bounds clamp the target of
  /// their subtree where they need it, so results, CHECK decisions, work
  /// and feedback do not depend on this value.
  int64_t batch_rows = kDefaultBatchRows;

  /// Strided poll before reading `rows` rows (at most kCancelPollStride):
  /// checks the token once per kCancelPollStride rows polled, so the
  /// per-row cost is a decrement on the fast path, and a window of rows
  /// polls as its rows one by one would, only sooner. Returns true once
  /// the token tripped (explicit cancel or deadline); the polling operator
  /// then unwinds with ExecStatus::kCancelled.
  bool CancelPending(int64_t rows = 1) {
    if (cancel == nullptr) return false;
    if ((cancel_poll_countdown_ -= rows) > 0) return false;
    cancel_poll_countdown_ += kCancelPollStride;
    return cancel->Expired();
  }

 private:
  static constexpr int64_t kCancelPollStride = 256;
  int64_t cancel_poll_countdown_ = 1;
};

/// Per-operator execution counters and wall-clock timings, read by EXPLAIN
/// ANALYZE after execution. Every NextBatch call is timed: one clock pair
/// per batch is cheap next to the batch's rows.
struct OperatorStats {
  int64_t next_calls = 0;  ///< NextBatch invocations (incl. EOF).
  int64_t open_ns = 0;     ///< Wall time inside Open (subtree included).
  int64_t next_ns = 0;     ///< Wall time inside NextBatch.
  int64_t close_ns = 0;    ///< Wall time inside Close.
  int64_t loops = 0;       ///< NLJN: outer rows probed against the inner.
  int64_t partitions = 0;  ///< HSJN: leaf partitions joined after spilling.
  int64_t spills = 0;      ///< Extra passes: sort run merges, hash repartitions.

  double open_ms() const { return static_cast<double>(open_ns) / 1e6; }
  double next_ms() const { return static_cast<double>(next_ns) / 1e6; }
  double close_ms() const { return static_cast<double>(close_ns) / 1e6; }
};

/// Base class for Volcano-style iterators (open/next/close; Figure 10 of
/// the paper uses the same model) that exchange RowBatches. Single-threaded;
/// an operator tree is driven by repeatedly calling NextBatch on the root.
///
/// The public Open/NextBatch/Close entry points are non-virtual wrappers
/// that maintain OperatorStats (row counts, wall-clock timings), emit one
/// tracer span per operator lifetime, and centralize the row/EOF
/// accounting; subclasses implement OpenImpl/NextBatchImpl/CloseImpl.
///
/// Every operator counts the rows it produces (`rows_produced`) and whether
/// it ran to completion (`eof_seen`); the POP controller turns these into
/// cardinality feedback: exact cardinalities for completed edges, lower
/// bounds for partially executed ones.
class Operator {
 public:
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Prepares the operator (and its subtree). May return kReoptimize when a
  /// checkpoint fires during eager materialization.
  ExecStatus Open(ExecContext* ctx) {
    opened_ = true;
    closed_ = false;
    const int64_t t0 = ClockNs();
    if (SpanTracer::Global().enabled()) span_start_us_ = SpanTracer::Global().NowUs();
    const ExecStatus s = OpenImpl(ctx);
    stats_.open_ns += ClockNs() - t0;
    return s;
  }

  /// Produces the next batch of rows into `*out`. Returns kRow with at
  /// least one active row, or a terminal status with an untouched batch.
  /// Statuses raised mid-assembly after a non-empty prefix are delivered on
  /// the following call, so rows produced before an abort are never lost.
  /// After kEof the call must not be repeated.
  ExecStatus NextBatch(ExecContext* ctx, RowBatch* out) {
    ++stats_.next_calls;
    if (pending_batch_status_ != ExecStatus::kOk) {
      const ExecStatus s = pending_batch_status_;
      pending_batch_status_ = ExecStatus::kOk;
      if (s == ExecStatus::kEof) eof_seen_ = true;
      return s;
    }
    out->reserve_hint = BatchTarget(ctx);
    const int64_t t0 = ClockNs();
    const ExecStatus s = NextBatchImpl(ctx, out);
    stats_.next_ns += ClockNs() - t0;
    if (s == ExecStatus::kRow) {
      rows_produced_ += out->ActiveRows();
    } else if (s == ExecStatus::kEof) {
      eof_seen_ = true;
    }
    return s;
  }

  /// Takes back the last `unconsumed` rows of the batch this operator
  /// returned last, which its consumer pulled but never reached: a
  /// batch-boundary CHECK truncating past its violating row, WORKBOUND
  /// firing mid-batch, or a join stopping with input rows still held (MGJN
  /// at EOF of its other input, MGJN and NLJN at Close after an abort). The
  /// produced-row count drops by `unconsumed`, so harvested feedback counts
  /// only consumed rows. SORT, TEMP and MVSCAN share one override
  /// (RowBufferOp) that un-charges the served rows and rewinds; TBSCAN
  /// rewinds by rid, un-charging every row it read after the last kept
  /// one; HSJN un-charges the probe rows it never needed and hands them
  /// back to its probe child; BUFCHECK un-charges the buffered rows it
  /// served and rewinds; CHECK (until it fires), CHECKM and BUFCHECK's
  /// pass-through rows go on to the child. Hand-backs compose: two calls
  /// take back what one call with their sum takes back. A consumer that
  /// stops early calls it even when it kept every row it pulled: the
  /// producer may have read past the last row it handed over (a hash
  /// join's probe rows without a match, a scan's trailing rows failing its
  /// predicates), which batch size 1 never reads.
  virtual void ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) {
    (void)ctx;
    rows_produced_ -= unconsumed;
  }

  /// Releases resources and closes the children. Safe after any status; a
  /// repeated call, or a call on an operator never opened, does nothing,
  /// so a materializer may close its drained child early while closing
  /// the root still reaches every opened operator after an abort.
  void Close(ExecContext* ctx) {
    if (!opened_ || closed_) return;
    closed_ = true;
    const int64_t t0 = ClockNs();
    CloseImpl(ctx);
    stats_.close_ns += ClockNs() - t0;
    SpanTracer& tracer = SpanTracer::Global();
    if (span_start_us_ >= 0 && !span_emitted_ && tracer.enabled()) {
      span_emitted_ = true;
      tracer.RecordSpan(name(), "exec", span_start_us_,
                        tracer.NowUs() - span_start_us_, "rows",
                        rows_produced_);
    }
  }

  /// Table set this operator produces rows for (0 for post-join operators
  /// such as aggregation whose output is no longer a canonical table-set
  /// row).
  TableSet table_set() const { return table_set_; }

  int64_t rows_produced() const { return rows_produced_; }
  bool eof_seen() const { return eof_seen_; }
  const OperatorStats& stats() const { return stats_; }

  /// Child operators in plan order (empty for leaves). Used by EXPLAIN
  /// ANALYZE to walk the executed tree; the iterator interface itself never
  /// needs it.
  virtual std::vector<const Operator*> children() const { return {}; }

  /// If this operator holds a completed or in-progress materialization,
  /// fills `*out` and returns true (see HarvestedResult).
  virtual bool HarvestInfo(HarvestedResult* out) const {
    (void)out;
    return false;
  }

  /// Operator name for plan/debug printing.
  virtual const char* name() const = 0;

  /// Optimizer annotations attached by the ExecutorBuilder so EXPLAIN
  /// ANALYZE can report estimated vs. actual rows per executed operator.
  void AnnotateEstimates(double est_rows, double est_cost,
                         std::string detail) {
    est_rows_ = est_rows;
    est_cost_ = est_cost;
    detail_ = std::move(detail);
    annotated_ = true;
  }
  bool annotated() const { return annotated_; }
  double est_rows() const { return est_rows_; }
  double est_cost() const { return est_cost_; }
  const std::string& detail() const { return detail_; }

 protected:
  explicit Operator(TableSet table_set) : table_set_(table_set) {}

  virtual ExecStatus OpenImpl(ExecContext* ctx) = 0;
  /// Fills `*out` with at most BatchTarget(ctx) rows (join operators that
  /// emit every match of an input batch may exceed it; see
  /// ReturnUnconsumed).
  virtual ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) = 0;
  virtual void CloseImpl(ExecContext* ctx) = 0;

  /// Stashes `s` for delivery on the next NextBatch call and returns kRow
  /// if `out` carries a non-empty prefix; returns `s` directly otherwise.
  /// Native NextBatchImpl overrides use this to flush rows produced before
  /// a mid-batch terminal status.
  ExecStatus FlushOrStatus(RowBatch* out, ExecStatus s) {
    if (out->ActiveRows() == 0) return s;
    pending_batch_status_ = s;
    return ExecStatus::kRow;
  }

  /// Target active rows per produced batch.
  static int64_t BatchTarget(const ExecContext* ctx) {
    return std::max<int64_t>(1, ctx->batch_rows);
  }

  /// Width-aware target: scales the context target down so one batch's
  /// payload (`width` columns of Value) stays within a fixed byte budget.
  /// Wide batches otherwise outgrow the cache between fill and
  /// consumption and the gather/scatter loops of vectorized operators go
  /// memory-bound; narrow batches keep the full row target. Never exceeds
  /// the context target, so CHECK batch-target clamping stays exact.
  static int64_t BatchTarget(const ExecContext* ctx, int width) {
    return CapBatchRowsForWidth(BatchTarget(ctx), width);
  }

  /// Mutable counters for subclass-specific detail (loops/partitions/
  /// spills).
  OperatorStats& mutable_stats() { return stats_; }

  static int64_t ClockNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  TableSet table_set_;
  int64_t rows_produced_ = 0;
  bool eof_seen_ = false;
  OperatorStats stats_;
  double est_rows_ = -1.0;
  double est_cost_ = -1.0;
  std::string detail_;
  bool annotated_ = false;
  int64_t span_start_us_ = -1;
  bool span_emitted_ = false;
  bool opened_ = false;
  bool closed_ = false;
  ExecStatus pending_batch_status_ = ExecStatus::kOk;
};

/// Runs `root` to completion, appending produced rows to `*out_rows`.
/// Returns the final status (kEof on success, kReoptimize if a checkpoint
/// fired, kError on failure). Opens and closes the tree.
ExecStatus RunToCompletion(Operator* root, ExecContext* ctx,
                           std::vector<Row>* out_rows);

/// Drains an already-open `child` to EOF into `*rows`, charging one work
/// unit per row — the materialization drain shared by SORT/TEMP and the
/// hash-join build and spill-probe sides. Returns kEof on completion or the
/// child's abort status (rows drained before the abort are kept).
ExecStatus DrainChildRows(Operator* child, ExecContext* ctx,
                          std::vector<Row>* rows);

}  // namespace popdb

#endif  // POPDB_EXEC_OPERATOR_H_
