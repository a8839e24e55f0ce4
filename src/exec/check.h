#ifndef POPDB_EXEC_CHECK_H_
#define POPDB_EXEC_CHECK_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"

namespace popdb {

/// Streaming CHECK operator (paper Figure 10). Counts rows flowing from
/// its child; triggers re-optimization as soon as the count exceeds the
/// upper bound of the check range, or at end-of-stream if the count falls
/// below the lower bound. Used for eager checkpoints (ECB under a TEMP,
/// ECWC below a materialization point, ECDC in a pipeline).
class CheckOp : public Operator {
 public:
  CheckOp(std::unique_ptr<Operator> child, CheckSpec spec);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  /// Batch-boundary evaluation: counts whole batches (one comparison per
  /// batch). For an enforced upper bound the child's batch target is
  /// clamped to the rows remaining before the violation threshold, so the
  /// violating row is always the last one pulled and the check fires with
  /// a row-exact observed cardinality above any child.
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  const char* name() const override { return "CHECK"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  /// Rows that passed the check leave its count and go back to the child
  /// (a join above stopping with pulled rows still held). After an
  /// enforced violation nothing goes back: the decision read every kept
  /// row.
  void ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) override;

  int64_t count() const { return count_; }

 private:
  /// Records this checkpoint's one evaluation (CheckSpec::Decide); true
  /// when an enforced violation ends the stream.
  bool Decide(ExecContext* ctx, bool fired, bool exact);

  std::unique_ptr<Operator> child_;
  CheckSpec spec_;
  int64_t count_ = 0;
  int64_t work_first_ = -1;
  bool event_recorded_ = false;
  bool violated_ = false;  ///< An enforced violation ended the stream.
};

/// BUFCHECK (paper Figures 8 and 10): a CHECK fused with a bounded buffer,
/// usable on pipelined edges. Rows are buffered until the check's outcome
/// is certain, then released:
///   - count exceeds the upper bound  -> re-optimize (count is a lower
///     bound on the true cardinality; nothing was emitted),
///   - EOF with count below the lower bound -> re-optimize (exact count),
///   - lower-bound-only ranges ([lo, inf)) succeed the moment the lo-th
///     row arrives, after which rows stream through with no buffering.
/// The buffer never holds more than min(hi, lo)+1 rows, unlike the
/// unbounded TEMP the prototype used as a stand-in buffer.
///
/// The child's batch target is clamped to the rows remaining before the
/// next decision point, so the decision lands on the last row of a pulled
/// batch. A child that returns more (a hash join emits every match of a
/// probe batch) leaves rows past the decision row in the buffer; they are
/// served as pass-through rows, uncharged like the rows pulled after it.
class BufCheckOp : public Operator {
 public:
  BufCheckOp(std::unique_ptr<Operator> child, CheckSpec spec);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  bool HarvestInfo(HarvestedResult* out) const override;
  const char* name() const override { return "BUFCHECK"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  /// Buffered rows are un-read: the charged ones are un-charged and the
  /// buffer rewinds. Pass-through rows leave the count and go back to the
  /// child.
  void ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) override;

  int64_t count() const { return count_; }

 private:
  /// Records this checkpoint's one evaluation (CheckSpec::Decide); true
  /// when an enforced violation ends the stream.
  bool Decide(ExecContext* ctx, bool fired, bool exact);

  std::unique_ptr<Operator> child_;
  CheckSpec spec_;
  std::vector<Row> buffer_;
  size_t buffer_pos_ = 0;
  /// Buffered rows before this index cost one work unit when served; the
  /// rest came past the decision row and pass through.
  size_t charged_end_ = 0;
  /// The last batch served came from the buffer (not pass-through).
  bool served_buffer_ = false;
  int64_t count_ = 0;
  bool decided_ = false;
  bool child_eof_ = false;
  int64_t work_first_ = -1;
  bool event_recorded_ = false;
};

/// Re-optimizes when the actual execution work exceeds a budget — the
/// paper's closing observation that CHECK can guard "parameters other than
/// the cardinality ... such as memory consumption, execution time, or even
/// the overall system load" (Section 8). Compares ExecContext::work
/// against `work_budget` on every row and fires at most once.
///
/// Work is compared row by row with every operator above having charged
/// its work for the rows before: the child runs on one-row batches and
/// each row is returned as a batch of its own.
class WorkBoundOp : public Operator {
 public:
  WorkBoundOp(std::unique_ptr<Operator> child, double work_budget,
              TableSet edge_set);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  const char* name() const override { return "WORKBOUND"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<Operator> child_;
  /// The budget as the range [0, work_budget] of a WORKBOUND check on the
  /// guarded edge; fills the re-optimization signal when exceeded.
  CheckSpec bound_;
  int64_t count_ = 0;
  RowBatch held_;  ///< Child batch being served row by row.
  int64_t held_pos_ = 0;
};

/// Lazy CHECK above a materialization point (TEMP, SORT): evaluates the
/// check range exactly once, right after the child completes its
/// materialization during Open, by reading the child's materialized
/// cardinality. No compensation is ever needed because nothing has flowed
/// above the materialization yet (Section 3.1).
class CheckMaterializedOp : public Operator {
 public:
  CheckMaterializedOp(std::unique_ptr<Operator> child, CheckSpec spec);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override {
    return child_->NextBatch(ctx, out);
  }
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  const char* name() const override { return "CHECKM"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  /// Pure 1:1 forwarder above a materialization: returned rows go back to
  /// both this wrapper and the materializing child.
  void ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) override {
    Operator::ReturnUnconsumed(ctx, unconsumed);
    child_->ReturnUnconsumed(ctx, unconsumed);
  }

 private:
  std::unique_ptr<Operator> child_;
  CheckSpec spec_;
};

/// Records every row it passes upward into ExecContext::returned_rows.
/// This is the paper's INSERT-into-side-table S used by eager checking
/// with deferred compensation (Section 3.3): if re-optimization strikes
/// after rows were pipelined to the application, the new plan compensates
/// with an anti-join against S.
class RidTrackOp : public Operator {
 public:
  RidTrackOp(std::unique_ptr<Operator> child, TableSet table_set)
      : Operator(table_set), child_(std::move(child)) {}

  ExecStatus OpenImpl(ExecContext* ctx) override { return child_->Open(ctx); }
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  const char* name() const override { return "INSERT(S)"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<Operator> child_;
};

/// Anti-join (multiset set-difference) against the side table of rows that
/// were already returned to the application in a previous execution step.
/// Each previously returned row suppresses exactly one equal row of the
/// new stream, so re-executed pipelined plans return no false duplicates.
class AntiCompensateOp : public Operator {
 public:
  AntiCompensateOp(std::unique_ptr<Operator> child,
                   const std::vector<Row>& already_returned,
                   TableSet table_set);

  ExecStatus OpenImpl(ExecContext* ctx) override { return child_->Open(ctx); }
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override { child_->Close(ctx); }
  const char* name() const override { return "ANTIJOIN(S)"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<Operator> child_;
  std::unordered_map<Row, int64_t, RowHash> remaining_;
};

}  // namespace popdb

#endif  // POPDB_EXEC_CHECK_H_
