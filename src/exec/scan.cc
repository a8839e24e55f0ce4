#include "exec/scan.h"

#include <algorithm>

namespace popdb {

ExecStatus TableScanOp::OpenImpl(ExecContext* ctx) {
  (void)ctx;
  next_rid_ = begin_rid_;
  stop_rid_ = end_rid_ < 0 ? snapshot_.num_rows()
                           : std::min(end_rid_, snapshot_.num_rows());
  return ExecStatus::kOk;
}

ExecStatus TableScanOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  // Passing rows are collected and gathered column-wise on return (rows
  // live in the pinned snapshot, so the pointers stay valid).
  const int width = static_cast<int>(gather_.sources.size());
  const int64_t target = BatchTarget(ctx, width);
  out->Reset(width);
  while (next_rid_ < stop_rid_ &&
         static_cast<int64_t>(pending_.size()) < target) {
    if (ctx->CancelPending()) {
      gather_.Gather(nullptr, &pending_, out);
      return FlushOrStatus(out, ExecStatus::kCancelled);
    }
    if (!snapshot_.alive(next_rid_)) {
      ++next_rid_;
      continue;
    }
    const Row& row = snapshot_.row(next_rid_);
    ++next_rid_;
    ++ctx->work;
    bool pass = true;
    for (const ResolvedPredicate& p : preds_) {
      if (!EvalPredicate(p, row)) {
        pass = false;
        break;
      }
    }
    if (pass) pending_.right.push_back(&row);
  }
  gather_.Gather(nullptr, &pending_, out);
  if (out->num_rows > 0) return ExecStatus::kRow;
  return ExecStatus::kEof;
}

void TableScanOp::CloseImpl(ExecContext* ctx) { (void)ctx; }

ExecStatus MatViewScanOp::OpenImpl(ExecContext* ctx) {
  (void)ctx;
  next_ = 0;
  return ExecStatus::kOk;
}

ExecStatus MatViewScanOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  const int64_t target = BatchTarget(
      ctx, rows_->empty() ? 0 : static_cast<int>(rows_->front().size()));
  out->Clear();
  while (next_ < rows_->size() && out->num_rows < target) {
    ++ctx->work;
    out->AppendRow((*rows_)[next_]);
    ++next_;
  }
  if (out->num_rows > 0) return ExecStatus::kRow;
  return ExecStatus::kEof;
}

void MatViewScanOp::CloseImpl(ExecContext* ctx) { (void)ctx; }

void MatViewScanOp::ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) {
  Operator::ReturnUnconsumed(ctx, unconsumed);
  ctx->work -= unconsumed;
  next_ -= static_cast<size_t>(unconsumed);
}

}  // namespace popdb
