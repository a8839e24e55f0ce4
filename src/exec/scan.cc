#include "exec/scan.h"

namespace popdb {

ExecStatus TableScanOp::OpenImpl(ExecContext* ctx) {
  (void)ctx;
  next_rid_ = 0;
  return ExecStatus::kOk;
}

ExecStatus TableScanOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  // Passing rows are collected and gathered column-wise on return (rows
  // live in the pinned snapshot, so the pointers stay valid).
  const int width = static_cast<int>(gather_.sources.size());
  const int64_t target = BatchTarget(ctx, width);
  const int64_t end_rid = snapshot_.num_rows();
  out->Reset(width);
  while (next_rid_ < end_rid &&
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
    if (Passes(row)) pending_.right.push_back(&row);
  }
  gather_.Gather(nullptr, &pending_, out);
  if (out->num_rows > 0) return ExecStatus::kRow;
  return ExecStatus::kEof;
}

void TableScanOp::CloseImpl(ExecContext* ctx) { (void)ctx; }

bool TableScanOp::Passes(const Row& row) const {
  for (const ResolvedPredicate& p : preds_) {
    if (!EvalPredicate(p, row)) return false;
  }
  return true;
}

void TableScanOp::ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) {
  Operator::ReturnUnconsumed(ctx, unconsumed);
  // Walk back over the rows read since the last kept passing row: batch
  // size 1 stops reading right after the row its consumer takes last.
  int64_t returned = 0;
  while (next_rid_ > 0) {
    const int64_t rid = next_rid_ - 1;
    if (snapshot_.alive(rid)) {
      if (Passes(snapshot_.row(rid))) {
        if (returned == unconsumed) break;
        ++returned;
      }
      --ctx->work;
    }
    --next_rid_;
  }
}

}  // namespace popdb
