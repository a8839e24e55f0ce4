#include "exec/check.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"

namespace popdb {

CheckOp::CheckOp(std::unique_ptr<Operator> child, CheckSpec spec)
    : Operator(child->table_set()), child_(std::move(child)), spec_(spec) {}

ExecStatus CheckOp::OpenImpl(ExecContext* ctx) {
  count_ = 0;
  work_first_ = -1;
  event_recorded_ = false;
  violated_ = false;
  if (spec_.enabled) {
    TRACE_INSTANT_ARG("checkpoint_armed", "exec", "edge_set",
                      spec_.edge_set);
  }
  return child_->Open(ctx);
}

bool CheckOp::Decide(ExecContext* ctx, bool fired, bool exact) {
  if (event_recorded_) return false;
  event_recorded_ = true;
  violated_ = spec_.Decide(ctx,
                           spec_.flavor == CheckFlavor::kEagerBuffered
                               ? CheckSite::kNljnOuter
                               : CheckSite::kPipeline,
                           work_first_, count_, fired, exact);
  return violated_;
}

void CheckOp::ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) {
  Operator::ReturnUnconsumed(ctx, unconsumed);
  if (violated_) return;
  count_ -= unconsumed;
  child_->ReturnUnconsumed(ctx, unconsumed);
}

ExecStatus CheckOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  // For an enforced upper bound, clamp the child's batch target to the
  // rows remaining before the violation threshold: the child never
  // produces past the violating row, so a violation lands on the final row
  // of the pulled batch and no consumed-but-unemitted rows exist.
  // Observation mode and pure lower bounds never truncate, so they pass
  // full batches through unclamped. The pull that brings the first row
  // asks for one row, so `work_first_` is the work at the first row
  // whatever the batch size.
  const bool enforced_hi =
      spec_.enabled && !spec_.observe_only &&
      spec_.hi != std::numeric_limits<double>::infinity();
  const int64_t full_target = ctx->batch_rows;
  if (count_ == 0) {
    ctx->batch_rows = 1;
  } else if (enforced_hi) {
    ctx->batch_rows = spec_.ClampTarget(count_, full_target);
  }
  const ExecStatus s = child_->NextBatch(ctx, out);
  ctx->batch_rows = full_target;
  if (s == ExecStatus::kRow) {
    const int64_t n = out->ActiveRows();
    if (count_ == 0 && n > 0) work_first_ = ctx->work;
    const int64_t before = count_;
    const int64_t keep = spec_.enabled ? spec_.ViolatingRow(before, n) : -1;
    if (keep >= 0) {
      // Fire on the first row that pushes the count past hi, emitting only
      // the rows before it, and report the count through the violating
      // row. With the clamp above an enforced violation is the batch's
      // final row (keep == n - 1) unless the child returned more than its
      // target (a hash join's matches); those rows go back. In observation
      // mode the event is recorded and the full batch streams on.
      count_ = before + keep + 1;
      if (Decide(ctx, /*fired=*/true, /*exact=*/false)) {
        child_->ReturnUnconsumed(ctx, n - keep - 1);
        out->TruncateActive(keep);
        return FlushOrStatus(out, ExecStatus::kReoptimize);
      }
    }
    count_ = before + n;
    return ExecStatus::kRow;
  }
  if (s == ExecStatus::kEof && spec_.enabled &&
      Decide(ctx, static_cast<double>(count_) < spec_.lo, /*exact=*/true)) {
    return ExecStatus::kReoptimize;
  }
  return s;
}

BufCheckOp::BufCheckOp(std::unique_ptr<Operator> child, CheckSpec spec)
    : Operator(child->table_set()), child_(std::move(child)), spec_(spec) {}

bool BufCheckOp::Decide(ExecContext* ctx, bool fired, bool exact) {
  if (event_recorded_) return false;
  event_recorded_ = true;
  return spec_.Decide(ctx, CheckSite::kNljnOuter, work_first_, count_, fired,
                      exact);
}

ExecStatus BufCheckOp::OpenImpl(ExecContext* ctx) {
  ctx->materializers.push_back(this);
  count_ = 0;
  buffer_.clear();
  buffer_pos_ = 0;
  charged_end_ = 0;
  served_buffer_ = false;
  decided_ = false;
  child_eof_ = false;
  event_recorded_ = false;
  work_first_ = -1;
  if (spec_.enabled) {
    TRACE_INSTANT_ARG("checkpoint_armed", "exec", "edge_set",
                      spec_.edge_set);
  }
  const ExecStatus s = child_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  if (!spec_.enabled) {
    decided_ = true;
    return ExecStatus::kOk;
  }
  // Buffer rows ("like a valve", Section 3.3) until the outcome is known.
  // The child's batch target is clamped to the rows remaining before the
  // next decision point — the violation threshold for a finite upper
  // bound, the release count for a [lo, inf) valve — so the decision
  // falls on the last row of a pulled batch. The first pull asks for one
  // row, so `work_first_` is the work at the first row.
  const bool finite_hi = spec_.hi != std::numeric_limits<double>::infinity();
  const int64_t full_target = ctx->batch_rows;
  RowBatch b;
  while (!decided_) {
    ctx->batch_rows =
        count_ == 0 ? 1 : spec_.ClampTarget(count_, full_target);
    const ExecStatus cs = child_->NextBatch(ctx, &b);
    ctx->batch_rows = full_target;
    if (cs == ExecStatus::kEof) {
      child_eof_ = true;
      if (Decide(ctx, static_cast<double>(count_) < spec_.lo,
                 /*exact=*/true)) {
        return ExecStatus::kReoptimize;
      }
      decided_ = true;
      break;
    }
    if (cs != ExecStatus::kRow) return cs;
    const int64_t n = b.ActiveRows();
    if (count_ == 0) work_first_ = ctx->work;
    const int64_t before = count_;
    // Rows through the decision row, when this batch decides.
    int64_t decided_at = n;
    const int64_t keep = spec_.ViolatingRow(before, n);
    if (keep >= 0) {
      // Cut short at the first row past hi: the count through it is a
      // lower bound, and nothing was emitted yet. Observation mode records
      // the event and streams on.
      count_ = before + keep + 1;
      if (!spec_.observe_only) child_->ReturnUnconsumed(ctx, n - keep - 1);
      if (Decide(ctx, /*fired=*/true, /*exact=*/false)) {
        return ExecStatus::kReoptimize;
      }
      decided_ = true;
      decided_at = keep + 1;
    } else if (!finite_hi && static_cast<double>(before + n) >= spec_.lo) {
      // [lo, inf): success is certain at the first row reaching lo;
      // release the valve there.
      decided_at = std::clamp<int64_t>(
          static_cast<int64_t>(std::ceil(spec_.lo)) - before, 1, n);
      count_ = before + decided_at;
      decided_ = true;
      Decide(ctx, /*fired=*/false, /*exact=*/false);
    }
    // Rows past the decision row count like pass-through rows.
    count_ = before + n;
    charged_end_ = buffer_.size() + static_cast<size_t>(decided_at);
    b.MoveRowsInto(&buffer_);
  }
  return ExecStatus::kOk;
}

ExecStatus BufCheckOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  served_buffer_ = buffer_pos_ < buffer_.size();
  if (served_buffer_) {
    const int64_t target = BatchTarget(
        ctx, static_cast<int>(buffer_[buffer_pos_].size()));
    out->Clear();
    while (buffer_pos_ < buffer_.size() && out->num_rows < target) {
      if (buffer_pos_ < charged_end_) ++ctx->work;
      out->AppendRow(buffer_[buffer_pos_++]);
    }
    return ExecStatus::kRow;
  }
  if (child_eof_) {
    return ExecStatus::kEof;
  }
  // Pass-through after a released valve: count rows, charge no work (the
  // producers below already charged theirs).
  const ExecStatus s = child_->NextBatch(ctx, out);
  if (s == ExecStatus::kRow) count_ += out->ActiveRows();
  return s;
}

void BufCheckOp::ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) {
  Operator::ReturnUnconsumed(ctx, unconsumed);
  if (!served_buffer_) {
    count_ -= unconsumed;
    child_->ReturnUnconsumed(ctx, unconsumed);
    return;
  }
  const size_t from = buffer_pos_ - static_cast<size_t>(unconsumed);
  if (from < charged_end_) {
    ctx->work -= static_cast<int64_t>(std::min(buffer_pos_, charged_end_) -
                                      from);
  }
  buffer_pos_ = from;
}

bool BufCheckOp::HarvestInfo(HarvestedResult* out) const {
  out->table_set = spec_.edge_set != 0 ? spec_.edge_set : table_set();
  // The count is exact once the child was exhausted (during buffering or
  // during pass-through); the bounded buffer is never offered for reuse —
  // it may hold only a prefix of the stream.
  out->complete = child_eof_ || eof_seen();
  out->count = count_;
  return true;
}

WorkBoundOp::WorkBoundOp(std::unique_ptr<Operator> child, double work_budget,
                         TableSet edge_set)
    : Operator(child->table_set()), child_(std::move(child)) {
  bound_.enabled = true;
  bound_.hi = work_budget;
  bound_.flavor = CheckFlavor::kWorkBound;
  bound_.edge_set = edge_set;
}

ExecStatus WorkBoundOp::OpenImpl(ExecContext* ctx) {
  count_ = 0;
  held_.Clear();
  held_pos_ = 0;
  return child_->Open(ctx);
}

ExecStatus WorkBoundOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  if (held_pos_ >= held_.ActiveRows()) {
    const int64_t full_target = ctx->batch_rows;
    ctx->batch_rows = 1;
    const ExecStatus s = child_->NextBatch(ctx, &held_);
    ctx->batch_rows = full_target;
    if (s != ExecStatus::kRow) return s;
    held_pos_ = 0;
  }
  ++count_;
  if (static_cast<double>(ctx->work) > bound_.hi) {
    // The violating row stays consumed; rows after it were never reached.
    const int64_t rest = held_.ActiveRows() - held_pos_ - 1;
    child_->ReturnUnconsumed(ctx, rest);
    held_pos_ = held_.ActiveRows();
    bound_.Raise(ctx, count_, /*exact=*/false);
    return ExecStatus::kReoptimize;
  }
  const int width = held_.width();
  const size_t raw = static_cast<size_t>(held_.RawIndex(held_pos_++));
  out->Reset(width);
  for (int c = 0; c < width; ++c) {
    out->PutMove(c, 0, std::move(held_.cols[static_cast<size_t>(c)][raw]));
  }
  out->num_rows = 1;
  return ExecStatus::kRow;
}

CheckMaterializedOp::CheckMaterializedOp(std::unique_ptr<Operator> child,
                                         CheckSpec spec)
    : Operator(child->table_set()), child_(std::move(child)), spec_(spec) {}

ExecStatus CheckMaterializedOp::OpenImpl(ExecContext* ctx) {
  const ExecStatus s = child_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  HarvestedResult info;
  const bool has_info = child_->HarvestInfo(&info);
  POPDB_DCHECK(has_info && info.complete);
  const CheckSite site = spec_.flavor == CheckFlavor::kLazyEagerMat
                             ? CheckSite::kNljnOuter
                             : CheckSite::kMatPoint;
  return spec_.DecideMaterialized(ctx, site, info.count)
             ? ExecStatus::kReoptimize
             : ExecStatus::kOk;
}

ExecStatus RidTrackOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  const ExecStatus s = child_->NextBatch(ctx, out);
  if (s == ExecStatus::kRow) {
    const int64_t n = out->ActiveRows();
    for (int64_t i = 0; i < n; ++i) {
      Row r;
      out->MaterializeRow(i, &r);
      ctx->returned_rows.push_back(std::move(r));
    }
  }
  return s;
}

AntiCompensateOp::AntiCompensateOp(std::unique_ptr<Operator> child,
                                   const std::vector<Row>& already_returned,
                                   TableSet table_set)
    : Operator(table_set), child_(std::move(child)) {
  for (const Row& row : already_returned) ++remaining_[row];
}

ExecStatus AntiCompensateOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  Row r;
  while (true) {
    const ExecStatus s = child_->NextBatch(ctx, out);
    if (s != ExecStatus::kRow) {
      return s;
    }
    out->EnsureSel();
    const size_t n = out->sel.size();
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      ++ctx->work;
      out->MaterializeRow(static_cast<int64_t>(i), &r);
      auto it = remaining_.find(r);
      if (it != remaining_.end() && it->second > 0) {
        --it->second;  // Suppress one previously returned duplicate.
        continue;
      }
      out->sel[kept++] = out->sel[i];
    }
    out->sel.resize(kept);
    if (kept > 0) return ExecStatus::kRow;
  }
}

}  // namespace popdb
