#include "exec/scan.h"

#include <algorithm>

namespace popdb {

namespace {

/// Most rows one filter window reads: a cancel poll covers each window, so
/// a scan stops within that many rows of a cancel or deadline.
constexpr int64_t kScanWindow = 256;

}  // namespace

ExecStatus TableScanOp::OpenImpl(ExecContext* ctx) {
  (void)ctx;
  next_rid_ = 0;
  return ExecStatus::kOk;
}

ExecStatus TableScanOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  // Windows of a chunk are filtered into a selection vector, and the
  // passing rows' carried columns gathered from the chunk. A window is
  // charged one work unit per live row only up to the last row handed
  // over: the scan stops right after it, as row-at-a-time reading does,
  // and re-reads the rest on its next call. Windows start at the rows
  // still wanted and double, so small batches read little past their end.
  const int width = static_cast<int>(columns_.size());
  const int64_t target = BatchTarget(ctx, width);
  const int64_t end_rid = snapshot_.num_rows();
  out->Reset(width);
  int64_t window = std::min(target, kScanWindow);
  while (next_rid_ < end_rid && out->num_rows < target) {
    const TableChunk& chunk = snapshot_.chunk_of(next_rid_);
    const size_t begin = ChunkOffset(next_rid_);
    const size_t end =
        std::min(chunk.size(), begin + static_cast<size_t>(window));
    window = std::min(2 * window, kScanWindow);
    if (ctx->CancelPending(static_cast<int64_t>(end - begin))) {
      return FlushOrStatus(out, ExecStatus::kCancelled);
    }
    filter_.Select(chunk, begin, end, &sel_);
    const size_t need = static_cast<size_t>(target - out->num_rows);
    size_t read_end = end;
    if (sel_.size() >= need) {
      sel_.resize(need);
      read_end = static_cast<size_t>(sel_.back()) + 1;
    }
    for (size_t r = begin; r < read_end; ++r) ctx->work += chunk.live[r];
    next_rid_ += static_cast<int64_t>(read_end - begin);
    const size_t r0 = static_cast<size_t>(out->num_rows);
    const size_t n = sel_.size();
    for (size_t c = 0; c < columns_.size(); ++c) {
      const ColumnChunk& col =
          chunk.columns[static_cast<size_t>(columns_[c])];
      // Rows past num_rows are the batch's reuse pool (see RowBatch).
      std::vector<Value>& dst = out->cols[c];
      if (dst.size() < r0 + n) dst.resize(r0 + n);
      Value* d = dst.data() + r0;
      for (size_t k = 0; k < n; ++k) {
        col.Load(static_cast<size_t>(sel_[k]), &d[k]);
      }
    }
    out->num_rows += static_cast<int64_t>(n);
  }
  if (out->num_rows > 0) return ExecStatus::kRow;
  return ExecStatus::kEof;
}

void TableScanOp::CloseImpl(ExecContext* ctx) { (void)ctx; }

void TableScanOp::ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) {
  Operator::ReturnUnconsumed(ctx, unconsumed);
  // Walk back over the rows read since the last kept passing row: batch
  // size 1 stops reading right after the row its consumer takes last.
  int64_t returned = 0;
  while (next_rid_ > 0) {
    const int64_t rid = next_rid_ - 1;
    if (snapshot_.alive(rid)) {
      if (filter_.Test(snapshot_.chunk_of(rid), ChunkOffset(rid))) {
        if (returned == unconsumed) break;
        ++returned;
      }
      --ctx->work;
    }
    --next_rid_;
  }
}

}  // namespace popdb
