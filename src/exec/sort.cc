#include "exec/sort.h"

#include <algorithm>
#include <queue>

namespace popdb {

int CompareRowsByKeys(const Row& a, const Row& b,
                      const std::vector<SortKey>& keys) {
  for (const SortKey& k : keys) {
    int c = a[static_cast<size_t>(k.pos)].Compare(b[static_cast<size_t>(k.pos)]);
    if (k.descending) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

ExecStatus RowBufferOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  if (ctx->CancelPending()) return ExecStatus::kCancelled;
  const std::vector<Row>& rows = *rows_;
  const int64_t target = BatchTarget(
      ctx, rows.empty() ? 0 : static_cast<int>(rows.front().size()));
  out->Clear();
  while (next_ < rows.size() && out->num_rows < target) {
    ++ctx->work;
    out->AppendRow(rows[next_++]);
  }
  return out->num_rows > 0 ? ExecStatus::kRow : ExecStatus::kEof;
}

void RowBufferOp::ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) {
  Operator::ReturnUnconsumed(ctx, unconsumed);
  ctx->work -= unconsumed;
  next_ -= static_cast<size_t>(unconsumed);
}

SortOp::SortOp(std::unique_ptr<Operator> child, std::vector<SortKey> keys,
               TableSet table_set)
    : RowBufferOp(table_set, nullptr),
      child_(std::move(child)),
      keys_(std::move(keys)) {}

ExecStatus SortOp::OpenImpl(ExecContext* ctx) {
  ctx->materializers.push_back(this);
  ExecStatus s = child_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  std::vector<Row> rows;
  s = DrainChildRows(child_.get(), ctx, &rows);
  count_ = static_cast<int64_t>(rows.size());
  if (s != ExecStatus::kEof) return s;
  child_->Close(ctx);
  if (!keys_.empty()) {
    s = Sort(ctx, &rows);
    if (s != ExecStatus::kOk) return s;
  }
  rows_ = std::make_shared<const std::vector<Row>>(std::move(rows));
  next_ = 0;
  return ExecStatus::kOk;
}

ExecStatus SortOp::Sort(ExecContext* ctx, std::vector<Row>* rows) {
  auto cmp = [this](const Row& a, const Row& b) {
    return CompareRowsByKeys(a, b, keys_) < 0;
  };
  const int64_t n = static_cast<int64_t>(rows->size());
  if (n <= ctx->mem_rows) {
    std::sort(rows->begin(), rows->end(), cmp);
    return ExecStatus::kOk;
  }
  // External sort: sort runs of mem_rows, then k-way merge. The merge is a
  // genuine extra pass over the data, mirroring the cost model's spill
  // cliff.
  const int64_t run = ctx->mem_rows;
  std::vector<std::pair<size_t, size_t>> runs;  // [begin, end)
  for (int64_t begin = 0; begin < n; begin += run) {
    const int64_t end = std::min(n, begin + run);
    std::sort(rows->begin() + begin, rows->begin() + end, cmp);
    runs.emplace_back(static_cast<size_t>(begin), static_cast<size_t>(end));
  }
  mutable_stats().spills += static_cast<int64_t>(runs.size());
  std::vector<Row> merged;
  merged.reserve(rows->size());
  using HeapItem = std::pair<size_t, size_t>;  // (cursor, run index)
  auto heap_cmp = [this, rows](const HeapItem& a, const HeapItem& b) {
    // std::priority_queue is a max-heap; invert for ascending order.
    return CompareRowsByKeys((*rows)[a.first], (*rows)[b.first], keys_) > 0;
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(heap_cmp)>
      heap(heap_cmp);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].first < runs[r].second) heap.push({runs[r].first, r});
  }
  while (!heap.empty()) {
    if (ctx->CancelPending()) return ExecStatus::kCancelled;
    auto [cursor, r] = heap.top();
    heap.pop();
    ++ctx->work;
    merged.push_back(std::move((*rows)[cursor]));
    if (cursor + 1 < runs[r].second) heap.push({cursor + 1, r});
  }
  *rows = std::move(merged);
  return ExecStatus::kOk;
}

void SortOp::CloseImpl(ExecContext* ctx) { child_->Close(ctx); }

bool SortOp::HarvestInfo(HarvestedResult* out) const {
  out->table_set = table_set();
  out->complete = rows_ != nullptr;
  out->count = count_;
  out->rows = rows_;
  out->sorted_positions.clear();
  for (const SortKey& k : keys_) {
    if (k.descending) break;  // Merge joins need ascending order.
    out->sorted_positions.push_back(k.pos);
  }
  return true;
}

}  // namespace popdb
