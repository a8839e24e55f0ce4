#include "exec/layout.h"

#include "common/status.h"
#include "exec/batch.h"

namespace popdb {

RowLayout::RowLayout(TableSet set, const std::vector<int>& table_widths)
    : set_(set) {
  for (int tid = 0; tid < static_cast<int>(table_widths.size()); ++tid) {
    if (!ContainsTable(set, tid)) continue;
    table_ids_.push_back(tid);
    offsets_.push_back(width_);
    width_ += table_widths[static_cast<size_t>(tid)];
  }
}

int RowLayout::Resolve(const ColRef& col) const {
  for (size_t i = 0; i < table_ids_.size(); ++i) {
    if (table_ids_[i] == col.table_id) return offsets_[i] + col.column;
  }
  return -1;
}

MergeSpec MergeSpec::Make(const RowLayout& left, const RowLayout& right,
                          const RowLayout& out,
                          const std::vector<int>& table_widths) {
  POPDB_DCHECK((left.table_set() & right.table_set()) == 0);
  POPDB_DCHECK(out.table_set() == (left.table_set() | right.table_set()));
  MergeSpec spec;
  spec.sources.reserve(static_cast<size_t>(out.width()));
  for (int tid = 0; tid < static_cast<int>(table_widths.size()); ++tid) {
    if (!ContainsTable(out.table_set(), tid)) continue;
    const bool from_left = ContainsTable(left.table_set(), tid);
    const RowLayout& src = from_left ? left : right;
    const int base = src.Resolve(ColRef{tid, 0});
    POPDB_DCHECK(base >= 0);
    for (int c = 0; c < table_widths[static_cast<size_t>(tid)]; ++c) {
      spec.sources.emplace_back(from_left, base + c);
    }
  }
  return spec;
}

MergeSpec MergeSpec::Identity(int width) {
  MergeSpec spec;
  spec.sources.reserve(static_cast<size_t>(width));
  for (int c = 0; c < width; ++c) spec.sources.emplace_back(false, c);
  return spec;
}

Row MergeSpec::Merge(const Row& left, const Row& right) const {
  Row out;
  out.reserve(sources.size());
  for (const auto& [from_left, pos] : sources) {
    out.push_back((from_left ? left : right)[static_cast<size_t>(pos)]);
  }
  return out;
}

void MergeSpec::Gather(const RowBatch* left, PendingMatches* pending,
                       RowBatch* out) const {
  const size_t n = pending->size();
  if (n == 0) return;
  const size_t r0 = static_cast<size_t>(out->num_rows);
  for (size_t c = 0; c < sources.size(); ++c) {
    const auto [from_left, pos] = sources[c];
    // Rows past num_rows are the batch's reuse pool (see RowBatch):
    // assign over them, growing the column only past its end.
    std::vector<Value>& dst = out->cols[c];
    if (dst.size() < r0 + n) dst.resize(r0 + n);
    Value* d = dst.data() + r0;
    if (from_left) {
      const Value* src = left->cols[static_cast<size_t>(pos)].data();
      const int32_t* raw = pending->left.data();
      for (size_t k = 0; k < n; ++k) d[k].AssignFrom(src[raw[k]]);
    } else {
      const Row* const* rows = pending->right.data();
      const size_t p = static_cast<size_t>(pos);
      for (size_t k = 0; k < n; ++k) d[k].AssignFrom((*rows[k])[p]);
    }
  }
  out->num_rows = static_cast<int64_t>(r0 + n);
  pending->left.clear();
  pending->right.clear();
}

}  // namespace popdb
