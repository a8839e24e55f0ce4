#include "exec/layout.h"

#include "common/status.h"
#include "exec/batch.h"

namespace popdb {

std::vector<int> AllColumns(int n) {
  std::vector<int> columns(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) columns[static_cast<size_t>(c)] = c;
  return columns;
}

RowLayout::RowLayout(TableSet set, const TableColumns& columns) : set_(set) {
  for (int tid = 0; tid < static_cast<int>(columns.size()); ++tid) {
    if (!ContainsTable(set, tid)) continue;
    for (int c : columns[static_cast<size_t>(tid)]) {
      columns_.push_back(ColRef{tid, c});
    }
  }
}

RowLayout RowLayout::Stored(int table_id, int num_columns) {
  RowLayout layout;
  layout.set_ = TableBit(table_id);
  layout.columns_.reserve(static_cast<size_t>(num_columns));
  for (int c = 0; c < num_columns; ++c) {
    layout.columns_.push_back(ColRef{table_id, c});
  }
  return layout;
}

int RowLayout::Resolve(const ColRef& col) const {
  for (size_t pos = 0; pos < columns_.size(); ++pos) {
    if (columns_[pos] == col) return static_cast<int>(pos);
  }
  return -1;
}

MergeSpec MergeSpec::Make(const RowLayout& left, const RowLayout& right,
                          const RowLayout& out) {
  POPDB_DCHECK((left.table_set() & right.table_set()) == 0);
  POPDB_DCHECK(out.table_set() == (left.table_set() | right.table_set()));
  MergeSpec spec;
  spec.sources.reserve(static_cast<size_t>(out.width()));
  for (const ColRef& col : out.columns()) {
    const bool from_left = ContainsTable(left.table_set(), col.table_id);
    const int pos = (from_left ? left : right).Resolve(col);
    POPDB_DCHECK(pos >= 0);
    spec.sources.emplace_back(from_left, pos);
  }
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
    const size_t p = static_cast<size_t>(pos);
    if (from_left) {
      const Value* src = left->cols[p].data();
      const int32_t* raw = pending->left.data();
      for (size_t k = 0; k < n; ++k) d[k].AssignFrom(src[raw[k]]);
    } else if (pending->table != nullptr) {
      const int64_t* rids = pending->right_rids.data();
      for (size_t k = 0; k < n; ++k) {
        pending->table->chunk_of(rids[k]).columns[p].Load(
            ChunkOffset(rids[k]), &d[k]);
      }
    } else {
      const Row* const* rows = pending->right.data();
      for (size_t k = 0; k < n; ++k) d[k].AssignFrom((*rows[k])[p]);
    }
  }
  out->num_rows = static_cast<int64_t>(r0 + n);
  pending->left.clear();
  pending->right.clear();
  pending->right_rids.clear();
}

}  // namespace popdb
