#ifndef POPDB_EXEC_LAYOUT_H_
#define POPDB_EXEC_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "exec/expr.h"

namespace popdb {

struct RowBatch;

/// Set of query-table ids as a bitmask (queries join at most 64 tables).
using TableSet = uint64_t;

inline TableSet TableBit(int table_id) { return TableSet{1} << table_id; }
inline bool ContainsTable(TableSet set, int table_id) {
  return (set & TableBit(table_id)) != 0;
}
inline int PopCount(TableSet set) { return __builtin_popcountll(set); }

/// The engine's canonical row layout rule: an operator producing rows for
/// table set S outputs the concatenation of each member table's columns in
/// increasing table-id order. This makes the layout a pure function of the
/// table set, so plans, temporary materialized views and re-optimized plans
/// all agree on column positions without tracking projections.
class RowLayout {
 public:
  RowLayout() = default;

  /// Builds the layout for `set`; `table_widths[tid]` is the column count
  /// of query table `tid`.
  RowLayout(TableSet set, const std::vector<int>& table_widths);

  TableSet table_set() const { return set_; }
  int width() const { return width_; }

  /// Position of `col` inside a row with this layout; -1 if the table is
  /// not part of the layout.
  int Resolve(const ColRef& col) const;

 private:
  TableSet set_ = 0;
  int width_ = 0;
  // offsets_[i] pairs with table_ids_[i].
  std::vector<int> table_ids_;
  std::vector<int> offsets_;
};

/// Matches a join or scan collected for its current output batch, before
/// MergeSpec::Gather copies them in: the raw row index of each match in the
/// left (outer or probe) batch — unused when every output column comes from
/// the right — and a pointer to its right row. Both must stay put until the
/// gather, so operators gather before they pull their next input batch and
/// before every return.
struct PendingMatches {
  std::vector<int32_t> left;
  std::vector<const Row*> right;

  size_t size() const { return right.size(); }
  void Add(int32_t left_raw, const Row* right_row) {
    left.push_back(left_raw);
    right.push_back(right_row);
  }
};

/// Precomputed instructions for merging a left row and a right row into a
/// canonical row for the union of their table sets.
struct MergeSpec {
  /// For each output position: (from_left, source position).
  std::vector<std::pair<bool, int>> sources;

  static MergeSpec Make(const RowLayout& left, const RowLayout& right,
                        const RowLayout& out,
                        const std::vector<int>& table_widths);

  /// Takes all `width` output columns from the right row unchanged (a
  /// filtered scan gathering its own rows).
  static MergeSpec Identity(int width);

  Row Merge(const Row& left, const Row& right) const;

  /// Appends the merges of `*pending` to `out`, one output column at a
  /// time, in the order the matches were found, then clears `*pending`.
  /// `out` must already have `sources.size()` columns (Reset); `left` is
  /// the batch the pending left indexes refer to (may be null when no
  /// source is from the left).
  void Gather(const RowBatch* left, PendingMatches* pending,
              RowBatch* out) const;
};

}  // namespace popdb

#endif  // POPDB_EXEC_LAYOUT_H_
