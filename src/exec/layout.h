#ifndef POPDB_EXEC_LAYOUT_H_
#define POPDB_EXEC_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "exec/expr.h"
#include "storage/table.h"

namespace popdb {

struct RowBatch;

/// Set of query-table ids as a bitmask (queries join at most 64 tables).
using TableSet = uint64_t;

inline TableSet TableBit(int table_id) { return TableSet{1} << table_id; }
inline bool ContainsTable(TableSet set, int table_id) {
  return (set & TableBit(table_id)) != 0;
}
inline int PopCount(TableSet set) { return __builtin_popcountll(set); }

/// Per query table id: the schema columns, in ascending order, that the
/// table's rows carry above its scan (QueryTableColumns, opt/optimizer.h).
using TableColumns = std::vector<std::vector<int>>;

/// 0, 1, ..., n-1: every column of a stored row with `n` schema columns.
std::vector<int> AllColumns(int n);

/// The engine's row layout rule: an operator producing rows for table set S
/// outputs, for each member table in increasing table-id order, the columns
/// of that table the query reads above its scan — join keys, GROUP BY
/// columns, aggregate arguments and projections, or every column when the
/// query returns whole rows — in schema order. The layout is a pure
/// function of the table set and the query, so plans, temporary
/// materialized views, re-optimized plans and shard subplans of one query
/// all agree on column positions without tracking projections; columns no
/// operator reads are never copied or materialized.
///
/// Stored rows are not in this layout: scans evaluate local predicates and
/// NLJN probes read base-table inners by schema column (Stored), and a scan
/// gathers only its table's carried columns into its output.
class RowLayout {
 public:
  RowLayout() = default;

  /// Builds the layout for `set`; `columns[tid]` lists the carried columns
  /// of query table `tid`.
  RowLayout(TableSet set, const TableColumns& columns);

  /// The layout of table `table_id`'s stored rows: all `num_columns`
  /// schema columns.
  static RowLayout Stored(int table_id, int num_columns);

  TableSet table_set() const { return set_; }
  int width() const { return static_cast<int>(columns_.size()); }
  /// The column at each position.
  const std::vector<ColRef>& columns() const { return columns_; }

  /// Position of `col` inside a row with this layout; -1 if the layout does
  /// not carry it.
  int Resolve(const ColRef& col) const;

 private:
  TableSet set_ = 0;
  std::vector<ColRef> columns_;
};

/// Matches a join collected for its current output batch, before
/// MergeSpec::Gather copies them in: the raw row index of each match in the
/// left (outer or probe) batch and its right row — a row of a materialized
/// result, or, when `table` is set, a row id in that pinned base table.
/// Both must stay put until the gather, so operators gather before they
/// pull their next input batch and before every return.
struct PendingMatches {
  std::vector<int32_t> left;
  std::vector<const Row*> right;
  std::vector<int64_t> right_rids;
  const TableSnapshot* table = nullptr;

  size_t size() const { return left.size(); }
  void Add(int32_t left_raw, const Row* right_row) {
    left.push_back(left_raw);
    right.push_back(right_row);
  }
  void Add(int32_t left_raw, int64_t right_rid) {
    left.push_back(left_raw);
    right_rids.push_back(right_rid);
  }
};

/// Precomputed instructions for merging a left row and a right row into a
/// row of the union of their table sets.
struct MergeSpec {
  /// For each output position: (from_left, source position).
  std::vector<std::pair<bool, int>> sources;

  /// Takes each column of `out` from whichever of `left` and `right` holds
  /// its table.
  static MergeSpec Make(const RowLayout& left, const RowLayout& right,
                        const RowLayout& out);

  Row Merge(const Row& left, const Row& right) const;

  /// Appends the merges of `*pending` to `out`, one output column at a
  /// time, in the order the matches were found, then clears `*pending`.
  /// `out` must already have `sources.size()` columns (Reset); `left` is
  /// the batch the pending left indexes refer to.
  void Gather(const RowBatch* left, PendingMatches* pending,
              RowBatch* out) const;
};

}  // namespace popdb

#endif  // POPDB_EXEC_LAYOUT_H_
