#ifndef POPDB_EXEC_SCAN_H_
#define POPDB_EXEC_SCAN_H_

#include <utility>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "storage/table.h"

namespace popdb {

/// Sequential scan over a base table: filters each chunk's rows with the
/// local predicates compiled against the stored column types (positions
/// are schema columns) and gathers `columns` of each passing row — the
/// table's carried columns in the query's row layout (exec/layout.h) —
/// straight from the chunk's typed columns.
///
/// The scan reads a pinned TableSnapshot, so concurrent writes are
/// invisible: rows tombstoned in the snapshot are skipped, rows appended
/// after the pin don't exist in it. The builder passes the query's shared
/// snapshot (one pin per table per query, consistent across re-opt
/// attempts); the Table* convenience ctor pins its own and gathers every
/// column.
class TableScanOp : public Operator {
 public:
  TableScanOp(TableSnapshot snapshot, int table_id,
              const std::vector<ResolvedPredicate>& preds,
              std::vector<int> columns)
      : Operator(TableBit(table_id)),
        snapshot_(std::move(snapshot)),
        filter_(preds, snapshot_.table()->schema()),
        columns_(std::move(columns)) {}

  TableScanOp(const Table* table, int table_id,
              const std::vector<ResolvedPredicate>& preds)
      : TableScanOp(table->Snapshot(), table_id, preds,
                    AllColumns(table->schema().num_columns())) {}

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  const char* name() const override { return "TBSCAN"; }
  /// Un-reads the rows: rewinds to just past the last kept row and
  /// un-charges every row read after it, passing or not.
  void ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) override;

 private:
  TableSnapshot snapshot_;
  ChunkFilter filter_;
  std::vector<int> columns_;  ///< Carried schema columns, in output order.
  int64_t next_rid_ = 0;
  std::vector<int32_t> sel_;  ///< Passing offsets of the current window.
};

}  // namespace popdb

#endif  // POPDB_EXEC_SCAN_H_
