#ifndef POPDB_EXEC_SCAN_H_
#define POPDB_EXEC_SCAN_H_

#include <utility>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "storage/table.h"

namespace popdb {

/// Sequential scan over a base table, applying resolved local predicates
/// to the stored rows (positions are schema columns) and gathering
/// `columns` of each passing row: the table's carried columns in the
/// query's row layout (exec/layout.h).
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
              std::vector<ResolvedPredicate> preds,
              const std::vector<int>& columns)
      : Operator(TableBit(table_id)),
        snapshot_(std::move(snapshot)),
        preds_(std::move(preds)),
        gather_(MergeSpec::Columns(columns)) {}

  TableScanOp(const Table* table, int table_id,
              std::vector<ResolvedPredicate> preds)
      : TableScanOp(table->Snapshot(), table_id, std::move(preds),
                    AllColumns(table->schema().num_columns())) {}

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  const char* name() const override { return "TBSCAN"; }
  /// Un-reads the rows: rewinds to just past the last kept row and
  /// un-charges every row read after it, passing or not.
  void ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) override;

 private:
  bool Passes(const Row& row) const;

  TableSnapshot snapshot_;
  std::vector<ResolvedPredicate> preds_;
  int64_t next_rid_ = 0;
  MergeSpec gather_;        ///< Stored row -> carried columns.
  PendingMatches pending_;  ///< Batch path: passing rows (right only).
};

}  // namespace popdb

#endif  // POPDB_EXEC_SCAN_H_
