#ifndef POPDB_EXEC_SORT_H_
#define POPDB_EXEC_SORT_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/operator.h"

namespace popdb {

/// One sort key: a resolved row position and direction.
struct SortKey {
  int pos = -1;
  bool descending = false;
};

/// Compares rows by `keys`; returns <0, 0, >0.
int CompareRowsByKeys(const Row& a, const Row& b,
                      const std::vector<SortKey>& keys);

/// Serves one immutable row buffer in order, charging one work unit per
/// row served: the buffer a SORT or TEMP filled at Open, or the one an
/// MVSCAN reuses from an earlier attempt.
class RowBufferOp : public Operator {
 public:
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  /// Un-serves the rows: they were charged one work unit each.
  void ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) override;

 protected:
  RowBufferOp(TableSet table_set, SharedRows rows)
      : Operator(table_set), rows_(std::move(rows)) {}

  SharedRows rows_;
  size_t next_ = 0;
};

/// Full sort, or TEMP when `keys` is empty. Materializes its input at Open
/// into one shared buffer (a natural materialization point and thus a
/// lazy-checkpoint site, Section 3.1), then serves it. SORT inputs larger
/// than the memory budget are sorted as runs and merged — an extra pass
/// whose cost cliff the optimizer's cost model mirrors. TEMP keeps its
/// input order (no sort call, as std::sort may reorder equal rows, and no
/// merge pass); it is also the buffer used to implement LCEM and ECB
/// checkpoints (the paper's prototype implements BUFCHECK as a TEMP over a
/// CHECK).
class SortOp : public RowBufferOp {
 public:
  SortOp(std::unique_ptr<Operator> child, std::vector<SortKey> keys,
         TableSet table_set);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  void CloseImpl(ExecContext* ctx) override;
  bool HarvestInfo(HarvestedResult* out) const override;
  const char* name() const override {
    return keys_.empty() ? "TEMP" : "SORT";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  /// Sorts `rows` on keys_, with runs and a merge pass past mem_rows.
  ExecStatus Sort(ExecContext* ctx, std::vector<Row>* rows);

  std::unique_ptr<Operator> child_;
  std::vector<SortKey> keys_;
  int64_t count_ = 0;  ///< Rows drained (so far, after an abort).
};

/// Scan over a temporary materialized view created by a previous execution
/// step. The rows already carry the query's row layout for `table_set`.
class MatViewScanOp : public RowBufferOp {
 public:
  MatViewScanOp(SharedRows rows, TableSet table_set)
      : RowBufferOp(table_set, std::move(rows)) {}

  ExecStatus OpenImpl(ExecContext* ctx) override {
    (void)ctx;
    next_ = 0;
    return ExecStatus::kOk;
  }
  void CloseImpl(ExecContext* ctx) override { (void)ctx; }
  const char* name() const override { return "MVSCAN"; }
};

}  // namespace popdb

#endif  // POPDB_EXEC_SORT_H_
