#ifndef POPDB_EXEC_AGG_H_
#define POPDB_EXEC_AGG_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"

namespace popdb {

/// Aggregate functions supported by HashAggOp.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc func);

/// One aggregate over a resolved input position (`pos` ignored for COUNT).
struct ResolvedAgg {
  AggFunc func = AggFunc::kCount;
  int pos = -1;
};

/// Hash group-by aggregation. Output rows are `group positions` values
/// followed by one value per aggregate; the output is no longer a
/// canonical table-set row (table_set() == 0). Materializes at Open.
class HashAggOp : public Operator {
 public:
  HashAggOp(std::unique_ptr<Operator> child, std::vector<int> group_pos,
            std::vector<ResolvedAgg> aggs);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  const char* name() const override { return "GRPBY"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    Value min, max;
  };
  using GroupMap = std::unordered_map<Row, std::vector<AggState>, RowHash>;

  /// Folds every active row of `batch` into the group table, reading the
  /// rows in place.
  void AccumulateFromBatch(const RowBatch& batch, GroupMap* groups) const;
  /// Renders the final group table into results_.
  void EmitResults(GroupMap* groups);

  std::unique_ptr<Operator> child_;
  std::vector<int> group_pos_;
  std::vector<ResolvedAgg> aggs_;
  std::vector<Row> results_;
  size_t next_ = 0;
};

}  // namespace popdb

#endif  // POPDB_EXEC_AGG_H_
