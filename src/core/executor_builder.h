#ifndef POPDB_CORE_EXECUTOR_BUILDER_H_
#define POPDB_CORE_EXECUTOR_BUILDER_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "opt/plan.h"
#include "opt/query.h"
#include "storage/catalog.h"

namespace popdb {

/// An executable operator tree plus the bookkeeping the POP controller
/// needs: every table-set-producing operator, so actual cardinalities can
/// be harvested into feedback after execution.
struct BuiltPlan {
  std::unique_ptr<Operator> root;
  /// (subplan table set, operator) for every canonical-row operator.
  std::vector<std::pair<TableSet, Operator*>> edges;
  /// Hash indexes built on temporary materialized views for this plan
  /// (the re-optimizer's "index the view before reuse" decision); they
  /// index rows the plan's nodes share with the MatViewRegistry.
  std::vector<std::unique_ptr<HashIndex>> owned_indexes;
};

/// Translates a physical PlanNode tree into executable Volcano operators —
/// the paper's "code generator" stage, including the translation of CHECK
/// into executable code (Section 2.1c).
class ExecutorBuilder {
 public:
  /// `already_returned` backs kAntiComp nodes (may be null when the plan
  /// has none). `offer_hsjn_builds` lets hash joins expose their build
  /// sides for reuse. `parallel` (default: serial) makes the builder wrap
  /// eligible base-table scans — at least `min_parallel_rows` rows — in a
  /// MorselExchangeOp so they fan out over morsel tasks; every other
  /// operator stays in the serial tail above the exchange, which is what
  /// keeps CHECK thresholds and harvested feedback identical to serial
  /// execution. `snapshots` is the query's pinned-version registry: base
  /// tables are read through it so all operators — and all re-optimization
  /// attempts of one execution — see the same frozen data under concurrent
  /// writes; when null the builder owns a private set (one Build is still
  /// internally consistent).
  ExecutorBuilder(const Catalog& catalog, const QuerySpec& query,
                  const std::vector<Row>* already_returned,
                  bool offer_hsjn_builds, ParallelPolicy parallel = {},
                  TableSnapshotSet* snapshots = nullptr);

  Result<BuiltPlan> Build(const PlanNode& plan);

 private:
  Result<std::unique_ptr<Operator>> BuildNode(const PlanNode& node);
  /// Human-readable payload for EXPLAIN ANALYZE (table name, index use,
  /// check flavor and range, work budget).
  static std::string NodeDetail(const PlanNode& node);
  RowLayout LayoutFor(TableSet set) const;
  std::vector<ResolvedPredicate> ResolveTablePreds(
      const std::vector<int>& pred_ids) const;
  /// Join key positions: for each join pred id, the position of its column
  /// in `side_set`'s row layout.
  std::vector<int> ResolveKeys(const std::vector<int>& join_pred_ids,
                               TableSet side_set) const;

  const Catalog& catalog_;
  const QuerySpec& query_;
  const std::vector<Row>* already_returned_;
  bool offer_hsjn_builds_;
  ParallelPolicy parallel_;
  TableSnapshotSet owned_snapshots_;
  TableSnapshotSet* snapshots_;
  /// QueryTableColumns of the query: the row layout's input.
  TableColumns columns_;
  std::vector<std::pair<TableSet, Operator*>> edges_;
  std::vector<std::unique_ptr<HashIndex>> owned_indexes_;
  /// Set once a compensation anti-join was built: counts above it are not
  /// true subplan cardinalities.
  bool suppress_edges_ = false;
};

}  // namespace popdb

#endif  // POPDB_CORE_EXECUTOR_BUILDER_H_
