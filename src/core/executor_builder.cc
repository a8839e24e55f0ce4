#include "core/executor_builder.h"

#include "common/string_util.h"
#include "exec/agg.h"
#include "exec/check.h"
#include "exec/join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "opt/optimizer.h"

namespace popdb {

ExecutorBuilder::ExecutorBuilder(const Catalog& catalog,
                                 const QuerySpec& query,
                                 const std::vector<Row>* already_returned,
                                 bool offer_hsjn_builds,
                                 TableSnapshotSet* snapshots)
    : catalog_(catalog),
      query_(query),
      already_returned_(already_returned),
      offer_hsjn_builds_(offer_hsjn_builds),
      snapshots_(snapshots != nullptr ? snapshots : &owned_snapshots_),
      columns_(QueryTableColumns(catalog, query)) {}

RowLayout ExecutorBuilder::LayoutFor(TableSet set) const {
  return RowLayout(set, columns_);
}

std::vector<ResolvedPredicate> ExecutorBuilder::ResolveTablePreds(
    const std::vector<int>& pred_ids) const {
  std::vector<ResolvedPredicate> out;
  out.reserve(pred_ids.size());
  for (int pid : pred_ids) {
    const Predicate& pred = query_.local_preds()[static_cast<size_t>(pid)];
    // Predicates read the stored row, so the position is the schema column
    // itself.
    out.push_back(ResolvePredicate(pred, pred.col.column, query_.params()));
  }
  return out;
}

std::vector<int> ExecutorBuilder::ResolveKeys(
    const std::vector<int>& join_pred_ids, TableSet side_set) const {
  const RowLayout layout = LayoutFor(side_set);
  std::vector<int> keys;
  keys.reserve(join_pred_ids.size());
  for (int jid : join_pred_ids) {
    const JoinPredicate& jp = query_.join_preds()[static_cast<size_t>(jid)];
    const ColRef& side =
        ContainsTable(side_set, jp.left.table_id) ? jp.left : jp.right;
    keys.push_back(layout.Resolve(side));
  }
  return keys;
}

Result<BuiltPlan> ExecutorBuilder::Build(const PlanNode& plan) {
  edges_.clear();
  owned_indexes_.clear();
  suppress_edges_ = false;
  Result<std::unique_ptr<Operator>> root = BuildNode(plan);
  if (!root.ok()) return root.status();
  BuiltPlan built;
  built.root = std::move(root.value());
  built.edges = std::move(edges_);
  built.owned_indexes = std::move(owned_indexes_);
  return built;
}

Result<std::unique_ptr<Operator>> ExecutorBuilder::BuildNode(
    const PlanNode& node) {
  std::unique_ptr<Operator> op;
  switch (node.kind) {
    case PlanOpKind::kTableScan: {
      const Table* table = catalog_.GetTable(node.table_name);
      if (table == nullptr) {
        return Status::NotFound("no such table: " + node.table_name);
      }
      std::vector<ResolvedPredicate> preds = ResolveTablePreds(node.pred_ids);
      // All reads go through the query's pinned snapshot.
      op = std::make_unique<TableScanOp>(
          snapshots_->Pin(*table), node.table_id, std::move(preds),
          columns_[static_cast<size_t>(node.table_id)]);
      break;
    }
    case PlanOpKind::kMatViewScan: {
      if (node.mv_rows == nullptr) {
        return Status::Internal("matview scan without rows: " + node.mv_name);
      }
      // The optimizer chose to reuse a harvested intermediate result.
      TRACE_INSTANT_ARG("matview_reused", "pop", "rows",
                        static_cast<int64_t>(node.mv_rows->size()));
      op = std::make_unique<MatViewScanOp>(node.mv_rows, node.set);
      break;
    }
    case PlanOpKind::kNljn: {
      Result<std::unique_ptr<Operator>> outer = BuildNode(*node.children[0]);
      if (!outer.ok()) return outer.status();
      const PlanNode& inner_node = *node.children[1];
      InnerAccess inner;
      inner.table_id = inner_node.table_id;
      // A base-table inner is probed as its stored row, a reused view in
      // the query's row layout.
      RowLayout inner_layout;
      if (inner_node.kind == PlanOpKind::kMatViewScan) {
        inner.mv_rows = inner_node.mv_rows;
        inner_layout = LayoutFor(inner_node.set);
      } else {
        inner.table = catalog_.GetTable(inner_node.table_name);
        if (inner.table == nullptr) {
          return Status::NotFound("no such table: " + inner_node.table_name);
        }
        inner.snapshot = snapshots_->Pin(*inner.table);
        inner_layout = RowLayout::Stored(
            inner.table_id, inner.table->schema().num_columns());
      }
      inner.local_preds = ResolveTablePreds(inner_node.pred_ids);
      const RowLayout outer_layout = LayoutFor(node.children[0]->set);
      for (int jid : node.join_pred_ids) {
        const JoinPredicate& jp =
            query_.join_preds()[static_cast<size_t>(jid)];
        const bool left_is_inner = jp.left.table_id == inner.table_id;
        const ColRef& inner_side = left_is_inner ? jp.left : jp.right;
        const ColRef& outer_side = left_is_inner ? jp.right : jp.left;
        InnerAccess::JoinCond jc;
        jc.outer_pos = outer_layout.Resolve(outer_side);
        jc.inner_pos = inner_layout.Resolve(inner_side);
        inner.join_conds.push_back(jc);
      }
      if (node.use_index && inner.table != nullptr) {
        inner.index = catalog_.FindIndex(inner_node.table_name,
                                         node.index_col);
      } else if (node.use_index && inner.mv_rows != nullptr) {
        // The optimizer decided to index the materialized view before
        // reusing it (Section 2.3).
        owned_indexes_.push_back(std::make_unique<HashIndex>(
            *inner.mv_rows,
            inner_layout.Resolve(ColRef{inner.table_id, node.index_col}),
            inner_node.mv_name));
        inner.index = owned_indexes_.back().get();
      }
      const MergeSpec merge =
          MergeSpec::Make(outer_layout, inner_layout, LayoutFor(node.set));
      op = std::make_unique<NljnOp>(std::move(outer.value()),
                                    std::move(inner), merge, node.set);
      break;
    }
    case PlanOpKind::kHsjn: {
      Result<std::unique_ptr<Operator>> probe = BuildNode(*node.children[0]);
      if (!probe.ok()) return probe.status();
      Result<std::unique_ptr<Operator>> build = BuildNode(*node.children[1]);
      if (!build.ok()) return build.status();
      const TableSet probe_set = node.children[0]->set;
      const TableSet build_set = node.children[1]->set;
      const MergeSpec merge = MergeSpec::Make(
          LayoutFor(probe_set), LayoutFor(build_set), LayoutFor(node.set));
      op = std::make_unique<HsjnOp>(
          std::move(probe.value()), std::move(build.value()),
          ResolveKeys(node.join_pred_ids, probe_set),
          ResolveKeys(node.join_pred_ids, build_set), merge, node.set,
          node.check, offer_hsjn_builds_);
      break;
    }
    case PlanOpKind::kMgjn: {
      Result<std::unique_ptr<Operator>> left = BuildNode(*node.children[0]);
      if (!left.ok()) return left.status();
      Result<std::unique_ptr<Operator>> right = BuildNode(*node.children[1]);
      if (!right.ok()) return right.status();
      const TableSet left_set = node.children[0]->set;
      const TableSet right_set = node.children[1]->set;
      const MergeSpec merge = MergeSpec::Make(
          LayoutFor(left_set), LayoutFor(right_set), LayoutFor(node.set));
      op = std::make_unique<MgjnOp>(
          std::move(left.value()), std::move(right.value()),
          ResolveKeys(node.join_pred_ids, left_set),
          ResolveKeys(node.join_pred_ids, right_set), merge, node.set);
      break;
    }
    case PlanOpKind::kSort: {
      Result<std::unique_ptr<Operator>> child = BuildNode(*node.children[0]);
      if (!child.ok()) return child.status();
      op = std::make_unique<SortOp>(std::move(child.value()),
                                    node.sort_keys, node.set);
      break;
    }
    case PlanOpKind::kTemp: {
      Result<std::unique_ptr<Operator>> child = BuildNode(*node.children[0]);
      if (!child.ok()) return child.status();
      op = std::make_unique<SortOp>(std::move(child.value()),
                                    std::vector<SortKey>{}, node.set);
      break;
    }
    case PlanOpKind::kAgg: {
      Result<std::unique_ptr<Operator>> child = BuildNode(*node.children[0]);
      if (!child.ok()) return child.status();
      op = std::make_unique<HashAggOp>(std::move(child.value()),
                                       node.group_positions, node.agg_specs);
      break;
    }
    case PlanOpKind::kProject: {
      Result<std::unique_ptr<Operator>> child = BuildNode(*node.children[0]);
      if (!child.ok()) return child.status();
      op = std::make_unique<ProjectOp>(std::move(child.value()),
                                       node.positions);
      break;
    }
    case PlanOpKind::kFilter: {
      Result<std::unique_ptr<Operator>> child = BuildNode(*node.children[0]);
      if (!child.ok()) return child.status();
      op = std::make_unique<FilterOp>(std::move(child.value()),
                                      node.filter_preds, node.set);
      break;
    }
    case PlanOpKind::kCheck: {
      Result<std::unique_ptr<Operator>> child = BuildNode(*node.children[0]);
      if (!child.ok()) return child.status();
      op = std::make_unique<CheckOp>(std::move(child.value()), node.check);
      break;
    }
    case PlanOpKind::kCheckMat: {
      Result<std::unique_ptr<Operator>> child = BuildNode(*node.children[0]);
      if (!child.ok()) return child.status();
      op = std::make_unique<CheckMaterializedOp>(std::move(child.value()),
                                                 node.check);
      break;
    }
    case PlanOpKind::kBufCheck: {
      Result<std::unique_ptr<Operator>> child = BuildNode(*node.children[0]);
      if (!child.ok()) return child.status();
      op = std::make_unique<BufCheckOp>(std::move(child.value()), node.check);
      break;
    }
    case PlanOpKind::kWorkBound: {
      Result<std::unique_ptr<Operator>> child = BuildNode(*node.children[0]);
      if (!child.ok()) return child.status();
      op = std::make_unique<WorkBoundOp>(std::move(child.value()),
                                         node.work_budget, node.set);
      break;
    }
    case PlanOpKind::kRidTrack: {
      Result<std::unique_ptr<Operator>> child = BuildNode(*node.children[0]);
      if (!child.ok()) return child.status();
      op = std::make_unique<RidTrackOp>(std::move(child.value()), node.set);
      break;
    }
    case PlanOpKind::kAntiComp: {
      Result<std::unique_ptr<Operator>> child = BuildNode(*node.children[0]);
      if (!child.ok()) return child.status();
      if (already_returned_ == nullptr) {
        return Status::Internal("compensation node without returned rows");
      }
      op = std::make_unique<AntiCompensateOp>(std::move(child.value()),
                                              *already_returned_, node.set);
      // Row counts at and above a compensation anti-join are not true
      // subplan cardinalities (previously returned rows are suppressed);
      // exclude them from feedback harvesting.
      suppress_edges_ = true;
      break;
    }
  }
  if (op == nullptr) {
    return Status::Internal("unhandled plan operator");
  }
  // Attach the optimizer's per-node estimates so EXPLAIN ANALYZE can report
  // estimated vs. actual rows for the executed tree.
  op->AnnotateEstimates(node.card, node.cost, NodeDetail(node));
  if (node.set != 0 && !suppress_edges_) {
    edges_.emplace_back(node.set, op.get());
  }
  return op;
}

std::string ExecutorBuilder::NodeDetail(const PlanNode& node) {
  switch (node.kind) {
    case PlanOpKind::kTableScan:
      return node.table_name;
    case PlanOpKind::kMatViewScan:
      return node.mv_name;
    case PlanOpKind::kNljn: {
      std::string detail = node.use_index ? "ix" : "scan";
      const PlanNode& inner = *node.children[1];
      detail += ":" + (inner.kind == PlanOpKind::kMatViewScan
                           ? inner.mv_name
                           : inner.table_name);
      return detail;
    }
    case PlanOpKind::kCheck:
    case PlanOpKind::kCheckMat:
    case PlanOpKind::kBufCheck:
      if (node.check.enabled) {
        return StrFormat("%s [%.4g, %.4g]", CheckFlavorName(node.check.flavor),
                         node.check.lo, node.check.hi);
      }
      return "disabled";
    case PlanOpKind::kWorkBound:
      return StrFormat("budget=%.4g", node.work_budget);
    default:
      return std::string();
  }
}

}  // namespace popdb
