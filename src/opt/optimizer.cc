#include "opt/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/span.h"

namespace popdb {

std::vector<int> QueryTableWidths(const Catalog& catalog,
                                  const QuerySpec& query) {
  std::vector<int> widths;
  widths.reserve(static_cast<size_t>(query.num_tables()));
  for (int t = 0; t < query.num_tables(); ++t) {
    const Table* table = catalog.GetTable(query.table_name(t));
    widths.push_back(table != nullptr ? table->schema().num_columns() : 0);
  }
  return widths;
}

TableColumns QueryTableColumns(const Catalog& catalog,
                               const QuerySpec& query) {
  const std::vector<int> widths = QueryTableWidths(catalog, query);
  TableColumns columns(widths.size());
  if (!query.has_aggregation() && query.projections().empty()) {
    for (size_t t = 0; t < widths.size(); ++t) {
      columns[t] = AllColumns(widths[t]);
    }
    return columns;
  }
  auto read = [&columns](const ColRef& c) {
    columns[static_cast<size_t>(c.table_id)].push_back(c.column);
  };
  for (const JoinPredicate& jp : query.join_preds()) {
    read(jp.left);
    read(jp.right);
  }
  for (const ColRef& c : query.group_by()) read(c);
  for (const QuerySpec::Agg& a : query.aggs()) {
    if (a.func != AggFunc::kCount) read(a.arg);
  }
  for (const ColRef& c : query.projections()) read(c);
  for (std::vector<int>& table : columns) {
    std::sort(table.begin(), table.end());
    table.erase(std::unique(table.begin(), table.end()), table.end());
  }
  return columns;
}

Result<OptimizedPlan> Optimizer::Optimize(
    const QuerySpec& query, const FeedbackMap* feedback,
    const std::vector<AvailableMatView>* matviews, PruneObserver* observer,
    IncrementalMemo* memo) const {
  SpanTracer& tracer = SpanTracer::Global();
  // The estimator front-loads base-table cardinality estimation (local
  // predicates, feedback overrides) in its constructor.
  const int64_t card_t0 = tracer.enabled() ? tracer.NowUs() : -1;
  CardinalityEstimator estimator(catalog_, query, feedback,
                                 config_.estimator);
  CostModel cost_model(config_.cost);
  if (card_t0 >= 0) {
    tracer.RecordSpan("card_estimation", "opt", card_t0,
                      tracer.NowUs() - card_t0);
  }
  // Dynamic programming runs without the narrowing observer: by the
  // structural-equivalence theorem, validity ranges are only needed on the
  // final plan's edges, so the sensitivity analysis runs as a cheap
  // post-pass over the chosen tree instead of on every pruned candidate.
  const TableColumns columns = QueryTableColumns(catalog_, query);
  JoinEnumerator enumerator(catalog_, query, columns, estimator, cost_model,
                            config_.methods, matviews, memo);
  Result<std::shared_ptr<PlanNode>> join_tree = [&] {
    TRACE_SPAN_NAMED(dp_span, "dp_enumeration", "opt");
    Result<std::shared_ptr<PlanNode>> tree = enumerator.EnumerateJoinTree();
    dp_span.SetArg("candidates", enumerator.candidates_considered());
    return tree;
  }();
  if (!join_tree.ok()) return join_tree.status();

  // The enumerator builds a fresh tree per call, so downstream passes
  // (range narrowing, checkpoint placement) may mutate it in place.
  std::shared_ptr<PlanNode> root = std::move(join_tree.value());
  if (observer != nullptr) {
    TRACE_SPAN("validity_ranges", "opt");
    enumerator.NarrowPlanRanges(root.get(), observer);
  }

  const RowLayout full_layout(query.AllTables(), columns);

  if (query.has_aggregation()) {
    auto agg = std::make_shared<PlanNode>();
    agg->kind = PlanOpKind::kAgg;
    agg->set = 0;
    for (const ColRef& c : query.group_by()) {
      agg->group_positions.push_back(full_layout.Resolve(c));
    }
    for (const QuerySpec::Agg& a : query.aggs()) {
      ResolvedAgg ra;
      ra.func = a.func;
      ra.pos = a.func == AggFunc::kCount ? 0 : full_layout.Resolve(a.arg);
      agg->agg_specs.push_back(ra);
    }
    // Estimated group count: product of group-column NDVs capped by the
    // input cardinality.
    double groups = 1.0;
    for (const ColRef& c : query.group_by()) {
      groups *= estimator.ColumnNdv(c.table_id, c.column);
    }
    if (query.group_by().empty()) groups = 1.0;
    agg->card = std::min(groups, std::max(1.0, root->card));
    agg->op_cost = cost_model.AggCost(root->card);
    agg->cost = root->cost + agg->op_cost;
    agg->children = {root};
    agg->child_validity.resize(1);
    root = std::move(agg);
  } else if (query.distinct()) {
    // SELECT DISTINCT without aggregation: deduplicate via a group-by over
    // the projected columns (all columns when there is no projection).
    auto dedup = std::make_shared<PlanNode>();
    dedup->kind = PlanOpKind::kAgg;
    dedup->set = 0;
    if (query.projections().empty()) {
      for (int pos = 0; pos < full_layout.width(); ++pos) {
        dedup->group_positions.push_back(pos);
      }
    } else {
      for (const ColRef& c : query.projections()) {
        dedup->group_positions.push_back(full_layout.Resolve(c));
      }
    }
    dedup->card = std::max(1.0, root->card * 0.5);
    dedup->op_cost = cost_model.AggCost(root->card);
    dedup->cost = root->cost + dedup->op_cost;
    dedup->children = {root};
    dedup->child_validity.resize(1);
    root = std::move(dedup);
  } else if (!query.projections().empty()) {
    auto project = std::make_shared<PlanNode>();
    project->kind = PlanOpKind::kProject;
    project->set = 0;
    for (const ColRef& c : query.projections()) {
      project->positions.push_back(full_layout.Resolve(c));
    }
    project->card = root->card;
    project->op_cost = 0.0;
    project->cost = root->cost;
    project->children = {root};
    project->child_validity.resize(1);
    root = std::move(project);
  }

  if (!query.having().empty()) {
    auto filter = std::make_shared<PlanNode>();
    filter->kind = PlanOpKind::kFilter;
    filter->set = 0;
    for (const QuerySpec::HavingPred& h : query.having()) {
      ResolvedPredicate rp;
      rp.pos = h.output_pos;
      rp.kind = h.kind;
      rp.operand = h.operand;
      rp.operand2 = h.operand2;
      filter->filter_preds.push_back(std::move(rp));
    }
    filter->card = std::max(1.0, root->card * 0.5);
    filter->op_cost = 0.0;
    filter->cost = root->cost;
    filter->children = {root};
    filter->child_validity.resize(1);
    root = std::move(filter);
  }

  if (!query.order_by().empty()) {
    auto sort = std::make_shared<PlanNode>();
    sort->kind = PlanOpKind::kSort;
    sort->set = 0;
    for (const QuerySpec::OrderKey& k : query.order_by()) {
      sort->sort_keys.push_back(SortKey{k.output_pos, k.descending});
    }
    sort->card = root->card;
    sort->op_cost = cost_model.SortCost(root->card);
    sort->cost = root->cost + sort->op_cost;
    sort->children = {root};
    sort->child_validity.resize(1);
    root = std::move(sort);
  }

  OptimizedPlan out;
  out.root = std::move(root);
  out.candidates = enumerator.candidates_considered();
  out.est_cost = out.root->cost;
  out.est_card = out.root->card;
  out.memo_reused = enumerator.memo_reused();
  out.memo_invalidated = enumerator.memo_invalidated();
  return out;
}

}  // namespace popdb
