#include "opt/enumerator.h"

#include <algorithm>
#include <functional>

#include "opt/plan_cache.h"

namespace popdb {

namespace {
/// Unordered pair of child table sets identifying a join partition.
std::pair<TableSet, TableSet> PartitionOf(const PlanNode& node) {
  TableSet a = LogicalChild(node, 0)->set;
  TableSet b = LogicalChild(node, 1)->set;
  if (a > b) std::swap(a, b);
  return {a, b};
}

bool IsJoin(const PlanNode& node) {
  return node.kind == PlanOpKind::kNljn || node.kind == PlanOpKind::kHsjn ||
         node.kind == PlanOpKind::kMgjn;
}

int LowTable(TableSet set) { return __builtin_ctzll(set); }

/// Re-optimization-opportunity risk of a plan's root operator: 0 = both
/// inputs materialized (merge join), 1 = fully pipelined (NLJN).
double OperatorRisk(DpOp op) {
  switch (op) {
    case DpOp::kMgjn:
      return 0.0;
    case DpOp::kHsjn:
      return 0.5;  // Build side materialized, probe side pipelined.
    case DpOp::kNljn:
    case DpOp::kNljnOverMv:
      return 1.0;
    default:
      return 0.0;
  }
}

// Operator and cumulative cost of one plan operator. The DP loop's
// candidate costing and the Make* constructors both go through these
// helpers, so the two evaluate the same floating-point expressions and
// cannot drift apart.
struct OpCost {
  double op = 0.0;
  double total = 0.0;
};

OpCost HsjnCosts(const CostModel& cm, double probe_card, double probe_cost,
                 double build_card, double build_cost) {
  const double op = cm.HsjnCost(probe_card, build_card);
  return {op, probe_cost + build_cost + op};
}

OpCost SortCosts(const CostModel& cm, double card, double cost) {
  const double op = cm.SortCost(card);
  return {op, cost + op};
}

/// `left_cost` / `right_cost` are the merge inputs' costs (sorts included).
OpCost MgjnCosts(const CostModel& cm, double left_card, double left_cost,
                 double right_card, double right_cost, double out_card) {
  const double op = cm.MgjnCost(left_card, right_card, out_card);
  return {op, left_cost + right_cost + op};
}

OpCost NljnCosts(const CostModel& cm, double outer_card, double outer_cost,
                 double per_probe) {
  const double op = cm.NljnCost(outer_card, per_probe);
  return {op, outer_cost + op};
}

/// NLJN over a matview: an indexed probe also pays the one-off index build.
OpCost NljnOverMvCosts(const CostModel& cm, double outer_card,
                       double outer_cost, double per_probe, bool indexed,
                       double mv_card) {
  double op = cm.NljnCost(outer_card, per_probe);
  if (indexed) op = op + cm.IndexBuildCost(mv_card);
  return {op, outer_cost + op};
}

std::vector<SortKey> MatViewSortKeys(const AvailableMatView& mv) {
  std::vector<SortKey> keys;
  keys.reserve(mv.sorted_positions.size());
  for (int pos : mv.sorted_positions) keys.push_back(SortKey{pos, false});
  return keys;
}

/// True if rows ordered by `sort_keys` are already in merge order on
/// `required` (the interesting-orders payoff of harvesting SORT results as
/// views).
bool SortedOn(const std::vector<SortKey>& sort_keys,
              const std::vector<int>& required) {
  if (sort_keys.size() < required.size()) return false;
  for (size_t k = 0; k < required.size(); ++k) {
    if (sort_keys[k].pos != required[k] || sort_keys[k].descending) {
      return false;
    }
  }
  return true;
}
}  // namespace

bool SamePartition(const PlanNode& a, const PlanNode& b) {
  if (!IsJoin(a) || !IsJoin(b)) return false;
  return PartitionOf(a) == PartitionOf(b);
}

void IncrementalMemo::SeedFromSkeleton(std::shared_ptr<const PlanNode> skeleton,
                                       FeedbackMap feedback,
                                       uint64_t fingerprint) {
  Reset();
  skeleton_ = std::move(skeleton);
  feedback_ = std::move(feedback);
  // Cached skeletons never contain matview scans (the plan cache rejects
  // them), and the install-time enumeration ran without matviews.
  fingerprint_ = fingerprint;
  valid_ = true;
}

int64_t IncrementalMemo::entries() const {
  return std::count_if(entries_.begin(), entries_.end(), [](const DpEntry& e) {
    return e.op != DpOp::kNone;
  });
}

void IncrementalMemo::ConvertSkeleton(int num_tables) {
  entries_.assign(size_t{1} << num_tables, DpEntry{});
  const TableSet full = (TableSet{1} << num_tables) - 1;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    // Join nodes only: base tables are re-costed by every enumeration. The
    // skeleton's validity ranges are dropped — entries are pre-narrowing.
    const bool nljn_over_table =
        node.kind == PlanOpKind::kNljn &&
        node.children[1]->kind == PlanOpKind::kTableScan;
    if ((nljn_over_table || node.kind == PlanOpKind::kHsjn ||
         node.kind == PlanOpKind::kMgjn) &&
        node.set != 0 && (node.set & ~full) == 0) {
      DpEntry& e = entries_[node.set];
      e.op = node.kind == PlanOpKind::kNljn   ? DpOp::kNljn
             : node.kind == PlanOpKind::kHsjn ? DpOp::kHsjn
                                              : DpOp::kMgjn;
      e.child0 = static_cast<uint32_t>(LogicalChild(node, 0)->set);
      e.child1 = static_cast<uint32_t>(LogicalChild(node, 1)->set);
      e.card = node.card;
      e.cost = node.cost;
      e.assumptions = node.assumptions;
    }
    for (const std::shared_ptr<PlanNode>& child : node.children) walk(*child);
  };
  walk(*skeleton_);
  skeleton_.reset();
}

JoinEnumerator::JoinEnumerator(const Catalog& catalog, const QuerySpec& query,
                               const CardinalityEstimator& estimator,
                               const CostModel& cost,
                               const JoinMethodConfig& methods,
                               const std::vector<AvailableMatView>* matviews,
                               IncrementalMemo* memo)
    : catalog_(catalog),
      query_(query),
      estimator_(estimator),
      cost_(cost),
      methods_(methods),
      matviews_(matviews),
      memo_(memo) {
  table_widths_.reserve(static_cast<size_t>(query.num_tables()));
  for (int t = 0; t < query.num_tables(); ++t) {
    const Table* table = catalog.GetTable(query.table_name(t));
    table_widths_.push_back(table != nullptr ? table->schema().num_columns()
                                             : 0);
  }
}

std::vector<int> JoinEnumerator::CrossingJoins(TableSet left,
                                               TableSet right) const {
  std::vector<int> out;
  const auto& joins = query_.join_preds();
  for (size_t j = 0; j < joins.size(); ++j) {
    const int lt = joins[j].left.table_id;
    const int rt = joins[j].right.table_id;
    const bool crosses =
        (ContainsTable(left, lt) && ContainsTable(right, rt)) ||
        (ContainsTable(left, rt) && ContainsTable(right, lt));
    if (crosses) out.push_back(static_cast<int>(j));
  }
  return out;
}

std::vector<int> JoinEnumerator::MergeKeys(TableSet set,
                                           const std::vector<int>& joins) const {
  const RowLayout layout(set, table_widths_);
  std::vector<int> required;
  required.reserve(joins.size());
  for (int j : joins) {
    const JoinPredicate& jp = query_.join_preds()[static_cast<size_t>(j)];
    const ColRef& side = ContainsTable(set, jp.left.table_id) ? jp.left
                                                              : jp.right;
    required.push_back(layout.Resolve(side));
  }
  return required;
}

double JoinEnumerator::TableProbeCost(int inner_table, int index_col) const {
  const bool use_index = index_col >= 0;
  const double matches =
      use_index ? estimator_.IndexMatchesPerProbe(inner_table, index_col)
                : 0.0;
  return cost_.NljnProbeCost(use_index, estimator_.TableCard(inner_table),
                             matches);
}

double JoinEnumerator::MatViewProbeCost(const AvailableMatView& mv,
                                        int inner_table, int index_col) const {
  if (index_col < 0) return cost_.NljnProbeCost(false, mv.card, 0.0);
  const double matches =
      mv.card / std::max(1.0, estimator_.ColumnNdv(inner_table, index_col));
  return cost_.NljnProbeCost(true, mv.card, matches);
}

int JoinEnumerator::FindMatView(int table_id) const {
  if (!methods_.consider_matviews || matviews_ == nullptr) return -1;
  for (size_t i = 0; i < matviews_->size(); ++i) {
    const AvailableMatView& mv = (*matviews_)[i];
    if (mv.set == TableBit(table_id) && mv.rows != nullptr) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

DpEntry JoinEnumerator::ScanEntry(int table_id) const {
  const TableSet set = TableBit(table_id);
  DpEntry e;
  e.op = DpOp::kTableScan;
  e.card = estimator_.SubsetCard(set);
  e.assumptions = estimator_.AssumptionCount(set);
  e.cost = cost_.ScanCost(estimator_.TableCard(table_id));
  return e;
}

DpEntry JoinEnumerator::MatViewEntry(int mv, TableSet set) const {
  DpEntry e;
  e.op = DpOp::kMatViewScan;
  e.mv = static_cast<int16_t>(mv);
  e.card = estimator_.SubsetCard(set);
  e.cost = cost_.MatViewScanCost((*matviews_)[static_cast<size_t>(mv)].card);
  return e;
}

std::shared_ptr<PlanNode> JoinEnumerator::MakeScan(int table_id) {
  const DpEntry e = ScanEntry(table_id);
  auto scan = std::make_shared<PlanNode>();
  scan->kind = PlanOpKind::kTableScan;
  scan->set = TableBit(table_id);
  scan->table_id = table_id;
  scan->table_name = query_.table_name(table_id);
  scan->pred_ids = query_.PredsOnTable(table_id);
  scan->card = e.card;
  scan->assumptions = e.assumptions;
  scan->op_cost = e.cost;
  scan->cost = e.cost;
  return scan;
}

std::shared_ptr<PlanNode> JoinEnumerator::MakeMatViewScan(int mv,
                                                          TableSet set) {
  const DpEntry e = MatViewEntry(mv, set);
  const AvailableMatView& view = (*matviews_)[static_cast<size_t>(mv)];
  auto mvscan = std::make_shared<PlanNode>();
  mvscan->kind = PlanOpKind::kMatViewScan;
  mvscan->set = set;
  if (PopCount(set) == 1) mvscan->table_id = LowTable(set);
  mvscan->mv_name = view.name;
  mvscan->mv_rows = view.rows;
  mvscan->card = e.card;
  mvscan->sort_keys = MatViewSortKeys(view);
  mvscan->op_cost = e.cost;
  mvscan->cost = e.cost;
  return mvscan;
}

std::shared_ptr<PlanNode> JoinEnumerator::MakeHsjn(
    TableSet set, std::shared_ptr<PlanNode> probe,
    std::shared_ptr<PlanNode> build, const std::vector<int>& joins,
    double set_card, int set_assumptions) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanOpKind::kHsjn;
  node->set = set;
  const OpCost c =
      HsjnCosts(cost_, probe->card, probe->cost, build->card, build->cost);
  node->children = {std::move(probe), std::move(build)};
  node->child_validity.resize(2);
  node->join_pred_ids = joins;
  node->card = set_card;
  node->assumptions = set_assumptions;
  node->op_cost = c.op;
  node->cost = c.total;
  return node;
}

std::shared_ptr<PlanNode> JoinEnumerator::MakeMgjn(
    TableSet set, std::shared_ptr<PlanNode> left,
    std::shared_ptr<PlanNode> right, const std::vector<int>& joins,
    double set_card, int set_assumptions) {
  auto make_sort =
      [this, &joins](std::shared_ptr<PlanNode> child) -> std::shared_ptr<PlanNode> {
    std::vector<int> required = MergeKeys(child->set, joins);
    // A reused materialized view already sorted on the join keys needs no
    // re-sort.
    if (child->kind == PlanOpKind::kMatViewScan &&
        SortedOn(child->sort_keys, required)) {
      return child;
    }
    auto sort = std::make_shared<PlanNode>();
    sort->kind = PlanOpKind::kSort;
    sort->set = child->set;
    sort->card = child->card;
    sort->assumptions = child->assumptions;
    for (int pos : required) {
      sort->sort_keys.push_back(SortKey{pos, false});
    }
    const OpCost c = SortCosts(cost_, child->card, child->cost);
    sort->op_cost = c.op;
    sort->cost = c.total;
    sort->children = {std::move(child)};
    sort->child_validity.resize(1);
    return sort;
  };
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanOpKind::kMgjn;
  node->set = set;
  node->children = {make_sort(std::move(left)), make_sort(std::move(right))};
  node->child_validity.resize(2);
  node->join_pred_ids = joins;
  node->card = set_card;
  node->assumptions = set_assumptions;
  const OpCost c =
      MgjnCosts(cost_, node->children[0]->card, node->children[0]->cost,
                node->children[1]->card, node->children[1]->cost, set_card);
  node->op_cost = c.op;
  node->cost = c.total;
  return node;
}

std::shared_ptr<PlanNode> JoinEnumerator::MakeNljn(
    TableSet set, std::shared_ptr<PlanNode> outer, int inner_table,
    const std::vector<int>& joins, double set_card, int set_assumptions) {
  std::shared_ptr<PlanNode> inner = MakeScan(inner_table);
  inner->op_cost = 0.0;  // Probe cost is charged by the NLJN operator.
  inner->cost = 0.0;

  auto node = std::make_shared<PlanNode>();
  node->kind = PlanOpKind::kNljn;
  node->set = set;
  node->join_pred_ids = joins;
  node->card = set_card;
  node->assumptions = set_assumptions;

  // Prefer probing through an index: pick the first crossing join predicate
  // whose inner column has a hash index, and move it to the front.
  node->use_index = false;
  for (size_t k = 0; k < joins.size(); ++k) {
    const JoinPredicate& jp =
        query_.join_preds()[static_cast<size_t>(joins[k])];
    const ColRef& inner_side =
        jp.left.table_id == inner_table ? jp.left : jp.right;
    if (inner_side.table_id != inner_table) continue;
    if (catalog_.FindIndex(query_.table_name(inner_table),
                           inner_side.column) != nullptr) {
      node->use_index = true;
      node->index_col = inner_side.column;
      std::swap(node->join_pred_ids[0], node->join_pred_ids[k]);
      break;
    }
  }
  node->per_probe_cost =
      TableProbeCost(inner_table, node->use_index ? node->index_col : -1);
  const OpCost c =
      NljnCosts(cost_, outer->card, outer->cost, node->per_probe_cost);
  node->op_cost = c.op;
  node->cost = c.total;
  node->children = {std::move(outer), std::move(inner)};
  node->child_validity.resize(2);
  return node;
}

std::shared_ptr<PlanNode> JoinEnumerator::MakeNljnOverMv(
    TableSet set, std::shared_ptr<PlanNode> outer, int inner_table,
    const std::vector<int>& joins, const AvailableMatView& mv,
    double set_card, int set_assumptions) {
  const TableSet inner_set = TableBit(inner_table);
  auto inner = std::make_shared<PlanNode>();
  inner->kind = PlanOpKind::kMatViewScan;
  inner->set = inner_set;
  inner->table_id = inner_table;
  inner->mv_name = mv.name;
  inner->mv_rows = mv.rows;
  inner->card = estimator_.SubsetCard(inner_set);
  inner->assumptions = estimator_.AssumptionCount(inner_set);
  inner->op_cost = 0.0;  // Probe cost is charged by the NLJN operator.
  inner->cost = 0.0;

  auto node = std::make_shared<PlanNode>();
  node->kind = PlanOpKind::kNljn;
  node->set = set;
  node->join_pred_ids = joins;
  node->card = set_card;
  node->assumptions = set_assumptions;
  // With a crossing join, build a hash index on the view before reusing it
  // (Section 2.3); the one-off build cost is charged to this operator.
  node->use_index = !joins.empty();
  if (node->use_index) {
    const JoinPredicate& jp =
        query_.join_preds()[static_cast<size_t>(joins[0])];
    node->index_col = jp.left.table_id == inner_table ? jp.left.column
                                                      : jp.right.column;
  }
  node->per_probe_cost = MatViewProbeCost(
      mv, inner_table, node->use_index ? node->index_col : -1);
  const OpCost c = NljnOverMvCosts(cost_, outer->card, outer->cost,
                                   node->per_probe_cost, node->use_index,
                                   mv.card);
  node->op_cost = c.op;
  node->cost = c.total;
  node->children = {std::move(outer), std::move(inner)};
  node->child_validity.resize(2);
  return node;
}

std::shared_ptr<PlanNode> JoinEnumerator::Build(TableSet set) {
  const DpEntry& e = dp_[set];
  switch (e.op) {
    case DpOp::kNone:
      break;
    case DpOp::kTableScan:
      return MakeScan(LowTable(set));
    case DpOp::kMatViewScan:
      return MakeMatViewScan(e.mv, set);
    case DpOp::kHsjn:
      return MakeHsjn(set, Build(e.child0), Build(e.child1),
                      CrossingJoins(e.child0, e.child1), e.card,
                      e.assumptions);
    case DpOp::kMgjn:
      return MakeMgjn(set, Build(e.child0), Build(e.child1),
                      CrossingJoins(e.child0, e.child1), e.card,
                      e.assumptions);
    case DpOp::kNljn:
      return MakeNljn(set, Build(e.child0), LowTable(e.child1),
                      CrossingJoins(e.child0, e.child1), e.card,
                      e.assumptions);
    case DpOp::kNljnOverMv:
      return MakeNljnOverMv(set, Build(e.child0), LowTable(e.child1),
                            CrossingJoins(e.child0, e.child1),
                            (*matviews_)[static_cast<size_t>(e.mv)], e.card,
                            e.assumptions);
  }
  return nullptr;
}

DpEntry JoinEnumerator::BestAccessPath(int table_id) {
  const TableSet set = TableBit(table_id);
  DpEntry best = ScanEntry(table_id);
  ++candidates_;
  if (methods_.consider_matviews && matviews_ != nullptr) {
    for (size_t i = 0; i < matviews_->size(); ++i) {
      const AvailableMatView& mv = (*matviews_)[i];
      if (mv.set != set || mv.rows == nullptr) continue;
      const DpEntry view = MatViewEntry(static_cast<int>(i), set);
      ++candidates_;
      if (view.cost < best.cost) best = view;
    }
  }
  return best;
}

double JoinEnumerator::BiasedCost(DpOp op, double cost) const {
  if (methods_.volatile_mode_bias <= 0.0) return cost;
  return cost * (1.0 + methods_.volatile_mode_bias * OperatorRisk(op));
}

void JoinEnumerator::Offer(DpEntry* best, const DpEntry& candidate,
                           double biased) const {
  // Cross-partition comparison: different join orders are never
  // structurally equivalent, so no validity narrowing happens here
  // (Section 2.2's restriction).
  if (best->op == DpOp::kNone || biased < BiasedCost(best->op, best->cost)) {
    *best = candidate;
  }
}

double JoinEnumerator::MergeInputCost(TableSet side, TableSet other) const {
  const DpEntry& e = dp_[side];
  if (e.op == DpOp::kMatViewScan &&
      SortedOn(MatViewSortKeys((*matviews_)[static_cast<size_t>(e.mv)]),
               MergeKeys(side, CrossingJoins(side, other)))) {
    return e.cost;
  }
  return SortCosts(cost_, e.card, e.cost).total;
}

void JoinEnumerator::AddJoinCandidates(TableSet set, TableSet left,
                                       TableSet right, bool connected,
                                       double set_card, int set_assumptions) {
  const DpEntry& lp = dp_[left];
  const DpEntry& rp = dp_[right];

  // All candidates of one partition are structurally equivalent (same
  // input edges, commutation included): pick the partition winner first,
  // then offer it for the cross-partition (join-order) comparison. Each
  // candidate is costed arithmetically; only a winner is recorded.
  DpEntry winner;
  double winner_biased = 0.0;
  auto consider = [&](DpOp op, TableSet child0, TableSet child1, int mv,
                      double cost) {
    ++candidates_;
    const double biased = BiasedCost(op, cost);
    if (winner.op != DpOp::kNone && !(biased < winner_biased)) return;
    winner.op = op;
    winner.mv = static_cast<int16_t>(mv);
    winner.child0 = static_cast<uint32_t>(child0);
    winner.child1 = static_cast<uint32_t>(child1);
    winner.cost = cost;
    winner_biased = biased;
  };
  if (methods_.enable_hsjn) {
    consider(DpOp::kHsjn, left, right, -1,  // Build right.
             HsjnCosts(cost_, lp.card, lp.cost, rp.card, rp.cost).total);
    consider(DpOp::kHsjn, right, left, -1,  // Commuted.
             HsjnCosts(cost_, rp.card, rp.cost, lp.card, lp.cost).total);
  }
  if (methods_.enable_mgjn && connected) {
    consider(DpOp::kMgjn, left, right, -1,
             MgjnCosts(cost_, lp.card, MergeInputCost(left, right), rp.card,
                       MergeInputCost(right, left), set_card)
                 .total);
  }
  if (methods_.enable_nljn) {
    // NLJN into a single inner table, outer = the other side: probe
    // through the first crossing join predicate with an index, else scan.
    auto nljn = [&](TableSet outer, const DpEntry& outer_plan,
                    TableSet inner) {
      const int t = LowTable(inner);
      const ProbePath* first = nullptr;
      double per_probe = scan_probe_[static_cast<size_t>(t)];
      for (const ProbePath& path : probe_paths_[static_cast<size_t>(t)]) {
        if ((path.other & outer) == 0) continue;
        if (first == nullptr) first = &path;
        if (path.indexed) {
          per_probe = path.index_probe;
          break;
        }
      }
      consider(DpOp::kNljn, outer, inner, -1,
               NljnCosts(cost_, outer_plan.card, outer_plan.cost, per_probe)
                   .total);
      const int mv = table_mv_[static_cast<size_t>(t)];
      if (mv >= 0) {
        // Over a matview the index is built on the first crossing join.
        const AvailableMatView& view = (*matviews_)[static_cast<size_t>(mv)];
        const double mv_probe = MatViewProbeCost(
            view, t, first != nullptr ? first->column : -1);
        consider(DpOp::kNljnOverMv, outer, inner, mv,
                 NljnOverMvCosts(cost_, outer_plan.card, outer_plan.cost,
                                 mv_probe, first != nullptr, view.card)
                     .total);
      }
    };
    if (PopCount(right) == 1) nljn(left, lp, right);
    if (PopCount(left) == 1) nljn(right, rp, left);
  }
  if (winner.op == DpOp::kNone) return;
  winner.card = set_card;
  winner.assumptions = set_assumptions;
  Offer(&dp_[set], winner, winner_biased);
}

void JoinEnumerator::NarrowPlanRanges(PlanNode* root,
                                      PruneObserver* observer) {
  if (IsJoin(*root)) {
    const PlanNode* left = LogicalChild(*root, 0);
    const PlanNode* right = LogicalChild(*root, 1);
    // Regenerate the structurally equivalent alternatives over the same
    // (already-optimized) children and narrow against each.
    const std::vector<int> joins = CrossingJoins(left->set, right->set);
    auto share = [this](const PlanNode* node) {
      // Alternatives only read card/cost/set of the children; a shallow
      // copy is enough and avoids touching the real tree. An NLJN inner
      // scan carries zero cost (the probe is charged by the join), so it
      // must be re-costed as a standalone access path or the regenerated
      // alternatives would get its scan for free.
      auto copy = std::make_shared<PlanNode>(*node);
      if (copy->kind == PlanOpKind::kTableScan && copy->cost == 0.0) {
        copy->op_cost = ScanEntry(copy->table_id).cost;
        copy->cost = copy->op_cost;
      }
      return copy;
    };
    const double set_card = estimator_.SubsetCard(root->set);
    const int set_assumptions = estimator_.AssumptionCount(root->set);
    std::vector<std::shared_ptr<PlanNode>> alternatives;
    if (methods_.enable_hsjn) {
      alternatives.push_back(MakeHsjn(root->set, share(left), share(right),
                                      joins, set_card, set_assumptions));
      alternatives.push_back(MakeHsjn(root->set, share(right), share(left),
                                      joins, set_card, set_assumptions));
    }
    if (methods_.enable_mgjn && !joins.empty()) {
      alternatives.push_back(MakeMgjn(root->set, share(left), share(right),
                                      joins, set_card, set_assumptions));
    }
    if (methods_.enable_nljn) {
      if (PopCount(right->set) == 1 &&
          right->kind == PlanOpKind::kTableScan) {
        alternatives.push_back(MakeNljn(root->set, share(left),
                                        LowTable(right->set), joins, set_card,
                                        set_assumptions));
      }
      if (PopCount(left->set) == 1 && left->kind == PlanOpKind::kTableScan) {
        alternatives.push_back(MakeNljn(root->set, share(right),
                                        LowTable(left->set), joins, set_card,
                                        set_assumptions));
      }
    }
    for (const auto& alt : alternatives) {
      if (alt->kind == root->kind && SamePartition(*alt, *root) &&
          LogicalChild(*alt, 0)->set == left->set &&
          alt->use_index == root->use_index &&
          alt->children[1]->kind == root->children[1]->kind) {
        // Skip the candidate that *is* this plan.
        continue;
      }
      observer->OnPrune(root, *alt);
    }
  }
  for (const auto& child : root->children) {
    NarrowPlanRanges(child.get(), observer);
  }
}

std::vector<MemoMatViewKey> JoinEnumerator::CurrentMatViewKeys() const {
  std::vector<MemoMatViewKey> keys;
  if (!methods_.consider_matviews || matviews_ == nullptr) return keys;
  keys.reserve(matviews_->size());
  for (const AvailableMatView& mv : *matviews_) {
    keys.push_back(
        MemoMatViewKey{mv.name, mv.set, mv.card, mv.sorted_positions});
  }
  return keys;
}

void JoinEnumerator::ReuseMemoEntries() {
  // Dirty roots: every table set whose cardinality knowledge or matview
  // identity changed since the memo was committed. A memo entry for set S
  // is stale iff some dirty root is a subset of S — SubsetCard(S) reads
  // only feedback entries that are subsets of S, matviews over M are only
  // candidates for sets containing M, and a stale child taints every
  // candidate cost above it.
  std::vector<TableSet> dirty;
  static const FeedbackMap kEmptyFeedback;
  const FeedbackMap& old_fb = memo_->feedback_;
  const FeedbackMap& new_fb = estimator_.feedback() != nullptr
                                  ? *estimator_.feedback()
                                  : kEmptyFeedback;
  auto ita = old_fb.begin();
  auto itb = new_fb.begin();
  while (ita != old_fb.end() || itb != new_fb.end()) {
    if (itb == new_fb.end() || (ita != old_fb.end() && ita->first < itb->first)) {
      dirty.push_back(ita->first);  // Key vanished.
      ++ita;
    } else if (ita == old_fb.end() || itb->first < ita->first) {
      dirty.push_back(itb->first);  // Key appeared.
      ++itb;
    } else {
      if (ita->second.exact != itb->second.exact ||
          ita->second.lower_bound != itb->second.lower_bound) {
        dirty.push_back(ita->first);
      }
      ++ita;
      ++itb;
    }
  }
  // Surviving entries keep their matview by identity: map each committed
  // view to its position in the current offer list (a view that is gone
  // dirties its set instead).
  const std::vector<MemoMatViewKey> new_mv = CurrentMatViewKeys();
  std::vector<int16_t> mv_now(memo_->matviews_.size(), -1);
  for (size_t i = 0; i < memo_->matviews_.size(); ++i) {
    const MemoMatViewKey& old_key = memo_->matviews_[i];
    auto it = std::find(new_mv.begin(), new_mv.end(), old_key);
    if (it == new_mv.end()) {
      dirty.push_back(old_key.set);
    } else {
      mv_now[i] = static_cast<int16_t>(it - new_mv.begin());
    }
  }
  for (const MemoMatViewKey& new_key : new_mv) {
    if (std::find(memo_->matviews_.begin(), memo_->matviews_.end(),
                  new_key) == memo_->matviews_.end()) {
      dirty.push_back(new_key.set);
    }
  }

  for (size_t set = 1; set < memo_->entries_.size(); ++set) {
    DpEntry& e = memo_->entries_[set];
    if (e.op == DpOp::kNone) continue;
    bool stale = false;
    for (TableSet root : dirty) {
      if ((root & set) == root) {
        stale = true;
        break;
      }
    }
    if (stale) {
      ++memo_invalidated_;
      e = DpEntry{};
    } else {
      ++memo_reused_;
      e.reused = true;
      if (e.mv >= 0) e.mv = mv_now[static_cast<size_t>(e.mv)];
    }
  }
}

void JoinEnumerator::CommitMemo() {
  memo_->feedback_ = estimator_.feedback() != nullptr ? *estimator_.feedback()
                                                      : FeedbackMap{};
  memo_->matviews_ = CurrentMatViewKeys();
  memo_->fingerprint_ = memo_fingerprint_;
  memo_->valid_ = true;
}

void JoinEnumerator::PrepareTable() {
  const int n = query_.num_tables();
  const size_t table_size = size_t{1} << n;
  std::vector<DpEntry>* table = &local_table_;
  bool reusing = false;
  if (memo_ != nullptr) {
    table = &memo_->entries_;
    memo_fingerprint_ = QueryMemoFingerprint(query_);
    if (memo_->valid_ && memo_->fingerprint_ == memo_fingerprint_) {
      if (memo_->skeleton_ != nullptr) memo_->ConvertSkeleton(n);
      reusing = table->size() == table_size;
      if (reusing) ReuseMemoEntries();
    }
    // The table is hollow until CommitMemo; a failed enumeration must not
    // leave it looking reusable.
    memo_->skeleton_.reset();
    memo_->valid_ = false;
  }
  if (!reusing) table->assign(table_size, DpEntry{});
  dp_ = table->data();

  // Connectivity: neighbours_[S] is every table joined to a member of S.
  std::vector<uint32_t> adjacent(static_cast<size_t>(n), 0);
  probe_paths_.assign(static_cast<size_t>(n), {});
  table_mv_.resize(static_cast<size_t>(n));
  scan_probe_.resize(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    table_mv_[static_cast<size_t>(t)] = FindMatView(t);
    scan_probe_[static_cast<size_t>(t)] = TableProbeCost(t, -1);
  }
  for (const JoinPredicate& jp : query_.join_preds()) {
    const int lt = jp.left.table_id;
    const int rt = jp.right.table_id;
    if (lt == rt) continue;  // Never crosses a split.
    adjacent[static_cast<size_t>(lt)] |= static_cast<uint32_t>(TableBit(rt));
    adjacent[static_cast<size_t>(rt)] |= static_cast<uint32_t>(TableBit(lt));
    for (const ColRef* side : {&jp.left, &jp.right}) {
      const int t = side->table_id;
      ProbePath path;
      path.other = TableBit(side == &jp.left ? rt : lt);
      path.column = side->column;
      path.indexed = methods_.enable_nljn &&
                     catalog_.FindIndex(query_.table_name(t), side->column) !=
                         nullptr;
      if (path.indexed) path.index_probe = TableProbeCost(t, side->column);
      probe_paths_[static_cast<size_t>(t)].push_back(path);
    }
  }
  neighbours_.assign(table_size, 0);
  for (size_t set = 1; set < table_size; ++set) {
    neighbours_[set] = neighbours_[set & (set - 1)] |
                       adjacent[static_cast<size_t>(LowTable(set))];
  }
}

Result<std::shared_ptr<PlanNode>> JoinEnumerator::EnumerateJoinTree() {
  const int n = query_.num_tables();
  if (n == 0) {
    return Status::InvalidArgument("query has no tables");
  }
  if (n > 20) {
    return Status::InvalidArgument(
        "too many tables for exhaustive dynamic programming");
  }
  PrepareTable();
  for (int t = 0; t < n; ++t) {
    if (catalog_.GetTable(query_.table_name(t)) == nullptr) {
      return Status::NotFound("no such table: " + query_.table_name(t));
    }
    DpEntry& e = dp_[TableBit(t)];
    if (!e.reused) e = BestAccessPath(t);
  }

  const TableSet full = query_.AllTables();
  // Multi-table materialized views seed their table set directly.
  if (methods_.consider_matviews && matviews_ != nullptr) {
    for (size_t i = 0; i < matviews_->size(); ++i) {
      const AvailableMatView& mv = (*matviews_)[i];
      if (PopCount(mv.set) < 2 || mv.rows == nullptr) continue;
      if ((mv.set & ~full) != 0 || dp_[mv.set].reused) continue;
      const DpEntry view = MatViewEntry(static_cast<int>(i), mv.set);
      Offer(&dp_[mv.set], view, BiasedCost(view.op, view.cost));
    }
  }

  // DPsub: every set after all of its subsets (ascending set order).
  for (TableSet set = 1; set <= full; ++set) {
    if (PopCount(set) < 2 || dp_[set].reused) continue;
    // One estimator probe per set, shared by every split's candidates.
    const double set_card = estimator_.SubsetCard(set);
    const int set_assumptions = estimator_.AssumptionCount(set);
    const TableSet low_bit = set & (~set + 1);
    // Pass 1: partitions connected by at least one join predicate.
    bool connected_found = false;
    for (TableSet sub = (set - 1) & set; sub != 0; sub = (sub - 1) & set) {
      if ((sub & low_bit) == 0) continue;  // Dedupe unordered partitions.
      const TableSet rest = set & ~sub;
      if ((neighbours_[sub] & rest) == 0) continue;
      if (dp_[sub].op == DpOp::kNone || dp_[rest].op == DpOp::kNone) continue;
      connected_found = true;
      AddJoinCandidates(set, sub, rest, /*connected=*/true, set_card,
                        set_assumptions);
    }
    if (connected_found) continue;
    // Pass 2: no connected partition exists; allow cross products.
    for (TableSet sub = (set - 1) & set; sub != 0; sub = (sub - 1) & set) {
      if ((sub & low_bit) == 0) continue;
      const TableSet rest = set & ~sub;
      if (dp_[sub].op == DpOp::kNone || dp_[rest].op == DpOp::kNone) continue;
      AddJoinCandidates(set, sub, rest, /*connected=*/false, set_card,
                        set_assumptions);
    }
  }

  if (dp_[full].op == DpOp::kNone) {
    return Status::Internal("join enumeration produced no plan");
  }
  if (memo_ != nullptr) CommitMemo();
  return Build(full);
}

}  // namespace popdb
