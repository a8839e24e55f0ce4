#ifndef POPDB_OPT_PLAN_H_
#define POPDB_OPT_PLAN_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/agg.h"
#include "exec/join.h"
#include "exec/sort.h"
#include "opt/cost_model.h"

namespace popdb {

/// Physical operator kinds a query execution plan can contain.
enum class PlanOpKind {
  kTableScan,
  kMatViewScan,
  kNljn,  ///< children[0]=outer subplan, children[1]=inner access path.
  kHsjn,  ///< children[0]=probe/outer, children[1]=build/inner.
  kMgjn,  ///< children are kSort nodes over the join inputs.
  kSort,
  kTemp,
  kAgg,
  kProject,
  kFilter,     ///< Residual predicates over resolved positions (HAVING).
  kCheck,      ///< Streaming CHECK (eager flavors).
  kCheckMat,   ///< Lazy CHECK evaluated once above a materialization.
  kBufCheck,   ///< CHECK fused with a bounded buffer (Figures 8/10).
  kWorkBound,  ///< Extension: execution-work budget guard (Section 8).
  kRidTrack,   ///< Records returned rows for deferred compensation.
  kAntiComp,   ///< Anti-join against previously returned rows.
};

const char* PlanOpKindName(PlanOpKind kind);

/// Cardinality interval within which the plan above an edge remains optimal
/// with respect to the optimizer's cost model (paper Section 2.2). Computed
/// conservatively during dynamic-programming pruning; an un-narrowed range
/// is [0, +inf) and never triggers re-optimization.
struct ValidityRange {
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();

  bool IsNarrowed() const {
    return lo > 0.0 || hi < std::numeric_limits<double>::infinity();
  }
  bool Contains(double card) const { return card >= lo && card <= hi; }
};

/// A node of a physical query execution plan. Dynamic programming costs
/// candidates as plain per-set entries and builds nodes only for the chosen
/// plan, so the optimizer hands out a private tree that later passes
/// (validity narrowing, checkpoint placement) rewrite in place.
///
/// `child_validity[i]` is the validity range of the edge from children[i]
/// into this node; it lives on the parent because the child subplan can be
/// shared (cached plans, the alternatives regenerated for narrowing).
struct PlanNode {
  PlanOpKind kind = PlanOpKind::kTableScan;
  /// Mutable pointers, but shared subtrees must never be mutated: cached
  /// plans are cloned before any pass rewrites them.
  std::vector<std::shared_ptr<PlanNode>> children;
  std::vector<ValidityRange> child_validity;

  TableSet set = 0;       ///< Tables joined by this subplan (0 = post-join).
  double card = 0.0;      ///< Estimated output cardinality.
  double cost = 0.0;      ///< Cumulative estimated cost.
  double op_cost = 0.0;   ///< This operator's own cost share.
  /// Optimizer assumptions behind `card` (independence multiplications and
  /// parameter-marker defaults) — the confidence model of Section 4.
  int assumptions = 0;

  // --- Scan payload.
  int table_id = -1;
  std::string table_name;
  std::vector<int> pred_ids;  ///< Local predicate ids applied here.
  std::string mv_name;        ///< For kMatViewScan.
  const std::vector<Row>* mv_rows = nullptr;

  // --- Join payload.
  std::vector<int> join_pred_ids;
  bool use_index = false;
  int index_col = -1;          ///< Inner column probed via hash index.
  double per_probe_cost = 0.0; ///< NLJN expected cost per outer row.

  // --- Sort payload (kSort; also final order-by).
  std::vector<SortKey> sort_keys;

  // --- Aggregation payload.
  std::vector<int> group_positions;
  std::vector<ResolvedAgg> agg_specs;

  // --- Projection payload.
  std::vector<int> positions;

  // --- Residual filter payload (kFilter; HAVING).
  std::vector<ResolvedPredicate> filter_preds;

  // --- Checkpoint payload.
  CheckSpec check;
  /// For kWorkBound: fire once ExecContext::work exceeds this.
  double work_budget = 0.0;

  /// Deep copy (children cloned too, breaking sharing).
  std::shared_ptr<PlanNode> Clone() const;

  /// Multi-line indented plan rendering including cards, costs, validity
  /// ranges and check ranges.
  std::string ToString() const;

  /// Sum of rows produced by join/scan operators — used by benchmarks as a
  /// deterministic "work" proxy.
  double TotalCost() const { return cost; }
};

/// Order-sensitive 64-bit FNV-1a digest of a full plan tree: operator
/// kinds, table sets, bit-exact cards/costs, predicates, sort keys,
/// validity ranges and check ranges. Two plans digest equal only when they
/// are structurally and numerically identical — the incremental
/// re-optimization oracle's definition of "the same plan" (stricter than
/// comparing the %g-formatted ToString rendering).
uint64_t PlanDigest(const PlanNode& plan);

/// Recomputes the cumulative cost of a join candidate `root` assuming its
/// logical input edge in child slot `slot` carried `edge_card` rows instead
/// of the estimate. Sort/Temp wrappers directly above the shared subplan
/// are re-costed; the shared subplans below are sunk constants. This is the
/// cost(P, c) function used by validity-range root finding (Figure 4).
double RecostCandidateWithEdgeCard(const PlanNode& root, int slot,
                                   double edge_card, const CostModel& cm);

/// The logical subplan feeding slot `slot` of `root` (skipping a Sort/Temp
/// wrapper inserted by the join candidate itself).
const PlanNode* LogicalChild(const PlanNode& root, int slot);

}  // namespace popdb

#endif  // POPDB_OPT_PLAN_H_
