#ifndef POPDB_OPT_OPTIMIZER_H_
#define POPDB_OPT_OPTIMIZER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "opt/cardinality.h"
#include "opt/cost_model.h"
#include "opt/enumerator.h"
#include "opt/plan.h"
#include "opt/query.h"
#include "storage/catalog.h"

namespace popdb {

/// All optimizer knobs in one place.
struct OptimizerConfig {
  JoinMethodConfig methods;
  CostParams cost;
  EstimatorConfig estimator;
};

/// Output of one optimization: a private plan tree plus diagnostics.
struct OptimizedPlan {
  std::shared_ptr<PlanNode> root;
  int64_t candidates = 0;
  double est_cost = 0.0;
  double est_card = 0.0;
  /// Incremental re-optimization: memo entries reused / discarded by this
  /// optimization (0 without an attached IncrementalMemo).
  int64_t memo_reused = 0;
  int64_t memo_invalidated = 0;
};

/// Cost-based query optimizer facade: cardinality estimation, dynamic
/// programming join enumeration, validity-range narrowing of the chosen
/// plan (with an observer) and top-of-plan construction (aggregation,
/// projection, final sort).
class Optimizer {
 public:
  Optimizer(const Catalog& catalog, OptimizerConfig config)
      : catalog_(catalog), config_(std::move(config)) {}

  /// Optimizes `query`. `feedback` carries actual cardinalities from
  /// earlier execution steps (may be null), `matviews` the reusable
  /// intermediate results (may be null), `observer` the validity-range
  /// narrowing hook (may be null for a plain System-R optimizer), `memo`
  /// the persistent DP memo for incremental re-optimization (may be null
  /// for from-scratch enumeration; with a memo the produced plan is
  /// bit-identical, only cheaper to find).
  Result<OptimizedPlan> Optimize(
      const QuerySpec& query, const FeedbackMap* feedback = nullptr,
      const std::vector<AvailableMatView>* matviews = nullptr,
      PruneObserver* observer = nullptr, IncrementalMemo* memo = nullptr) const;

  const OptimizerConfig& config() const { return config_; }
  const Catalog& catalog() const { return catalog_; }

 private:
  const Catalog& catalog_;
  OptimizerConfig config_;
};

/// Column widths of the query's tables, indexed by query table id (shared
/// helper for layout resolution).
std::vector<int> QueryTableWidths(const Catalog& catalog,
                                  const QuerySpec& query);

}  // namespace popdb

#endif  // POPDB_OPT_OPTIMIZER_H_
