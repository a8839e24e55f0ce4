#ifndef POPDB_CORE_PLACEMENT_H_
#define POPDB_CORE_PLACEMENT_H_

#include <memory>
#include <vector>

#include "core/validity.h"
#include "opt/cost_model.h"
#include "opt/plan.h"

namespace popdb {

/// Configuration of progressive query optimization (checkpoint flavors,
/// risk posture, re-optimization budget). The defaults mirror the paper's
/// prototype: conservative LC + LCEM placement, eager flavors disabled,
/// TEMP/SORT results reused, hash-join builds not reused, at most three
/// re-optimizations (Section 4, Section 7).
struct PopConfig {
  bool enable_lc = true;    ///< Lazy checks above SORT/TEMP/HSJN-build.
  bool enable_lcem = true;  ///< CHECK-TEMP pairs on NLJN outers.
  bool enable_ecb = false;  ///< Eager check (under the LCEM/ECB buffer).
  bool enable_ecwc = false; ///< Eager check below materialization points.
  bool enable_ecdc = false; ///< Pipelined checks + deferred compensation.

  /// Only place a checkpoint when the validity range of its edge was
  /// actually narrowed, i.e. an alternative plan exists above the edge
  /// (Section 4's placement restriction).
  bool require_narrowed_range = true;

  /// Queries cheaper than this (estimated cost) get no checkpoints at all.
  double min_plan_cost_for_checks = 0.0;

  /// Widens check ranges to [lo/f, hi*f]; 1.0 = use validity ranges as-is.
  /// Used by the ablation study comparing against ad-hoc thresholds.
  double check_safety_factor = 1.0;

  /// Place an LCEM only when the artificial materialization is cheap: its
  /// estimated TEMP cost must not exceed this fraction of the whole plan's
  /// estimated cost (risk control; the paper materializes NLJN outers on
  /// the expectation that they are small).
  double lcem_budget_fraction = 0.05;

  /// Hard cap on re-optimizations; the final attempt runs without checks
  /// to guarantee termination (Section 7 "Ensuring Termination").
  int max_reopts = 3;

  /// Keep the DP memo alive across re-optimization attempts: a CHECK
  /// violation only invalidates memo entries whose table set contains the
  /// changed edge; everything else is reused, and plan-cache near misses
  /// warm-start the memo from the cached skeleton. Produces bit-identical
  /// plans to from-scratch enumeration (the reopt differential suite
  /// enforces this), which is why the knob is deliberately NOT part of the
  /// plan-cache key.
  bool incremental_reopt = true;

  /// Reuse completed TEMP/SORT materializations as temp MVs.
  bool reuse_matviews = true;
  /// Extension: also offer hash-join build sides for reuse (the paper's
  /// prototype does not; see Section 4).
  bool reuse_hsjn_builds = false;

  /// Record CheckEvents but never trigger (opportunity analysis, Fig. 14).
  bool observe_only = false;

  /// Extension (paper Section 8): re-optimize when the executed work
  /// exceeds `work_bound_factor` x the plan's estimated cost. 0 disables.
  /// For pipelined SPJ plans a row tracker is added so the re-run can
  /// compensate already returned rows.
  double work_bound_factor = 0.0;

  /// Extension (paper Section 4 future work): place checkpoints only on
  /// edges whose estimate used at least this many optimizer assumptions
  /// (independence multiplications, defaults for parameter markers) — a
  /// simple confidence model. 0 disables the filter.
  int min_assumptions_for_checks = 0;

  ValidityConfig validity;
};

/// Post-optimization pass inserting CHECK operators into a (private,
/// mutable) plan per the paper's placement policy (Section 4):
///   - LC above every SORT/TEMP materialization point and on hash-join
///     builds, guarded by that edge's validity range;
///   - LCEM (CHECK-TEMP pair) on the outer of every NLJN whose outer is
///     not already materialized;
///   - ECB as a streaming check under the LCEM buffer (fails during
///     materialization, before it grows beyond bounds);
///   - ECWC below materialization points;
///   - ECDC streaming checks in pipelined SPJ plans plus an INSERT(S)
///     row tracker at the top for deferred compensation.
/// `query_is_spj` (QuerySpec::pipelined) gates ECDC and the row tracker.
/// Returns per-flavor insertion counts.
PlacementStats PlaceCheckpoints(std::shared_ptr<PlanNode>* root,
                                const PopConfig& config,
                                const CostModel& cost_model,
                                bool query_is_spj);

/// All nodes of `root` carrying an enabled CheckSpec (CHECK nodes and
/// hash joins with build checks), in pre-order. Experiments use this to
/// force specific checkpoints to fail.
std::vector<PlanNode*> CollectChecks(PlanNode* root);

/// Inserts an anti-join compensation marker directly above the topmost
/// canonical (table-set producing) node, suppressing rows already returned
/// in earlier execution steps. The executor builder attaches the actual
/// row multiset.
void InsertCompensation(std::shared_ptr<PlanNode>* root);

}  // namespace popdb

#endif  // POPDB_CORE_PLACEMENT_H_
