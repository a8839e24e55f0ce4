// Reproduces Figure 11: robustness of TPC-H Q10 under selectivity
// misestimation. The LINEITEM predicate "l_sel < ?" sweeps the actual
// selectivity from 0 to 100% while a parameter marker hides the literal
// from the optimizer, which therefore plans for a constant default
// selectivity. Three modes are compared:
//   (a) default estimate + POP      -- checkpoints re-optimize mid-query,
//   (b) default estimate, no POP    -- the paper's suboptimal static plan,
//   (c) correct estimate (literal)  -- the optimal reference plan.
// The paper's shape, asserted on work units: (b) degrades severely away
// from the default point; (a) stays within ~2x of (c) across the range.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/pop.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace popdb {
namespace {

OptimizerConfig MakeOptConfig() {
  OptimizerConfig opt;
  // The paper's DBMS used a selective constant default for the parameter
  // marker, leading it to a nested-loop-heavy plan; mirror that.
  opt.estimator.default_range_selectivity = 0.01;
  opt.cost.mem_rows = 8000;
  return opt;
}

int Run() {
  bench::PrintHeader("TPC-H Q10 robustness sweep",
                     "Figure 11 of Markl et al., SIGMOD 2004");
  Catalog catalog;
  POPDB_DCHECK(tpch::BuildCatalog(tpch::GenConfig{}, &catalog).ok());

  TablePrinter tp({"actual_sel_%", "pop_work", "static_work", "optimal_work",
                   "pop_ms", "static_ms", "optimal_ms", "reopts",
                   "static/opt", "pop/opt", "optimal_plan"});
  double max_pop_ratio = 0, max_static_ratio = 0;

  for (int sel = 0; sel <= 100; sel += 10) {
    // (a) POP with parameter marker.
    QuerySpec q_marker = tpch::MakeQ10Selectivity(sel, /*use_marker=*/true);
    ProgressiveExecutor pop(catalog, MakeOptConfig(), PopConfig{});
    ExecutionStats pop_stats;
    Result<std::vector<Row>> pop_rows = pop.Execute(q_marker, &pop_stats);
    POPDB_DCHECK(pop_rows.ok());

    // (b) Static plan with parameter marker.
    ExecutionStats static_stats;
    Result<std::vector<Row>> static_rows =
        pop.ExecuteStatic(q_marker, &static_stats);
    POPDB_DCHECK(static_rows.ok());

    // (c) Static plan with the correct literal.
    QuerySpec q_literal = tpch::MakeQ10Selectivity(sel, /*use_marker=*/false);
    ExecutionStats opt_stats;
    Result<std::vector<Row>> opt_rows =
        pop.ExecuteStatic(q_literal, &opt_stats);
    POPDB_DCHECK(opt_rows.ok());
    POPDB_DCHECK(pop_rows.value().size() == static_rows.value().size());
    POPDB_DCHECK(pop_rows.value().size() == opt_rows.value().size());

    Result<OptimizedPlan> opt_plan = pop.Plan(q_literal);
    POPDB_DCHECK(opt_plan.ok());

    const double optimal = static_cast<double>(opt_stats.total_work);
    const double pop_ratio = static_cast<double>(pop_stats.total_work) /
                             optimal;
    const double static_ratio =
        static_cast<double>(static_stats.total_work) / optimal;
    max_pop_ratio = std::max(max_pop_ratio, pop_ratio);
    max_static_ratio = std::max(max_static_ratio, static_ratio);

    tp.AddRow({StrFormat("%d", sel),
               StrFormat("%lld", static_cast<long long>(pop_stats.total_work)),
               StrFormat("%lld",
                         static_cast<long long>(static_stats.total_work)),
               StrFormat("%lld", static_cast<long long>(opt_stats.total_work)),
               StrFormat("%.1f", pop_stats.total_ms),
               StrFormat("%.1f", static_stats.total_ms),
               StrFormat("%.1f", opt_stats.total_ms),
               StrFormat("%d", pop_stats.reopts),
               StrFormat("%.2f", static_ratio), StrFormat("%.2f", pop_ratio),
               bench::JoinShape(*opt_plan.value().root)});
  }
  std::fputs(tp.ToString().c_str(), stdout);
  std::printf(
      "\nNote: 'work' counts rows touched (deterministic, machine\n"
      "independent); ms is wall clock and is not asserted. The paper\n"
      "reports (b) up to ~4x the optimal plan and POP within ~2x across the\n"
      "sweep; the optimal plan changes as selectivity grows (Section 5.1).\n\n");

  bench::Claims claims;
  claims.Expect(max_pop_ratio <= 2.1,
                StrFormat("POP/optimal work <= 2.1 at every point (max %.2f)",
                          max_pop_ratio));
  claims.Expect(max_static_ratio >= 2.0,
                StrFormat("static/optimal work reaches >= 2 (max %.2f)",
                          max_static_ratio));
  return claims.ExitCode();
}

}  // namespace
}  // namespace popdb

int main() { return popdb::Run(); }
