// Reproduces Figures 15 and 16: DMV response times with and without POP
// (Fig. 15's scatter) and, from the same runs, each query's speedup (+)
// or regression (-) factor (Fig. 16's bars). 39 synthetic
// decision-support queries run against the correlated DMV database; many
// of their CAR predicates restrict functionally dependent columns, so the
// independence-assuming optimizer underestimates cardinalities by orders
// of magnitude and picks nested-loop plans that scan unindexed inners.
// POP detects the violations and re-optimizes. The paper reports 22
// improved / 17 regressed queries, speedups approaching two orders of
// magnitude and a worst regression factor of about 5. Asserted on work
// units: best speedup >= 50x, worst regression <= 2x, at most 3 re-opts
// per query, and more improved queries than regressed ones.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/pop.h"
#include "dmv/dmv_gen.h"
#include "dmv/dmv_queries.h"

namespace popdb {
namespace {

int Run() {
  bench::PrintHeader("DMV workload: response time and speedup with vs. "
                     "without POP",
                     "Figures 15 and 16 of Markl et al., SIGMOD 2004");
  Catalog catalog;
  POPDB_DCHECK(dmv::BuildCatalog(dmv::GenConfig{}, &catalog).ok());
  const std::vector<QuerySpec> workload = dmv::MakeWorkload();

  TablePrinter tp({"query", "static_work", "pop_work", "factor", "static_ms",
                   "pop_ms", "reopts", "verdict"});
  int improved = 0, regressed = 0, unchanged = 0, max_reopts = 0;
  double max_speedup = 0, max_regression = 0;
  double max_static_ms = 0, max_pop_ms = 0;
  std::vector<int64_t> static_work;

  for (const QuerySpec& query : workload) {
    ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});
    ExecutionStats sstat;
    Result<std::vector<Row>> srows = exec.ExecuteStatic(query, &sstat);
    POPDB_DCHECK(srows.ok());
    ExecutionStats pstat;
    Result<std::vector<Row>> prows = exec.Execute(query, &pstat);
    POPDB_DCHECK(prows.ok());
    POPDB_DCHECK(srows.value().size() == prows.value().size());
    static_work.push_back(sstat.total_work);

    const bench::Verdict verdict =
        bench::CompareWork(sstat.total_work, pstat.total_work);
    if (verdict == bench::Verdict::kImproved) ++improved;
    if (verdict == bench::Verdict::kRegressed) ++regressed;
    if (verdict == bench::Verdict::kUnchanged) ++unchanged;

    // Speedup factor (positive) or regression factor (negative), as in
    // the paper's Fig. 16 bar chart.
    const double s = static_cast<double>(sstat.total_work);
    const double p =
        static_cast<double>(std::max<int64_t>(1, pstat.total_work));
    const double factor = s >= p ? s / p : -(p / s);
    if (factor > 0) {
      max_speedup = std::max(max_speedup, factor);
    } else {
      max_regression = std::max(max_regression, -factor);
    }
    max_reopts = std::max(max_reopts, pstat.reopts);
    max_static_ms = std::max(max_static_ms, sstat.total_ms);
    max_pop_ms = std::max(max_pop_ms, pstat.total_ms);

    tp.AddRow({query.name(),
               StrFormat("%lld", static_cast<long long>(sstat.total_work)),
               StrFormat("%lld", static_cast<long long>(pstat.total_work)),
               StrFormat("%+.2f", factor), StrFormat("%.1f", sstat.total_ms),
               StrFormat("%.1f", pstat.total_ms),
               StrFormat("%d", pstat.reopts), bench::VerdictName(verdict)});
  }
  std::fputs(tp.ToString().c_str(), stdout);
  std::printf(
      "\nsummary: %d improved, %d regressed, %d unchanged (paper: 22 "
      "improved, 17 regressed)\n",
      improved, regressed, unchanged);
  std::printf(
      "max speedup %.1fx, max regression %.2fx (paper: ~90x speedup, ~5x "
      "regression)\n",
      max_speedup, max_regression);
  std::printf(
      "longest query: %.0f ms without POP vs %.0f ms with POP (paper: >20 "
      "min vs <5 min; wall time, not asserted)\n",
      max_static_ms, max_pop_ms);

  // The paper's prototype deliberately re-optimized over-eagerly ("a
  // generous cost model for re-optimization"), producing 17 regressions.
  // Emulate that posture by tightening every check range to a third of
  // its validity range and compare the improved/regressed split.
  int eager_improved = 0, eager_regressed = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    PopConfig pop;
    pop.check_safety_factor = 0.33;  // Fires inside the validity range.
    ProgressiveExecutor exec(catalog, OptimizerConfig{}, pop);
    ExecutionStats pstat;
    POPDB_DCHECK(exec.Execute(workload[i], &pstat).ok());
    const bench::Verdict verdict =
        bench::CompareWork(static_work[i], pstat.total_work);
    if (verdict == bench::Verdict::kImproved) ++eager_improved;
    if (verdict == bench::Verdict::kRegressed) ++eager_regressed;
  }
  std::printf(
      "over-eager posture (check ranges tightened 3x, emulating the "
      "paper's prototype): %d improved, %d regressed\n"
      "(spurious firings barely regress here because the re-plan reuses "
      "the materialized\nresult and confirms the estimates — the MV-reuse "
      "design absorbs the paper's\nover-eagerness risk)\n\n",
      eager_improved, eager_regressed);

  bench::Claims claims;
  claims.Expect(max_speedup >= 50.0,
                StrFormat("best speedup >= 50x (%.1fx)", max_speedup));
  claims.Expect(max_regression <= 2.0,
                StrFormat("worst regression <= 2x (%.2fx)", max_regression));
  claims.Expect(max_reopts <= 3,
                StrFormat("at most 3 re-opts per query (max %d)", max_reopts));
  claims.Expect(improved > regressed,
                StrFormat("more queries improved than regressed (%d vs %d)",
                          improved, regressed));
  claims.Expect(eager_improved > eager_regressed,
                StrFormat("over-eager posture still improves more queries "
                          "than it regresses (%d vs %d)",
                          eager_improved, eager_regressed));
  return claims.ExitCode();
}

}  // namespace
}  // namespace popdb

int main() { return popdb::Run(); }
