// Ablation of the LCEM materialization budget (DESIGN.md decision #4).
// LCEM guards NLJN outers by materializing them — cheap when the outer is
// genuinely small, pure overhead when the optimizer *knew* the outer was
// big and picked an index NLJN anyway. The budget skips LCEMs whose
// estimated TEMP cost exceeds a fraction of the plan cost. This study
// sweeps the fraction over the DMV workload and reports the aggregate
// risk/opportunity tradeoff. Asserted on work units: with LCEM off the
// workload does at least 5x the default budget's work, and the default
// regresses fewer queries than an unlimited budget.

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
  bench::PrintHeader("LCEM materialization-budget ablation",
                     "Section 4 placement restrictions, Markl et al. 2004");
  Catalog catalog;
  POPDB_DCHECK(dmv::BuildCatalog(dmv::GenConfig{}, &catalog).ok());
  const std::vector<QuerySpec> workload = dmv::MakeWorkload();

  // Static baseline per query.
  std::vector<int64_t> static_work;
  for (const QuerySpec& q : workload) {
    ProgressiveExecutor exec(catalog, OptimizerConfig{}, PopConfig{});
    ExecutionStats stats;
    POPDB_DCHECK(exec.ExecuteStatic(q, &stats).ok());
    static_work.push_back(stats.total_work);
  }

  const double kDefaultBudget = PopConfig{}.lcem_budget_fraction;
  const double kUnlimited = 1e9;
  int64_t off_work = 0, default_work = 0;
  int default_regressed = 0, unlimited_regressed = 0;
  TablePrinter tp({"lcem_budget", "total_work", "reopts", "improved",
                   "regressed", "worst_regression"});
  for (const double budget : {0.0, 0.01, kDefaultBudget, 0.2, kUnlimited}) {
    int64_t total = 0;
    int reopts = 0, improved = 0, regressed = 0;
    double worst_regression = 1.0;
    for (size_t i = 0; i < workload.size(); ++i) {
      PopConfig pop;
      pop.lcem_budget_fraction = budget;
      ProgressiveExecutor exec(catalog, OptimizerConfig{}, pop);
      ExecutionStats stats;
      POPDB_DCHECK(exec.Execute(workload[i], &stats).ok());
      total += stats.total_work;
      reopts += stats.reopts;
      const bench::Verdict verdict =
          bench::CompareWork(static_work[i], stats.total_work);
      if (verdict == bench::Verdict::kImproved) ++improved;
      if (verdict == bench::Verdict::kRegressed) {
        ++regressed;
        worst_regression = std::max(
            worst_regression, static_cast<double>(stats.total_work) /
                                  static_cast<double>(static_work[i]));
      }
    }
    if (budget == 0.0) off_work = total;
    if (budget == kDefaultBudget) {
      default_work = total;
      default_regressed = regressed;
    }
    if (budget == kUnlimited) unlimited_regressed = regressed;
    tp.AddRow({budget == kUnlimited ? std::string("unlimited")
                                    : StrFormat("%.2f", budget),
               StrFormat("%lld", static_cast<long long>(total)),
               StrFormat("%d", reopts), StrFormat("%d", improved),
               StrFormat("%d", regressed),
               StrFormat("%.2fx", worst_regression)});
  }
  std::fputs(tp.ToString().c_str(), stdout);
  std::printf(
      "\nbudget 0.00 disables LCEM (fewer re-optimizations, disasters "
      "undetected);\nan unlimited budget materializes every NLJN outer "
      "(more regressions).\nThe default 0.05 keeps the opportunities while "
      "bounding the risk.\n\n");

  const double off_ratio = static_cast<double>(off_work) /
                           static_cast<double>(std::max<int64_t>(1, default_work));
  bench::Claims claims;
  claims.Expect(off_ratio >= 5.0,
                StrFormat("LCEM off does >= 5x the default budget's work "
                          "(%lld vs %lld, %.1fx)",
                          static_cast<long long>(off_work),
                          static_cast<long long>(default_work), off_ratio));
  claims.Expect(default_regressed < unlimited_regressed,
                StrFormat("the default budget regresses fewer queries than "
                          "an unlimited one (%d vs %d)",
                          default_regressed, unlimited_regressed));
  return claims.ExitCode();
}

}  // namespace
}  // namespace popdb

int main() { return popdb::Run(); }
