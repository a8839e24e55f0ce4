// Reproduces Figure 14: opportunities for the various kinds of
// checkpoints. Checkpoints of every low/medium-risk flavor (LC above
// SORT/TEMP, LC on hash-join builds, LCEM, ECB) are placed in observation
// mode, the queries are executed to completion, and each checkpoint
// reports at which fraction of total query work it was evaluated. ECB
// checkpoints report a [first-row .. decision] window (the dashed ranges
// in the paper's scatter plot). Asserted: LC checkpoints above hash-join
// builds occur, and most evaluations come before 15% of the work.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/pop.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace popdb {
namespace {

const char* SiteName(const CheckEvent& ev) {
  switch (ev.site) {
    case CheckSite::kHsjnBuild:
      return "LC (above HJ build)";
    case CheckSite::kMatPoint:
      return "LC (above TMP/SORT)";
    case CheckSite::kNljnOuter:
      return ev.flavor == CheckFlavor::kEagerBuffered ? "ECB" : "LCEM";
    case CheckSite::kPipeline:
      return "EC (pipeline)";
  }
  return "?";
}

int Run() {
  bench::PrintHeader("Checkpoint opportunities during query execution",
                     "Figure 14 of Markl et al., SIGMOD 2004");
  Catalog catalog;
  POPDB_DCHECK(tpch::BuildCatalog(tpch::GenConfig{}, &catalog).ok());

  TablePrinter tp({"query", "checkpoint", "frac_first", "frac_eval",
                   "rows_seen"});
  int evaluations = 0, early = 0;
  std::string hj_build_queries;

  for (int qnum : {2, 3, 4, 5, 7, 8, 11, 18}) {
    const QuerySpec query = tpch::MakeQuery(qnum);
    OptimizerConfig opt;
    PopConfig pop;
    pop.enable_lc = true;
    pop.enable_lcem = true;
    pop.enable_ecb = true;
    pop.observe_only = true;
    pop.require_narrowed_range = false;  // Observe every placement site.

    ProgressiveExecutor exec(catalog, opt, pop);
    ExecutionStats stats;
    Result<std::vector<Row>> rows = exec.Execute(query, &stats);
    POPDB_DCHECK(rows.ok());

    const double total = static_cast<double>(stats.total_work);
    for (const CheckEvent& ev : stats.check_events) {
      const double f_first =
          ev.work_first < 0 ? -1.0 : static_cast<double>(ev.work_first) / total;
      const double f_eval = static_cast<double>(ev.work_eval) / total;
      ++evaluations;
      if (f_eval < 0.15) ++early;
      if (ev.site == CheckSite::kHsjnBuild) {
        hj_build_queries += StrFormat(" Q%d", qnum);
      }
      tp.AddRow({StrFormat("Q%d", qnum), SiteName(ev),
                 f_first < 0 ? std::string("-") : StrFormat("%.3f", f_first),
                 StrFormat("%.3f", f_eval),
                 StrFormat("%lld", static_cast<long long>(ev.count))});
    }
  }
  std::fputs(tp.ToString().c_str(), stdout);
  std::printf(
      "\n'frac_eval' is the fraction of total query work completed when the\n"
      "checkpoint made its decision (the y-axis of the paper's scatter\n"
      "plot); ECB rows additionally show the fraction at which buffering\n"
      "began ('frac_first') — the dashed opportunity windows.\n\n");

  bench::Claims claims;
  claims.Expect(!hj_build_queries.empty(),
                StrFormat("an LC above a hash-join build appears (in%s)",
                          hj_build_queries.empty() ? " none"
                                                   : hj_build_queries.c_str()));
  claims.Expect(2 * early > evaluations,
                StrFormat("most evaluations come before 15%% of the work "
                          "(%d of %d)",
                          early, evaluations));
  return claims.ExitCode();
}

}  // namespace
}  // namespace popdb

int main() { return popdb::Run(); }
