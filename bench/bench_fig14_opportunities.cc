// Reproduces Figure 14: opportunities for the various kinds of
// checkpoints. Checkpoints of every low/medium-risk flavor (LC above
// SORT/TEMP, LC on hash-join builds, LCEM, ECB) are placed in observation
// mode, the queries are executed to completion, and each checkpoint
// reports at which fraction of total query work it was evaluated. ECB
// checkpoints report a [first-row .. decision] window (the dashed ranges
// in the paper's scatter plot). Asserted: LC checkpoints above hash-join
// builds occur, most evaluations come before 15% of the work, and every
// query's checkpoint evaluations (site, flavor, edge, first-row and
// decision work, rows seen) are the same at batch sizes 1, 3 and 1024.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/pop.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace popdb {
namespace {

/// What Fig. 14 reads of one checkpoint evaluation.
std::string EventKey(const CheckEvent& ev) {
  return StrFormat("site %d flavor %d edge %llu first %lld eval %lld "
                   "count %lld",
                   static_cast<int>(ev.site), static_cast<int>(ev.flavor),
                   static_cast<unsigned long long>(ev.edge_set),
                   static_cast<long long>(ev.work_first),
                   static_cast<long long>(ev.work_eval),
                   static_cast<long long>(ev.count));
}

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
  std::string batch_dependent;

  for (int qnum : {2, 3, 4, 5, 7, 8, 11, 18}) {
    const QuerySpec query = tpch::MakeQuery(qnum);
    OptimizerConfig opt;
    PopConfig pop;
    pop.enable_lc = true;
    pop.enable_lcem = true;
    pop.enable_ecb = true;
    pop.observe_only = true;
    pop.require_narrowed_range = false;  // Observe every placement site.

    // The windows must not depend on the batch size: batch size 1 is row
    // granularity, and the table shows its run.
    ExecutionStats stats;
    std::vector<std::string> batch1_events;
    for (int64_t batch_rows : {1, 3, 1024}) {
      ProgressiveExecutor exec(catalog, opt, pop);
      exec.set_batch_rows(batch_rows);
      ExecutionStats run;
      Result<std::vector<Row>> rows = exec.Execute(query, &run);
      POPDB_DCHECK(rows.ok());
      std::vector<std::string> events;
      for (const CheckEvent& ev : run.check_events) {
        events.push_back(EventKey(ev));
      }
      if (batch_rows == 1) {
        stats = run;
        batch1_events = events;
      } else if (events != batch1_events) {
        batch_dependent += StrFormat(" Q%d@%lld", qnum,
                                     static_cast<long long>(batch_rows));
      }
    }

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
  claims.Expect(batch_dependent.empty(),
                StrFormat("every checkpoint evaluation is the same at batch "
                          "sizes 1, 3 and 1024 (differs:%s)",
                          batch_dependent.empty() ? " none"
                                                  : batch_dependent.c_str()));
  return claims.ExitCode();
}

}  // namespace
}  // namespace popdb

int main() { return popdb::Run(); }
