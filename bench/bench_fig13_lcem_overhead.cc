// Reproduces Figure 13: cost of lazy checking with eager materialization
// (LCEM). All join methods are enabled; a CHECK-TEMP pair is proactively
// added on the outer of every NLJN; re-optimization never triggers
// (observation mode). The overhead of the artificial materializations is
// reported normalized to the plain execution — the paper's hypothesis is
// that when the optimizer picks NLJN, the outer is small, so materializing
// it is nearly free (reported <= 1.03).
//
// Asserted bounds: overhead <= 1.06 on Q3/Q4/Q7/Q9 and <= 1.30 on Q5,
// whose five nested LCEMs pile onto the cheapest plan of the set (4.8k
// work units) — the case the paper's threshold-based placement
// restrictions exist to avoid.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/pop.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace popdb {
namespace {

int Run() {
  bench::PrintHeader("Cost of LCEM (CHECK-TEMP on every NLJN outer)",
                     "Figure 13 of Markl et al., SIGMOD 2004");
  Catalog catalog;
  POPDB_DCHECK(tpch::BuildCatalog(tpch::GenConfig{}, &catalog).ok());

  TablePrinter tp({"query", "plain_work", "lcem_work", "overhead",
                   "lcem_checks", "plain_ms", "lcem_ms"});
  double max_overhead = 0, q5_overhead = 0;
  int lcem_checks = 0;

  for (int qnum : {3, 4, 5, 7, 9}) {
    const QuerySpec query = tpch::MakeQuery(qnum);
    OptimizerConfig opt;

    ProgressiveExecutor exec(catalog, opt, PopConfig{});
    ExecutionStats plain;
    Result<std::vector<Row>> plain_rows = exec.ExecuteStatic(query, &plain);
    POPDB_DCHECK(plain_rows.ok());

    PopConfig pop;
    pop.enable_lc = false;  // Isolate the LCEM materialization overhead.
    pop.enable_lcem = true;
    pop.require_narrowed_range = false;  // "on the outer of every NLJN".
    pop.observe_only = true;
    ProgressiveExecutor lcem_exec(catalog, opt, pop);
    ExecutionStats lcem;
    Result<std::vector<Row>> lcem_rows = lcem_exec.Execute(query, &lcem);
    POPDB_DCHECK(lcem_rows.ok());
    POPDB_DCHECK(lcem_rows.value().size() == plain_rows.value().size());

    const double overhead = static_cast<double>(lcem.total_work) /
                            static_cast<double>(plain.total_work);
    const int checks = lcem.attempts.empty() ? 0 : lcem.attempts[0].checks.lcem;
    lcem_checks += checks;
    if (qnum == 5) {
      q5_overhead = overhead;
    } else {
      max_overhead = std::max(max_overhead, overhead);
    }
    tp.AddRow({StrFormat("Q%d", qnum),
               StrFormat("%lld", static_cast<long long>(plain.total_work)),
               StrFormat("%lld", static_cast<long long>(lcem.total_work)),
               StrFormat("%.4f", overhead), StrFormat("%d", checks),
               StrFormat("%.1f", plain.total_ms),
               StrFormat("%.1f", lcem.total_ms)});
  }
  std::fputs(tp.ToString().c_str(), stdout);
  std::printf(
      "\n'overhead' is LCEM work / plain work (paper: 1.00-1.03, validating\n"
      "that NLJN outers are small enough to materialize aggressively).\n\n");

  bench::Claims claims;
  claims.Expect(lcem_checks > 0,
                StrFormat("LCEM guards NLJN outers (%d checks placed)",
                          lcem_checks));
  claims.Expect(max_overhead <= 1.06,
                StrFormat("LCEM overhead <= 1.06 on Q3/Q4/Q7/Q9 (max %.4f)",
                          max_overhead));
  claims.Expect(q5_overhead <= 1.30,
                StrFormat("LCEM overhead <= 1.30 on Q5 (%.4f)", q5_overhead));
  return claims.ExitCode();
}

}  // namespace
}  // namespace popdb

int main() { return popdb::Run(); }
