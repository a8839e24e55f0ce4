// Reproduces Table 1: placement, risk and opportunity of the five
// checkpoint flavors (LC, LCEM, ECB, ECWC, ECDC), measured instead of
// stated. Each flavor runs alone on two workloads:
//   - a correlated-predicate aggregation query (DMV) whose cardinality is
//     underestimated ~50x, and
//   - a pipelined SPJ query (no aggregation), where ECDC can apply.
// For each flavor we report how many checkpoints placement produced
// (opportunity), the overhead of a run where no re-optimization triggers
// (risk, normalized to the plain run), and the effect of letting the
// checks fire (work with POP vs static). Asserted: the per-flavor check
// counts below, and every flavor that places a check beats the static plan
// by more than the ±5% band when its checks are armed.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/pop.h"
#include "dmv/dmv_gen.h"
#include "dmv/dmv_queries.h"

namespace popdb {
namespace {

/// Correlated aggregation query (non-pipelined).
QuerySpec MakeAggQuery() {
  QuerySpec q("flavors_agg");
  const int car = q.AddTable("car");
  const int owner = q.AddTable("owner");
  const int reg = q.AddTable("registration");
  q.AddJoin({car, dmv::Car::kOwnerId}, {owner, dmv::Owner::kId});
  q.AddJoin({reg, dmv::Registration::kCarId}, {car, dmv::Car::kId});
  const int64_t model = 555;
  q.AddPred({car, dmv::Car::kMake}, PredKind::kEq,
            Value::Int(model / dmv::kModelsPerMake));
  q.AddPred({car, dmv::Car::kModel}, PredKind::kEq, Value::Int(model));
  q.AddPred({car, dmv::Car::kWeight}, PredKind::kEq,
            Value::Int(model % dmv::kNumWeights));
  q.AddGroupBy({owner, dmv::Owner::kState});
  q.AddAgg(AggFunc::kCount);
  return q;
}

/// Correlated SPJ query (pipelined; ECDC-eligible).
QuerySpec MakeSpjQuery() {
  QuerySpec q("flavors_spj");
  const int car = q.AddTable("car");
  const int owner = q.AddTable("owner");
  const int reg = q.AddTable("registration");
  q.AddJoin({car, dmv::Car::kOwnerId}, {owner, dmv::Owner::kId});
  q.AddJoin({reg, dmv::Registration::kCarId}, {car, dmv::Car::kId});
  const int64_t model = 321;
  q.AddPred({car, dmv::Car::kMake}, PredKind::kEq,
            Value::Int(model / dmv::kModelsPerMake));
  q.AddPred({car, dmv::Car::kModel}, PredKind::kEq, Value::Int(model));
  q.AddPred({car, dmv::Car::kColor}, PredKind::kEq,
            Value::Int((model * 7) % dmv::kNumColors));
  q.AddProjection({owner, dmv::Owner::kName});
  q.AddProjection({reg, dmv::Registration::kYear});
  return q;
}

PopConfig FlavorConfig(int flavor) {
  PopConfig pop;
  pop.enable_lc = flavor == 0;
  pop.enable_lcem = flavor == 1;
  pop.enable_ecb = flavor == 2;
  pop.enable_ecwc = flavor == 3;
  pop.enable_ecdc = flavor == 4;
  return pop;
}

const char* kFlavorNames[5] = {"LC", "LCEM", "ECB", "ECWC", "ECDC"};

/// What one workload shows: the checks placed per flavor, as
/// "LC/LCEM/ECB/ECWC/ECDC" counts, and whether every flavor that placed a
/// check beat the static plan by more than the ±5% band when armed.
struct WorkloadOutcome {
  std::string placed;
  bool placed_improve = true;
};

WorkloadOutcome RunWorkload(const char* label, const QuerySpec& query,
                            const Catalog& catalog, TablePrinter* tp) {
  ProgressiveExecutor plain(catalog, OptimizerConfig{}, PopConfig{});
  ExecutionStats base;
  Result<std::vector<Row>> base_rows = plain.ExecuteStatic(query, &base);
  POPDB_DCHECK(base_rows.ok());

  WorkloadOutcome out;
  for (int flavor = 0; flavor < 5; ++flavor) {
    // Risk: run with checkpoints that never fire (observation mode).
    PopConfig observe = FlavorConfig(flavor);
    observe.observe_only = true;
    ProgressiveExecutor obs_exec(catalog, OptimizerConfig{}, observe);
    ExecutionStats obs;
    Result<std::vector<Row>> obs_rows = obs_exec.Execute(query, &obs);
    POPDB_DCHECK(obs_rows.ok());
    POPDB_DCHECK(obs_rows.value().size() == base_rows.value().size());

    // Opportunity/benefit: run with the checks armed.
    ProgressiveExecutor pop_exec(catalog, OptimizerConfig{},
                                 FlavorConfig(flavor));
    ExecutionStats pop;
    Result<std::vector<Row>> pop_rows = pop_exec.Execute(query, &pop);
    POPDB_DCHECK(pop_rows.ok());
    POPDB_DCHECK(pop_rows.value().size() == base_rows.value().size());

    const int placed = obs.attempts.empty() ? 0 : obs.attempts[0].checks.total();
    out.placed += StrFormat("%s%d", flavor == 0 ? "" : "/", placed);
    if (placed > 0 && bench::CompareWork(base.total_work, pop.total_work) !=
                          bench::Verdict::kImproved) {
      out.placed_improve = false;
    }
    tp->AddRow(
        {label, kFlavorNames[flavor], StrFormat("%d", placed),
         StrFormat("%.3f", static_cast<double>(obs.total_work) /
                               static_cast<double>(base.total_work)),
         StrFormat("%d", pop.reopts),
         StrFormat("%.2f", static_cast<double>(base.total_work) /
                               static_cast<double>(
                                   std::max<int64_t>(1, pop.total_work)))});
  }
  return out;
}

void ExpectWorkload(const char* label, const WorkloadOutcome& got,
                    const char* expected_placed, bench::Claims* claims) {
  claims->Expect(got.placed == expected_placed,
                 StrFormat("%s: checks placed per flavor (LC/LCEM/ECB/ECWC/"
                           "ECDC) %s, expected %s",
                           label, got.placed.c_str(), expected_placed));
  claims->Expect(got.placed_improve,
                 StrFormat("%s: every flavor that places a check improves "
                           "on the static plan when armed",
                           label));
}

int Run() {
  bench::PrintHeader(
      "Checkpoint flavors: placement opportunity, risk and benefit",
      "Table 1 of Markl et al., SIGMOD 2004");
  Catalog catalog;
  POPDB_DCHECK(dmv::BuildCatalog(dmv::GenConfig{}, &catalog).ok());

  TablePrinter tp({"workload", "flavor", "checks_placed", "no_reopt_overhead",
                   "reopts", "speedup_vs_static"});
  const WorkloadOutcome agg =
      RunWorkload("agg (non-pipelined)", MakeAggQuery(), catalog, &tp);
  const WorkloadOutcome spj =
      RunWorkload("SPJ (pipelined)", MakeSpjQuery(), catalog, &tp);
  std::fputs(tp.ToString().c_str(), stdout);
  std::printf(
      "\nReading guide (matches Table 1): LC is nearly free but only\n"
      "applies at materialization points; LCEM adds a small TEMP overhead\n"
      "but guards NLJN outers; ECB reacts before materialization\n"
      "completes; ECWC needs a materialization above it; ECDC applies in\n"
      "pipelined SPJ plans and compensates returned rows with an\n"
      "anti-join.\n\n");

  // These NLJN-only plans have no SORT/TEMP, so LC and ECWC find no site;
  // ECDC needs a pipelined plan.
  bench::Claims claims;
  ExpectWorkload("agg", agg, "0/2/2/0/0", &claims);
  ExpectWorkload("SPJ", spj, "0/2/2/0/1", &claims);
  return claims.ExitCode();
}

}  // namespace
}  // namespace popdb

int main() { return popdb::Run(); }
