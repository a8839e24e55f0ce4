#include "exec/operator.h"

#include <cmath>
#include <limits>

namespace popdb {

const char* CheckFlavorName(CheckFlavor flavor) {
  switch (flavor) {
    case CheckFlavor::kLazy:
      return "LC";
    case CheckFlavor::kLazyEagerMat:
      return "LCEM";
    case CheckFlavor::kEagerBuffered:
      return "ECB";
    case CheckFlavor::kEagerNoCompensation:
      return "ECWC";
    case CheckFlavor::kEagerDeferredComp:
      return "ECDC";
    case CheckFlavor::kWorkBound:
      return "WORKBOUND";
  }
  return "?";
}

bool CheckSpec::Decide(ExecContext* ctx, CheckSite site, int64_t work_first,
                       int64_t count, bool fired, bool exact) const {
  ctx->check_events.push_back(
      {edge_set, flavor, site, work_first, ctx->work, count, fired});
  TRACE_INSTANT_ARG(fired ? "checkpoint_fired" : "checkpoint_evaluated",
                    "exec", "count", count);
  if (!fired || observe_only) return false;
  Raise(ctx, count, exact);
  return true;
}

bool CheckSpec::DecideMaterialized(ExecContext* ctx, CheckSite site,
                                   int64_t count) const {
  if (!enabled) return false;
  const double card = static_cast<double>(count);
  return Decide(ctx, site, ctx->work, count, card < lo || card > hi,
                /*exact=*/true);
}

void CheckSpec::Raise(ExecContext* ctx, int64_t observed, bool exact) const {
  ctx->reopt = {true, edge_set, observed, exact, flavor, lo, hi};
}

int64_t CheckSpec::ClampTarget(int64_t count, int64_t full) const {
  const double stop =
      (hi != std::numeric_limits<double>::infinity() ? std::floor(hi) + 1.0
                                                     : lo) -
      static_cast<double>(count);
  if (stop >= static_cast<double>(full)) return full;
  return stop > 1.0 ? static_cast<int64_t>(stop) : 1;
}

int64_t CheckSpec::ViolatingRow(int64_t before, int64_t n) const {
  if (static_cast<double>(before + n) <= hi) return -1;
  return std::clamp<int64_t>(static_cast<int64_t>(std::floor(hi)) - before, 0,
                             n - 1);
}

ExecStatus RunToCompletion(Operator* root, ExecContext* ctx,
                           std::vector<Row>* out_rows) {
  ExecStatus status = root->Open(ctx);
  if (status == ExecStatus::kOk) {
    RowBatch batch;
    while ((status = root->NextBatch(ctx, &batch)) == ExecStatus::kRow) {
      batch.MoveRowsInto(out_rows);
    }
  }
  root->Close(ctx);
  return status;
}

ExecStatus DrainChildRows(Operator* child, ExecContext* ctx,
                          std::vector<Row>* rows) {
  RowBatch batch;
  ExecStatus s;
  while ((s = child->NextBatch(ctx, &batch)) == ExecStatus::kRow) {
    ctx->work += batch.ActiveRows();
    batch.MoveRowsInto(rows);
  }
  return s;
}

}  // namespace popdb
