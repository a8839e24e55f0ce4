#include "exec/agg.h"

namespace popdb {

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

HashAggOp::HashAggOp(std::unique_ptr<Operator> child,
                     std::vector<int> group_pos,
                     std::vector<ResolvedAgg> aggs)
    : Operator(0),
      child_(std::move(child)),
      group_pos_(std::move(group_pos)),
      aggs_(std::move(aggs)) {}

void HashAggOp::AccumulateFromBatch(const RowBatch& batch,
                                    GroupMap* groups) const {
  const int64_t n = batch.ActiveRows();
  for (int64_t i = 0; i < n; ++i) {
    Row key;
    key.reserve(group_pos_.size());
    for (int pos : group_pos_) key.push_back(batch.At(pos, i));
    std::vector<AggState>& states = (*groups)[std::move(key)];
    if (states.empty()) states.resize(aggs_.size());
    for (size_t a = 0; a < aggs_.size(); ++a) {
      AggState& st = states[a];
      ++st.count;
      if (aggs_[a].func == AggFunc::kCount) continue;
      const Value& v = batch.At(aggs_[a].pos, i);
      if (v.is_null()) continue;
      if (aggs_[a].func == AggFunc::kSum || aggs_[a].func == AggFunc::kAvg) {
        st.sum += v.AsNumeric();
      }
      if (st.min.is_null() || v < st.min) st.min = v;
      if (st.max.is_null() || v > st.max) st.max = v;
    }
  }
}

void HashAggOp::EmitResults(GroupMap* groups) {
  results_.reserve(groups->size());
  for (auto& [key, states] : *groups) {
    Row out = key;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const AggState& st = states[a];
      switch (aggs_[a].func) {
        case AggFunc::kCount:
          out.push_back(Value::Int(st.count));
          break;
        case AggFunc::kSum:
          out.push_back(Value::Double(st.sum));
          break;
        case AggFunc::kAvg:
          out.push_back(Value::Double(
              st.count == 0 ? 0.0 : st.sum / static_cast<double>(st.count)));
          break;
        case AggFunc::kMin:
          out.push_back(st.min);
          break;
        case AggFunc::kMax:
          out.push_back(st.max);
          break;
      }
    }
    results_.push_back(std::move(out));
  }
  next_ = 0;
}

ExecStatus HashAggOp::OpenImpl(ExecContext* ctx) {
  results_.clear();
  next_ = 0;
  ExecStatus s = child_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  GroupMap groups;
  RowBatch batch;
  while (true) {
    if (ctx->CancelPending()) return ExecStatus::kCancelled;
    s = child_->NextBatch(ctx, &batch);
    if (s == ExecStatus::kEof) break;
    if (s != ExecStatus::kRow) return s;
    ctx->work += batch.ActiveRows();
    AccumulateFromBatch(batch, &groups);
  }
  child_->Close(ctx);
  EmitResults(&groups);
  return ExecStatus::kOk;
}

ExecStatus HashAggOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  const int64_t target = BatchTarget(
      ctx, results_.empty() ? 0 : static_cast<int>(results_.front().size()));
  out->Clear();
  while (next_ < results_.size() && out->num_rows < target) {
    ++ctx->work;
    out->AppendRow(results_[next_++]);
  }
  return out->num_rows > 0 ? ExecStatus::kRow : ExecStatus::kEof;
}

void HashAggOp::CloseImpl(ExecContext* ctx) { child_->Close(ctx); }

}  // namespace popdb
