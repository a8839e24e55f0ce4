#include "opt/query.h"

#include "common/string_util.h"

namespace popdb {

int QuerySpec::AddTable(const std::string& table_name) {
  tables_.push_back(table_name);
  return static_cast<int>(tables_.size()) - 1;
}

int QuerySpec::PushPred(Predicate p) {
  const int id = static_cast<int>(local_preds_.size());
  p.pred_id = id;
  if (p.col.table_id >= 0) {
    const size_t t = static_cast<size_t>(p.col.table_id);
    if (preds_on_table_.size() <= t) preds_on_table_.resize(t + 1);
    preds_on_table_[t].push_back(id);
  }
  local_preds_.push_back(std::move(p));
  return id;
}

int QuerySpec::AddPred(ColRef col, PredKind kind, Value operand,
                       Value operand2) {
  Predicate p;
  p.col = col;
  p.kind = kind;
  p.operand = std::move(operand);
  p.operand2 = std::move(operand2);
  return PushPred(std::move(p));
}

int QuerySpec::AddInPred(ColRef col, std::vector<Value> in_list) {
  Predicate p;
  p.col = col;
  p.kind = PredKind::kIn;
  p.in_list = std::move(in_list);
  return PushPred(std::move(p));
}

int QuerySpec::AddParamPred(ColRef col, PredKind kind, int param_index) {
  Predicate p;
  p.col = col;
  p.kind = kind;
  p.is_param = true;
  p.param_index = param_index;
  return PushPred(std::move(p));
}

void QuerySpec::AddJoin(ColRef left, ColRef right) {
  join_preds_.push_back(JoinPredicate{left, right});
}

const std::vector<int>& QuerySpec::PredsOnTable(int table_id) const {
  static const std::vector<int> kNone;
  const size_t t = static_cast<size_t>(table_id);
  return table_id >= 0 && t < preds_on_table_.size() ? preds_on_table_[t]
                                                     : kNone;
}

std::string QuerySpec::ToString() const {
  std::string out = StrFormat("QUERY %s\n  FROM ", name_.c_str());
  std::vector<std::string> names;
  for (size_t i = 0; i < tables_.size(); ++i) {
    names.push_back(StrFormat("%s t%zu", tables_[i].c_str(), i));
  }
  out += StrJoin(names, ", ");
  out += "\n  WHERE ";
  std::vector<std::string> conds;
  for (const Predicate& p : local_preds_) conds.push_back(p.ToString());
  for (const JoinPredicate& j : join_preds_) conds.push_back(j.ToString());
  out += StrJoin(conds, " AND ");
  if (!group_by_.empty()) {
    out += "\n  GROUP BY ";
    std::vector<std::string> gb;
    for (const ColRef& c : group_by_) {
      gb.push_back(StrFormat("t%d.c%d", c.table_id, c.column));
    }
    out += StrJoin(gb, ", ");
  }
  out += "\n";
  return out;
}

}  // namespace popdb
