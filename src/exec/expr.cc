#include "exec/expr.h"

#include "common/status.h"
#include "common/string_util.h"

namespace popdb {

const char* PredKindName(PredKind kind) {
  switch (kind) {
    case PredKind::kEq:
      return "=";
    case PredKind::kNe:
      return "<>";
    case PredKind::kLt:
      return "<";
    case PredKind::kLe:
      return "<=";
    case PredKind::kGt:
      return ">";
    case PredKind::kGe:
      return ">=";
    case PredKind::kBetween:
      return "BETWEEN";
    case PredKind::kIn:
      return "IN";
    case PredKind::kLike:
      return "LIKE";
  }
  return "?";
}

std::string Predicate::ToString() const {
  std::string rhs;
  if (is_param) {
    rhs = StrFormat("?%d", param_index);
  } else if (kind == PredKind::kBetween) {
    rhs = operand.ToString() + " AND " + operand2.ToString();
  } else if (kind == PredKind::kIn) {
    std::vector<std::string> parts;
    for (const Value& v : in_list) parts.push_back(v.ToString());
    rhs = "(" + StrJoin(parts, ", ") + ")";
  } else {
    rhs = operand.ToString();
  }
  return StrFormat("t%d.c%d %s %s", col.table_id, col.column,
                   PredKindName(kind), rhs.c_str());
}

std::string JoinPredicate::ToString() const {
  return StrFormat("t%d.c%d = t%d.c%d", left.table_id, left.column,
                   right.table_id, right.column);
}

bool EvalPredicate(const ResolvedPredicate& pred, const Row& row) {
  return EvalPredicateValue(pred, row[static_cast<size_t>(pred.pos)]);
}

bool EvalPredicateValue(const ResolvedPredicate& pred, const Value& v) {
  if (v.is_null()) return false;
  if (pred.kind != PredKind::kIn &&
      (pred.operand.is_null() ||
       (pred.kind == PredKind::kBetween && pred.operand2.is_null()))) {
    return false;
  }
  switch (pred.kind) {
    case PredKind::kEq:
      return v == pred.operand;
    case PredKind::kNe:
      return v != pred.operand;
    case PredKind::kLt:
      return v < pred.operand;
    case PredKind::kLe:
      return v <= pred.operand;
    case PredKind::kGt:
      return v > pred.operand;
    case PredKind::kGe:
      return v >= pred.operand;
    case PredKind::kBetween:
      return v >= pred.operand && v <= pred.operand2;
    case PredKind::kIn:
      for (const Value& candidate : pred.in_list) {
        if (v == candidate) return true;
      }
      return false;
    case PredKind::kLike:
      return v.type() == ValueType::kString &&
             pred.operand.type() == ValueType::kString &&
             LikeMatch(v.AsString(), pred.operand.AsString());
  }
  return false;
}

void EvalPredicateColumn(const ResolvedPredicate& pred,
                         const std::vector<Value>& col,
                         std::vector<int32_t>* sel) {
  size_t kept = 0;
  for (const int32_t r : *sel) {
    if (EvalPredicateValue(pred, col[static_cast<size_t>(r)])) {
      (*sel)[kept++] = r;
    }
  }
  sel->resize(kept);
}

namespace {

/// Value::Compare's sign for two cells of one domain; NaN is neither below
/// nor above anything.
template <typename T>
int Cmp3(T a, T b) {
  return static_cast<int>(a > b) - static_cast<int>(a < b);
}

bool CmpHolds(PredKind op, int cmp) {
  switch (op) {
    case PredKind::kEq:
      return cmp == 0;
    case PredKind::kNe:
      return cmp != 0;
    case PredKind::kLt:
      return cmp < 0;
    case PredKind::kLe:
      return cmp <= 0;
    case PredKind::kGt:
      return cmp > 0;
    default:
      return cmp >= 0;
  }
}

/// Keeps the offsets of `*sel` whose cell is non-null and `pass`es. The
/// typed vector of a NULL cell holds 0 or "", so `pass` may read it.
template <typename Pass>
void Narrow(const uint8_t* nulls, std::vector<int32_t>* sel, Pass pass) {
  int32_t* s = sel->data();
  size_t kept = 0;
  for (size_t i = 0, n = sel->size(); i < n; ++i) {
    const int32_t r = s[i];
    s[kept] = r;
    kept += static_cast<size_t>((nulls[r] == 0) & pass(r));
  }
  sel->resize(kept);
}

/// Narrow by `cmp3(r) op 0`, with the operator hoisted out of the loop.
template <typename Cmp>
void NarrowCmp(PredKind op, const uint8_t* nulls, std::vector<int32_t>* sel,
               Cmp cmp3) {
  switch (op) {
    case PredKind::kEq:
      return Narrow(nulls, sel, [&](int32_t r) { return cmp3(r) == 0; });
    case PredKind::kNe:
      return Narrow(nulls, sel, [&](int32_t r) { return cmp3(r) != 0; });
    case PredKind::kLt:
      return Narrow(nulls, sel, [&](int32_t r) { return cmp3(r) < 0; });
    case PredKind::kLe:
      return Narrow(nulls, sel, [&](int32_t r) { return cmp3(r) <= 0; });
    case PredKind::kGt:
      return Narrow(nulls, sel, [&](int32_t r) { return cmp3(r) > 0; });
    default:
      return Narrow(nulls, sel, [&](int32_t r) { return cmp3(r) >= 0; });
  }
}

}  // namespace

ColumnPredicate::ColumnPredicate(const ResolvedPredicate& pred,
                                 ValueType column_type)
    : column_(pred.pos), any_(pred.kind == PredKind::kIn) {
  std::vector<std::optional<bool>> outcomes;
  if (pred.kind == PredKind::kIn) {
    for (const Value& v : pred.in_list) {
      outcomes.push_back(AddTerm(PredKind::kEq, v, column_type));
    }
  } else if (pred.kind == PredKind::kBetween) {
    outcomes.push_back(AddTerm(PredKind::kGe, pred.operand, column_type));
    outcomes.push_back(AddTerm(PredKind::kLe, pred.operand2, column_type));
  } else {
    outcomes.push_back(AddTerm(pred.kind, pred.operand, column_type));
  }
  // Fold the cell-independent outcomes: one false term sinks a
  // conjunction, one true term decides a disjunction for every non-null
  // cell, and a disjunction without terms matches nothing.
  for (const std::optional<bool>& o : outcomes) {
    if (!o.has_value()) continue;
    if (!any_ && !*o) never_ = true;
    if (any_ && *o) {
      terms_.clear();
      any_ = false;
      return;
    }
  }
  if (any_ && terms_.empty()) never_ = true;
}

std::optional<bool> ColumnPredicate::AddTerm(PredKind op,
                                             const Value& operand,
                                             ValueType column_type) {
  if (operand.is_null() || column_type == ValueType::kNull) return false;
  Term t;
  t.op = op;
  if (op == PredKind::kLike) {
    if (column_type != ValueType::kString ||
        operand.type() != ValueType::kString) {
      return false;
    }
    t.domain = Term::Domain::kLike;
    t.s = operand.AsString();
  } else if (column_type == ValueType::kString) {
    if (operand.type() != ValueType::kString) return CmpHolds(op, 1);
    t.domain = Term::Domain::kString;
    t.s = operand.AsString();
  } else if (operand.type() == ValueType::kString) {
    return CmpHolds(op, -1);
  } else if (column_type == ValueType::kInt &&
             operand.type() == ValueType::kInt) {
    t.domain = Term::Domain::kInt;
    t.i = operand.AsInt();
  } else {
    t.domain = Term::Domain::kDouble;
    t.d = operand.AsNumeric();
  }
  terms_.push_back(std::move(t));
  return std::nullopt;
}

bool ColumnPredicate::Holds(const Term& t, const ColumnChunk& col,
                            size_t off) const {
  switch (t.domain) {
    case Term::Domain::kInt:
      return CmpHolds(t.op, Cmp3(col.ints[off], t.i));
    case Term::Domain::kDouble:
      return CmpHolds(t.op, Cmp3(col.type == ValueType::kInt
                                     ? static_cast<double>(col.ints[off])
                                     : col.doubles[off],
                                 t.d));
    case Term::Domain::kString:
      return CmpHolds(t.op, col.strings[off].compare(t.s));
    case Term::Domain::kLike:
      return LikeMatch(col.strings[off], t.s);
  }
  return false;
}

bool ColumnPredicate::Test(const ColumnChunk& col, size_t off) const {
  if (never_ || col.nulls[off] != 0) return false;
  for (const Term& t : terms_) {
    if (Holds(t, col, off) == any_) return any_;
  }
  return !any_ || terms_.empty();
}

void ColumnPredicate::Filter(const ColumnChunk& col,
                             std::vector<int32_t>* sel) const {
  const uint8_t* nulls = col.nulls.data();
  if (never_) {
    sel->clear();
  } else if (any_ || terms_.empty()) {
    Narrow(nulls, sel, [&](int32_t r) { return Test(col, r); });
  } else {
    // A conjunction narrows term by term, each in a typed loop.
    for (const Term& t : terms_) {
      switch (t.domain) {
        case Term::Domain::kInt:
          NarrowCmp(t.op, nulls, sel, [&](int32_t r) {
            return Cmp3(col.ints[r], t.i);
          });
          break;
        case Term::Domain::kDouble:
          if (col.type == ValueType::kInt) {
            NarrowCmp(t.op, nulls, sel, [&](int32_t r) {
              return Cmp3(static_cast<double>(col.ints[r]), t.d);
            });
          } else {
            NarrowCmp(t.op, nulls, sel, [&](int32_t r) {
              return Cmp3(col.doubles[r], t.d);
            });
          }
          break;
        case Term::Domain::kString:
          NarrowCmp(t.op, nulls, sel, [&](int32_t r) {
            return col.strings[r].compare(t.s);
          });
          break;
        case Term::Domain::kLike:
          Narrow(nulls, sel, [&](int32_t r) {
            return LikeMatch(col.strings[r], t.s);
          });
          break;
      }
    }
  }
}

ChunkFilter::ChunkFilter(const std::vector<ResolvedPredicate>& preds,
                         const Schema& schema) {
  preds_.reserve(preds.size());
  for (const ResolvedPredicate& p : preds) {
    preds_.emplace_back(p, schema.column(p.pos).type);
  }
}

bool ChunkFilter::Test(const TableChunk& chunk, size_t off) const {
  for (const ColumnPredicate& p : preds_) {
    if (!p.Test(chunk.columns[static_cast<size_t>(p.column())], off)) {
      return false;
    }
  }
  return true;
}

void ChunkFilter::Select(const TableChunk& chunk, size_t begin, size_t end,
                         std::vector<int32_t>* sel) const {
  sel->resize(end - begin);
  size_t n = 0;
  for (size_t r = begin; r < end; ++r) {
    (*sel)[n] = static_cast<int32_t>(r);
    n += chunk.live[r];
  }
  sel->resize(n);
  for (const ColumnPredicate& p : preds_) {
    if (sel->empty()) return;
    p.Filter(chunk.columns[static_cast<size_t>(p.column())], sel);
  }
}

ResolvedPredicate ResolvePredicate(const Predicate& pred, int pos,
                                   const std::vector<Value>& params) {
  ResolvedPredicate out;
  out.pos = pos;
  out.kind = pred.kind;
  if (pred.is_param) {
    POPDB_DCHECK(pred.param_index >= 0 &&
                 pred.param_index < static_cast<int>(params.size()));
    out.operand = params[static_cast<size_t>(pred.param_index)];
  } else {
    out.operand = pred.operand;
  }
  out.operand2 = pred.operand2;
  out.in_list = pred.in_list;
  return out;
}

}  // namespace popdb
