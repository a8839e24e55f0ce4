#include "tests/test_util.h"

#include <unordered_map>

#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "exec/agg.h"
#include "exec/expr.h"
#include "exec/layout.h"
#include "opt/optimizer.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace popdb::testing {

void BuildToyCatalog(Catalog* catalog, int64_t emp_rows, int64_t sale_rows) {
  Rng rng(7);
  {
    Table dept("dept", Schema({{"d_id", ValueType::kInt},
                               {"d_name", ValueType::kString},
                               {"d_region", ValueType::kInt}}));
    const char* names[8] = {"eng",   "sales", "hr",    "legal",
                            "mktg",  "ops",   "it",    "finance"};
    for (int64_t d = 0; d < 8; ++d) {
      dept.AppendRow({Value::Int(d), Value::String(names[d]),
                      Value::Int(d % 3)});
    }
    POPDB_DCHECK(catalog->AddTable(std::move(dept)).ok());
  }
  {
    Table emp("emp", Schema({{"e_id", ValueType::kInt},
                             {"e_dept", ValueType::kInt},
                             {"e_age", ValueType::kInt},
                             {"e_name", ValueType::kString}}));
    for (int64_t e = 0; e < emp_rows; ++e) {
      emp.AppendRow({Value::Int(e), Value::Int(rng.UniformInt(0, 7)),
                     Value::Int(rng.UniformInt(21, 65)),
                     Value::String("emp" + std::to_string(e))});
    }
    POPDB_DCHECK(catalog->AddTable(std::move(emp)).ok());
  }
  {
    Table sale("sale", Schema({{"s_emp", ValueType::kInt},
                               {"s_amount", ValueType::kDouble},
                               {"s_year", ValueType::kInt}}));
    for (int64_t s = 0; s < sale_rows; ++s) {
      sale.AppendRow({Value::Int(rng.UniformInt(0, emp_rows - 1)),
                      Value::Double(rng.UniformDouble() * 1000),
                      Value::Int(2015 + rng.UniformInt(0, 9))});
    }
    POPDB_DCHECK(catalog->AddTable(std::move(sale)).ok());
  }
  catalog->AnalyzeAll();
  POPDB_DCHECK(catalog->CreateIndex("dept", "d_id").ok());
  POPDB_DCHECK(catalog->CreateIndex("emp", "e_id").ok());
  POPDB_DCHECK(catalog->CreateIndex("emp", "e_dept").ok());
  POPDB_DCHECK(catalog->CreateIndex("sale", "s_emp").ok());
}

namespace {

struct RefContext {
  const Catalog* catalog;
  const QuerySpec* query;
  std::vector<int> widths;
  RowLayout layout;
  std::vector<std::vector<ResolvedPredicate>> local_by_table;
  std::vector<Row> joined;
};

/// Backtracking join in table-id order: binds one table per level, applying
/// local predicates immediately and join predicates as soon as both sides
/// are bound.
void Enumerate(RefContext* ctx, int table_id, Row* partial) {
  const int n = ctx->query->num_tables();
  if (table_id == n) {
    ctx->joined.push_back(*partial);
    return;
  }
  const Table* table = ctx->catalog->GetTable(ctx->query->table_name(table_id));
  const int base = ctx->layout.Resolve(ColRef{table_id, 0});
  for (int64_t r = 0; r < table->num_rows(); ++r) {
    const Row& row = table->row(r);
    bool pass = true;
    for (const ResolvedPredicate& p :
         ctx->local_by_table[static_cast<size_t>(table_id)]) {
      if (!EvalPredicate(p, row)) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    for (int c = 0; c < static_cast<int>(row.size()); ++c) {
      (*partial)[static_cast<size_t>(base + c)] = row[static_cast<size_t>(c)];
    }
    for (const JoinPredicate& jp : ctx->query->join_preds()) {
      const int lt = jp.left.table_id;
      const int rt = jp.right.table_id;
      if (lt > table_id || rt > table_id) continue;
      if (lt != table_id && rt != table_id) continue;  // Checked earlier.
      const Value& lv =
          (*partial)[static_cast<size_t>(ctx->layout.Resolve(jp.left))];
      const Value& rv =
          (*partial)[static_cast<size_t>(ctx->layout.Resolve(jp.right))];
      if (lv != rv) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    Enumerate(ctx, table_id + 1, partial);
  }
}

}  // namespace

std::vector<Row> ReferenceExecute(const Catalog& catalog,
                                  const QuerySpec& query) {
  RefContext ctx;
  ctx.catalog = &catalog;
  ctx.query = &query;
  ctx.widths = QueryTableWidths(catalog, query);
  ctx.layout = RowLayout(query.AllTables(), ctx.widths);
  ctx.local_by_table.resize(static_cast<size_t>(query.num_tables()));
  for (const Predicate& p : query.local_preds()) {
    ctx.local_by_table[static_cast<size_t>(p.col.table_id)].push_back(
        ResolvePredicate(p, p.col.column, query.params()));
  }
  Row partial(static_cast<size_t>(ctx.layout.width()));
  Enumerate(&ctx, 0, &partial);

  auto finalize = [&query](std::vector<Row> rows) {
    // HAVING over the output row.
    if (!query.having().empty()) {
      std::vector<Row> kept;
      for (Row& row : rows) {
        bool pass = true;
        for (const QuerySpec::HavingPred& h : query.having()) {
          ResolvedPredicate rp;
          rp.pos = h.output_pos;
          rp.kind = h.kind;
          rp.operand = h.operand;
          rp.operand2 = h.operand2;
          if (!EvalPredicate(rp, row)) {
            pass = false;
            break;
          }
        }
        if (pass) kept.push_back(std::move(row));
      }
      rows = std::move(kept);
    }
    if (query.distinct() && !query.has_aggregation()) {
      std::unordered_map<Row, bool, RowHash> seen;
      std::vector<Row> unique;
      for (Row& row : rows) {
        if (seen.emplace(row, true).second) unique.push_back(std::move(row));
      }
      rows = std::move(unique);
    }
    // LIMIT cannot be applied deterministically here without a total
    // order; callers using LIMIT compare sizes instead.
    return rows;
  };

  if (!query.has_aggregation()) {
    if (query.projections().empty()) return finalize(ctx.joined);
    std::vector<Row> projected;
    projected.reserve(ctx.joined.size());
    for (const Row& row : ctx.joined) {
      Row out;
      for (const ColRef& c : query.projections()) {
        out.push_back(row[static_cast<size_t>(ctx.layout.Resolve(c))]);
      }
      projected.push_back(std::move(out));
    }
    return finalize(projected);
  }

  // Aggregation (mirrors HashAggOp semantics).
  struct AggState {
    int64_t count = 0;
    double sum = 0;
    Value min, max;
  };
  std::unordered_map<Row, std::vector<AggState>, RowHash> groups;
  for (const Row& row : ctx.joined) {
    Row key;
    for (const ColRef& c : query.group_by()) {
      key.push_back(row[static_cast<size_t>(ctx.layout.Resolve(c))]);
    }
    auto& states = groups[key];
    if (states.empty()) states.resize(query.aggs().size());
    for (size_t a = 0; a < query.aggs().size(); ++a) {
      AggState& st = states[a];
      ++st.count;
      if (query.aggs()[a].func == AggFunc::kCount) continue;
      const Value& v =
          row[static_cast<size_t>(ctx.layout.Resolve(query.aggs()[a].arg))];
      if (v.is_null()) continue;
      st.sum += v.AsNumeric();
      if (st.min.is_null() || v < st.min) st.min = v;
      if (st.max.is_null() || v > st.max) st.max = v;
    }
  }
  std::vector<Row> out;
  for (auto& [key, states] : groups) {
    Row row = key;
    for (size_t a = 0; a < query.aggs().size(); ++a) {
      switch (query.aggs()[a].func) {
        case AggFunc::kCount:
          row.push_back(Value::Int(states[a].count));
          break;
        case AggFunc::kSum:
          row.push_back(Value::Double(states[a].sum));
          break;
        case AggFunc::kAvg:
          row.push_back(Value::Double(
              states[a].count == 0
                  ? 0.0
                  : states[a].sum / static_cast<double>(states[a].count)));
          break;
        case AggFunc::kMin:
          row.push_back(states[a].min);
          break;
        case AggFunc::kMax:
          row.push_back(states[a].max);
          break;
      }
    }
    out.push_back(std::move(row));
  }
  return finalize(out);
}

std::vector<std::string> Canonicalize(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

void AppendKeys(const JsonValue& v, const std::string& prefix,
                std::string* out) {
  if (v.kind() == JsonValue::Kind::kArray) {
    for (const JsonValue& item : v.items()) {
      AppendKeys(item, prefix + "[]", out);
    }
    return;
  }
  if (v.kind() != JsonValue::Kind::kObject) return;
  for (const auto& [key, member] : v.members()) {
    const std::string name = prefix.empty() ? key : prefix + "." + key;
    if (!out->empty()) *out += ',';
    *out += name;
    if (key != "profile") AppendKeys(member, name, out);
  }
}

std::string KeySequence(const JsonValue& v) {
  std::string keys;
  AppendKeys(v, "", &keys);
  return keys;
}

}  // namespace

std::string JsonKeySequence(const std::string& json) {
  Result<JsonValue> parsed = JsonParse(json);
  return parsed.ok() ? KeySequence(parsed.value()) : std::string();
}

std::string LogEntryKeySequence(const std::string& entries,
                                int64_t query_id) {
  Result<JsonValue> parsed = JsonParse(entries);
  if (!parsed.ok() || parsed.value().kind() != JsonValue::Kind::kArray) {
    return std::string();
  }
  for (const JsonValue& entry : parsed.value().items()) {
    if (entry.GetInt("query_id", -1) == query_id) return KeySequence(entry);
  }
  return std::string();
}

}  // namespace popdb::testing
