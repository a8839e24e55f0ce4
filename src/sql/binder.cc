#include "sql/binder.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/string_util.h"
#include "opt/optimizer.h"

namespace popdb::sql {

namespace {

/// Binder scope: FROM-clause tables with their aliases and schemas.
class Scope {
 public:
  Scope(const Catalog& catalog, const QuerySpec& query,
        const std::vector<AstSelect::TableRef>& from)
      : catalog_(catalog), query_(query), from_(from) {}

  /// Resolves `col` to a (table_id, column) pair.
  Result<ColRef> Resolve(const AstColumn& col) const {
    if (!col.qualifier.empty()) {
      for (size_t t = 0; t < from_.size(); ++t) {
        if (from_[t].alias != col.qualifier &&
            from_[t].table != col.qualifier) {
          continue;
        }
        const int pos = ColumnIndex(static_cast<int>(t), col.column);
        if (pos < 0) {
          return Status::InvalidArgument(
              StrFormat("no column '%s' in table '%s'", col.column.c_str(),
                        from_[t].table.c_str()));
        }
        return ColRef{static_cast<int>(t), pos};
      }
      return Status::InvalidArgument("unknown table or alias '" +
                                     col.qualifier + "'");
    }
    // Unqualified: must be unambiguous across the FROM tables.
    int found_table = -1;
    int found_col = -1;
    for (size_t t = 0; t < from_.size(); ++t) {
      const int pos = ColumnIndex(static_cast<int>(t), col.column);
      if (pos < 0) continue;
      if (found_table >= 0) {
        return Status::InvalidArgument("ambiguous column '" + col.column +
                                       "' (qualify it with a table alias)");
      }
      found_table = static_cast<int>(t);
      found_col = pos;
    }
    if (found_table < 0) {
      return Status::InvalidArgument("unknown column '" + col.column + "'");
    }
    return ColRef{found_table, found_col};
  }

 private:
  int ColumnIndex(int table_id, const std::string& column) const {
    const Table* table = catalog_.GetTable(query_.table_name(table_id));
    return table == nullptr ? -1 : table->schema().IndexOf(column);
  }

  const Catalog& catalog_;
  const QuerySpec& query_;
  const std::vector<AstSelect::TableRef>& from_;
};

bool SameColRef(const ColRef& a, const ColRef& b) {
  return a.table_id == b.table_id && a.column == b.column;
}

}  // namespace

Result<BoundStatement> Bind(const Catalog& catalog, const AstSelect& ast,
                            std::vector<Value> params) {
  BoundStatement out;
  out.explain = ast.explain;
  QuerySpec& q = out.query;
  q = QuerySpec("sql");

  // --- FROM: tables and alias uniqueness.
  if (ast.from.empty()) {
    return Status::InvalidArgument("FROM clause is empty");
  }
  for (const AstSelect::TableRef& ref : ast.from) {
    if (catalog.GetTable(ref.table) == nullptr) {
      return Status::NotFound("no such table: " + ref.table);
    }
    for (int t = 0; t < q.num_tables(); ++t) {
      // Aliases must be unique; repeating a bare table name is fine only
      // when an explicit alias disambiguates it.
      if (ast.from[static_cast<size_t>(t)].alias == ref.alias) {
        return Status::InvalidArgument(
            "duplicate table alias '" + ref.alias +
            "' (self-joins need distinct aliases)");
      }
    }
    q.AddTable(ref.table);
  }
  Scope scope(catalog, q, ast.from);

  // --- WHERE: split into local restrictions and equi-join predicates;
  // assign '?' parameter indexes in occurrence order.
  int next_param = 0;
  for (const AstComparison& cmp : ast.where) {
    Result<ColRef> lhs = scope.Resolve(cmp.lhs);
    if (!lhs.ok()) return lhs.status();
    if (cmp.rhs_is_column) {
      Result<ColRef> rhs = scope.Resolve(cmp.rhs_column);
      if (!rhs.ok()) return rhs.status();
      if (cmp.kind != PredKind::kEq) {
        return Status::Unimplemented(
            "only equality column-to-column comparisons are supported");
      }
      if (lhs.value().table_id == rhs.value().table_id) {
        return Status::Unimplemented(
            "column comparisons within one table are not supported");
      }
      q.AddJoin(lhs.value(), rhs.value());
      continue;
    }
    if (cmp.is_param) {
      q.AddParamPred(lhs.value(), cmp.kind, next_param);
      if (next_param >= static_cast<int>(params.size())) {
        return Status::InvalidArgument(
            "not enough parameter bindings for the '?' markers");
      }
      ++next_param;
      continue;
    }
    if (cmp.kind == PredKind::kIn) {
      q.AddInPred(lhs.value(), cmp.in_list);
    } else {
      q.AddPred(lhs.value(), cmp.kind, cmp.value, cmp.value2);
    }
  }
  for (Value& v : params) q.BindParam(std::move(v));

  // --- Select list / GROUP BY.
  const bool has_agg_items =
      std::any_of(ast.items.begin(), ast.items.end(),
                  [](const AstSelectItem& i) { return i.is_aggregate; });
  std::vector<ColRef> group_cols;
  std::vector<std::pair<AggFunc, ColRef>> agg_items;
  std::vector<std::string> output_names;  // For ORDER BY by name.

  if (has_agg_items || !ast.group_by.empty()) {
    if (ast.select_star) {
      return Status::Unimplemented(
          "SELECT * with GROUP BY/aggregates is not supported");
    }
    // Resolve the GROUP BY columns.
    for (const AstColumn& col : ast.group_by) {
      Result<ColRef> r = scope.Resolve(col);
      if (!r.ok()) return r.status();
      group_cols.push_back(r.value());
    }
    // The engine's aggregate output is [group columns..., aggregates...]:
    // require the select list in that shape.
    size_t item_idx = 0;
    for (; item_idx < ast.items.size() &&
           !ast.items[item_idx].is_aggregate;
         ++item_idx) {
      Result<ColRef> r = scope.Resolve(ast.items[item_idx].column);
      if (!r.ok()) return r.status();
      const size_t pos = item_idx;
      if (pos >= group_cols.size() ||
          !SameColRef(group_cols[pos], r.value())) {
        return Status::InvalidArgument(
            "aggregate select lists must start with the GROUP BY columns "
            "in order (column '" + ast.items[item_idx].column.ToString() +
            "')");
      }
      output_names.push_back(ast.items[item_idx].alias.empty()
                                 ? ast.items[item_idx].column.column
                                 : ast.items[item_idx].alias);
    }
    if (item_idx != group_cols.size()) {
      return Status::InvalidArgument(
          "every GROUP BY column must appear in the select list");
    }
    for (; item_idx < ast.items.size(); ++item_idx) {
      const AstSelectItem& item = ast.items[item_idx];
      if (!item.is_aggregate) {
        return Status::InvalidArgument(
            "non-aggregate column '" + item.column.ToString() +
            "' after aggregates must be part of GROUP BY");
      }
      ColRef arg{};
      if (!item.count_star) {
        Result<ColRef> r = scope.Resolve(item.column);
        if (!r.ok()) return r.status();
        arg = r.value();
      }
      agg_items.emplace_back(item.func, arg);
      output_names.push_back(item.alias);
    }
    if (agg_items.empty() && group_cols.empty()) {
      return Status::InvalidArgument("empty aggregate select list");
    }
    for (const ColRef& c : group_cols) q.AddGroupBy(c);
    for (const auto& [func, arg] : agg_items) q.AddAgg(func, arg);
  } else if (!ast.select_star) {
    for (const AstSelectItem& item : ast.items) {
      Result<ColRef> r = scope.Resolve(item.column);
      if (!r.ok()) return r.status();
      q.AddProjection(r.value());
      output_names.push_back(item.alias.empty() ? item.column.column
                                                : item.alias);
    }
  }
  q.SetDistinct(ast.distinct);

  // --- HAVING: map onto output positions.
  for (const AstHaving& h : ast.having) {
    int pos = -1;
    if (h.is_aggregate) {
      ColRef arg{};
      if (!h.count_star) {
        Result<ColRef> r = scope.Resolve(h.column);
        if (!r.ok()) return r.status();
        arg = r.value();
      }
      for (size_t a = 0; a < agg_items.size(); ++a) {
        if (agg_items[a].first != h.func) continue;
        if (h.func == AggFunc::kCount ||
            SameColRef(agg_items[a].second, arg)) {
          pos = static_cast<int>(group_cols.size() + a);
          break;
        }
      }
      if (pos < 0) {
        return Status::InvalidArgument(
            "HAVING aggregate must also appear in the select list");
      }
    } else {
      Result<ColRef> r = scope.Resolve(h.column);
      if (!r.ok()) return r.status();
      for (size_t g = 0; g < group_cols.size(); ++g) {
        if (SameColRef(group_cols[g], r.value())) {
          pos = static_cast<int>(g);
          break;
        }
      }
      if (pos < 0) {
        return Status::InvalidArgument(
            "HAVING column must be a GROUP BY column");
      }
    }
    q.AddHaving(pos, h.kind, h.value, h.value2);
  }

  // --- ORDER BY: map onto output positions.
  int output_arity;
  if (q.has_aggregation()) {
    output_arity = static_cast<int>(group_cols.size() + agg_items.size());
  } else if (!q.projections().empty()) {
    output_arity = static_cast<int>(q.projections().size());
  } else {
    const std::vector<int> widths = QueryTableWidths(catalog, q);
    output_arity = 0;
    for (int w : widths) output_arity += w;
  }
  for (const AstOrderItem& item : ast.order_by) {
    int pos = -1;
    if (item.by_position) {
      if (item.position < 1 || item.position > output_arity) {
        return Status::InvalidArgument(
            StrFormat("ORDER BY position %d out of range", item.position));
      }
      pos = item.position - 1;
    } else {
      // Match a select-item alias/name first.
      if (item.column.qualifier.empty()) {
        for (size_t i = 0; i < output_names.size(); ++i) {
          if (output_names[i] == item.column.column) {
            pos = static_cast<int>(i);
            break;
          }
        }
      }
      if (pos < 0) {
        Result<ColRef> r = scope.Resolve(item.column);
        if (!r.ok()) return r.status();
        if (q.has_aggregation()) {
          for (size_t g = 0; g < group_cols.size(); ++g) {
            if (SameColRef(group_cols[g], r.value())) {
              pos = static_cast<int>(g);
              break;
            }
          }
        } else if (!q.projections().empty()) {
          for (size_t p = 0; p < q.projections().size(); ++p) {
            if (SameColRef(q.projections()[p], r.value())) {
              pos = static_cast<int>(p);
              break;
            }
          }
        } else {
          pos = RowLayout(q.AllTables(), QueryTableColumns(catalog, q))
                    .Resolve(r.value());
        }
        if (pos < 0) {
          return Status::InvalidArgument(
              "ORDER BY column '" + item.column.ToString() +
              "' is not part of the output");
        }
      }
    }
    q.AddOrderBy(pos, item.descending);
  }

  if (ast.limit >= 0) q.SetLimit(ast.limit);
  return out;
}

Result<BoundStatement> ParseSql(const Catalog& catalog,
                                const std::string& sql,
                                std::vector<Value> params) {
  Result<AstSelect> ast = Parse(sql);
  if (!ast.ok()) return ast.status();
  return Bind(catalog, ast.value(), std::move(params));
}

namespace {

/// Sequential '?' binding cursor over the request's parameter list.
class ParamCursor {
 public:
  explicit ParamCursor(std::vector<Value> params)
      : params_(std::move(params)) {}

  Result<Value> Next() {
    if (next_ >= params_.size()) {
      return Status::InvalidArgument(
          "not enough parameter bindings for the '?' markers");
    }
    return params_[next_++];
  }

 private:
  std::vector<Value> params_;
  size_t next_ = 0;
};

/// Integer literals flow into double columns (the only implicit coercion).
Value CoerceTo(ValueType type, Value v) {
  if (!v.is_null() && type == ValueType::kDouble &&
      v.type() == ValueType::kInt) {
    return Value::Double(static_cast<double>(v.AsInt()));
  }
  return v;
}

Result<Value> BindDmlValue(const AstDmlValue& v, ValueType column_type,
                           ParamCursor* params) {
  if (!v.is_param) return CoerceTo(column_type, v.value);
  Result<Value> bound = params->Next();
  if (!bound.ok()) return bound.status();
  return CoerceTo(column_type, std::move(bound.value()));
}

/// Binds the single-table WHERE of an UPDATE/DELETE: every conjunct must be
/// a restriction on `schema`'s columns; positions are schema column
/// indexes, so txn::WriteManager evaluates them directly against rows.
Status BindDmlWhere(const std::string& table, const Schema& schema,
                    const std::vector<AstComparison>& where,
                    ParamCursor* params,
                    std::vector<ResolvedPredicate>* out) {
  for (const AstComparison& cmp : where) {
    if (!cmp.lhs.qualifier.empty() && cmp.lhs.qualifier != table) {
      return Status::InvalidArgument("unknown table or alias '" +
                                     cmp.lhs.qualifier + "'");
    }
    const int pos = schema.IndexOf(cmp.lhs.column);
    if (pos < 0) {
      return Status::InvalidArgument(
          StrFormat("no column '%s' in table '%s'", cmp.lhs.column.c_str(),
                    table.c_str()));
    }
    if (cmp.rhs_is_column) {
      return Status::Unimplemented(
          "column-to-column comparisons are not supported in DML WHERE");
    }
    ResolvedPredicate pred;
    pred.pos = pos;
    pred.kind = cmp.kind;
    if (cmp.is_param) {
      Result<Value> bound = params->Next();
      if (!bound.ok()) return bound.status();
      pred.operand = std::move(bound.value());
    } else {
      pred.operand = cmp.value;
      pred.operand2 = cmp.value2;
      pred.in_list = cmp.in_list;
    }
    out->push_back(std::move(pred));
  }
  return Status::Ok();
}

Result<txn::WriteStatement> BindInsert(const Catalog& catalog,
                                       const AstInsert& ast,
                                       ParamCursor* params) {
  const Table* table = catalog.GetTable(ast.table);
  if (table == nullptr) return Status::NotFound("no such table: " + ast.table);
  const Schema& schema = table->schema();

  // Map the column list (or the full schema order) to schema positions.
  std::vector<int> positions;
  if (ast.columns.empty()) {
    for (int c = 0; c < schema.num_columns(); ++c) positions.push_back(c);
  } else {
    for (const std::string& name : ast.columns) {
      const int pos = schema.IndexOf(name);
      if (pos < 0) {
        return Status::InvalidArgument(
            StrFormat("no column '%s' in table '%s'", name.c_str(),
                      ast.table.c_str()));
      }
      for (int seen : positions) {
        if (seen == pos) {
          return Status::InvalidArgument("duplicate INSERT column '" + name +
                                         "'");
        }
      }
      positions.push_back(pos);
    }
  }

  txn::WriteStatement stmt;
  stmt.op = txn::WriteOp::kInsert;
  stmt.table = ast.table;
  stmt.rows.reserve(ast.rows.size());
  for (const std::vector<AstDmlValue>& ast_row : ast.rows) {
    if (ast_row.size() != positions.size()) {
      return Status::InvalidArgument(
          StrFormat("INSERT row has %d values for %d columns",
                    static_cast<int>(ast_row.size()),
                    static_cast<int>(positions.size())));
    }
    // Unlisted columns are NULL.
    Row row(static_cast<size_t>(schema.num_columns()));
    for (size_t i = 0; i < positions.size(); ++i) {
      const int pos = positions[i];
      Result<Value> v =
          BindDmlValue(ast_row[i], schema.column(pos).type, params);
      if (!v.ok()) return v.status();
      row[static_cast<size_t>(pos)] = std::move(v.value());
    }
    stmt.rows.push_back(std::move(row));
  }
  return stmt;
}

Result<txn::WriteStatement> BindUpdate(const Catalog& catalog,
                                       const AstUpdate& ast,
                                       ParamCursor* params) {
  const Table* table = catalog.GetTable(ast.table);
  if (table == nullptr) return Status::NotFound("no such table: " + ast.table);
  const Schema& schema = table->schema();

  txn::WriteStatement stmt;
  stmt.op = txn::WriteOp::kUpdate;
  stmt.table = ast.table;
  for (const AstSetClause& ast_set : ast.sets) {
    const int pos = schema.IndexOf(ast_set.column);
    if (pos < 0) {
      return Status::InvalidArgument(
          StrFormat("no column '%s' in table '%s'", ast_set.column.c_str(),
                    ast.table.c_str()));
    }
    txn::SetClause set;
    set.column = pos;
    set.is_delta = ast_set.is_delta;
    if (ast_set.is_delta && ast_set.delta_column != ast_set.column) {
      return Status::Unimplemented(
          "UPDATE deltas must reference the assigned column itself "
          "('" + ast_set.column + " = " + ast_set.column + " + ...')");
    }
    Result<Value> v =
        BindDmlValue(ast_set.value, schema.column(pos).type, params);
    if (!v.ok()) return v.status();
    set.value = std::move(v.value());
    if (ast_set.negate) {
      if (set.value.type() == ValueType::kInt) {
        set.value = Value::Int(-set.value.AsInt());
      } else if (set.value.type() == ValueType::kDouble) {
        set.value = Value::Double(-set.value.AsDouble());
      } else {
        return Status::InvalidArgument("delta assignment requires a number");
      }
    }
    stmt.sets.push_back(std::move(set));
  }
  Status s =
      BindDmlWhere(ast.table, schema, ast.where, params, &stmt.where);
  if (!s.ok()) return s;
  return stmt;
}

Result<txn::WriteStatement> BindDelete(const Catalog& catalog,
                                       const AstDelete& ast,
                                       ParamCursor* params) {
  const Table* table = catalog.GetTable(ast.table);
  if (table == nullptr) return Status::NotFound("no such table: " + ast.table);
  txn::WriteStatement stmt;
  stmt.op = txn::WriteOp::kDelete;
  stmt.table = ast.table;
  Status s = BindDmlWhere(ast.table, table->schema(), ast.where, params,
                          &stmt.where);
  if (!s.ok()) return s;
  return stmt;
}

}  // namespace

Result<BoundStatement> BindStatement(const Catalog& catalog,
                                     const AstStatement& ast,
                                     std::vector<Value> params) {
  if (ast.kind == StatementKind::kSelect) {
    return Bind(catalog, ast.select, std::move(params));
  }
  ParamCursor cursor(std::move(params));
  Result<txn::WriteStatement> write = [&]() -> Result<txn::WriteStatement> {
    switch (ast.kind) {
      case StatementKind::kInsert:
        return BindInsert(catalog, ast.insert, &cursor);
      case StatementKind::kUpdate:
        return BindUpdate(catalog, ast.update, &cursor);
      case StatementKind::kDelete:
        return BindDelete(catalog, ast.delete_, &cursor);
      case StatementKind::kSelect:
        break;
    }
    return Status::Internal("unhandled statement kind");
  }();
  if (!write.ok()) return write.status();
  BoundStatement out;
  out.is_write = true;
  out.write = std::move(write.value());
  return out;
}

Result<BoundStatement> ParseSqlStatement(const Catalog& catalog,
                                         const std::string& sql,
                                         std::vector<Value> params) {
  Result<AstStatement> ast = ParseStatement(sql);
  if (!ast.ok()) return ast.status();
  return BindStatement(catalog, ast.value(), std::move(params));
}

std::string AnnotateError(const std::string& sql, const Status& status) {
  const std::string& message = status.message();
  const std::string needle = "position ";
  const size_t at = message.rfind(needle);
  if (at == std::string::npos) return message;
  size_t digits = at + needle.size();
  long offset = -1;
  if (digits < message.size() && std::isdigit(message[digits]) != 0) {
    offset = std::strtol(message.c_str() + digits, nullptr, 10);
  }
  if (offset < 0 || static_cast<size_t>(offset) > sql.size()) {
    return message;
  }
  // Single-line caret rendering; newlines in the statement are flattened
  // so the caret column stays aligned.
  std::string flat = sql;
  for (char& c : flat) {
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
  std::string out = message;
  out += "\n  ";
  out += flat;
  out += "\n  ";
  out.append(static_cast<size_t>(offset), ' ');
  out += "^";
  return out;
}

}  // namespace popdb::sql
