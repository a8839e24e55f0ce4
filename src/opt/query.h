#ifndef POPDB_OPT_QUERY_H_
#define POPDB_OPT_QUERY_H_

#include <string>
#include <vector>

#include "common/value.h"
#include "exec/agg.h"
#include "exec/expr.h"
#include "exec/layout.h"

namespace popdb {

/// Declarative select-project-join(-aggregate) query over catalog tables:
/// the engine's logical query representation. Construct it directly through
/// this builder API, or from SQL text via sql::ParseSql (sql/binder.h).
///
/// Example (Q: one join, one parameterized selection, group-by):
///   QuerySpec q("demo");
///   int o = q.AddTable("orders");
///   int l = q.AddTable("lineitem");
///   q.AddJoin({o, 0}, {l, 0});                           // o_okey = l_okey
///   q.AddParamPred({l, 4}, PredKind::kLe, /*param=*/0);  // l_qty <= ?
///   q.BindParam(Value::Int(10));
///   q.AddGroupBy({o, 1});
///   q.AddAgg(AggFunc::kSum, {l, 5});
class QuerySpec {
 public:
  struct Agg {
    AggFunc func = AggFunc::kCount;
    ColRef arg;  ///< Ignored for COUNT.
  };
  /// ORDER BY key over the final output row (post projection/aggregation).
  struct OrderKey {
    int output_pos = 0;
    bool descending = false;
  };
  /// HAVING restriction over the final output row (group-by columns first,
  /// then one column per aggregate).
  struct HavingPred {
    int output_pos = 0;
    PredKind kind = PredKind::kEq;
    Value operand;
    Value operand2;
  };

  explicit QuerySpec(std::string name) : name_(std::move(name)) {}

  /// Adds a catalog table; returns its query table id.
  int AddTable(const std::string& table_name);

  /// Adds a literal restriction; returns the predicate id.
  int AddPred(ColRef col, PredKind kind, Value operand,
              Value operand2 = Value::Null());
  /// Adds an IN-list restriction.
  int AddInPred(ColRef col, std::vector<Value> in_list);
  /// Adds a parameter-marker restriction bound at execution time; the
  /// optimizer cannot see the literal and must use default selectivities.
  int AddParamPred(ColRef col, PredKind kind, int param_index);

  /// Adds an equality join predicate.
  void AddJoin(ColRef left, ColRef right);

  /// Appends a projected output column (SPJ queries). If none are added the
  /// query returns all columns of all tables.
  void AddProjection(ColRef col) { projections_.push_back(col); }

  void AddGroupBy(ColRef col) { group_by_.push_back(col); }
  void AddAgg(AggFunc func, ColRef arg = ColRef{}) {
    aggs_.push_back(Agg{func, arg});
  }
  void AddOrderBy(int output_pos, bool descending = false) {
    order_by_.push_back(OrderKey{output_pos, descending});
  }
  void AddHaving(int output_pos, PredKind kind, Value operand,
                 Value operand2 = Value::Null()) {
    having_.push_back(
        HavingPred{output_pos, kind, std::move(operand), std::move(operand2)});
  }
  /// SELECT DISTINCT: deduplicates the projected rows (no-op for
  /// aggregation queries, whose group-by already deduplicates).
  void SetDistinct(bool distinct) { distinct_ = distinct; }
  /// LIMIT: truncates the final result to at most `n` rows (applied after
  /// any ORDER BY). Negative = no limit.
  void SetLimit(int64_t n) { limit_ = n; }

  /// Binds the value for the next parameter index (call in order).
  void BindParam(Value v) { params_.push_back(std::move(v)); }
  /// Replaces the binding of parameter `index`.
  void RebindParam(int index, Value v) {
    params_[static_cast<size_t>(index)] = std::move(v);
  }

  const std::string& name() const { return name_; }
  int num_tables() const { return static_cast<int>(tables_.size()); }
  const std::string& table_name(int table_id) const {
    return tables_[static_cast<size_t>(table_id)];
  }
  const std::vector<std::string>& tables() const { return tables_; }
  const std::vector<Predicate>& local_preds() const { return local_preds_; }
  const std::vector<JoinPredicate>& join_preds() const { return join_preds_; }
  const std::vector<ColRef>& projections() const { return projections_; }
  const std::vector<ColRef>& group_by() const { return group_by_; }
  const std::vector<Agg>& aggs() const { return aggs_; }
  const std::vector<OrderKey>& order_by() const { return order_by_; }
  const std::vector<HavingPred>& having() const { return having_; }
  bool distinct() const { return distinct_; }
  int64_t limit() const { return limit_; }
  const std::vector<Value>& params() const { return params_; }

  bool has_aggregation() const { return !aggs_.empty() || !group_by_.empty(); }

  /// True when result rows reach the application as the plan produces
  /// them: no aggregation, DISTINCT or ORDER BY holds them back. Only then
  /// were rows an aborted attempt produced really returned, so only then
  /// may a re-optimized plan compensate for them (ECDC, the work bound's
  /// row tracker).
  bool pipelined() const {
    return !has_aggregation() && !distinct_ && order_by_.empty();
  }

  /// Bitmask of all query tables.
  TableSet AllTables() const {
    return tables_.empty() ? 0
                           : (TableSet{1} << tables_.size()) - 1;
  }

  /// Local predicate ids restricting `table_id`, in predicate order.
  const std::vector<int>& PredsOnTable(int table_id) const;

  std::string ToString() const;

 private:
  /// Assigns the next predicate id to `p`, records it; returns the id.
  int PushPred(Predicate p);

  std::string name_;
  std::vector<std::string> tables_;
  std::vector<Predicate> local_preds_;
  /// Per query table id: the ids of the local predicates on it (kept as
  /// predicates are added; the optimizer reads it for every table set).
  std::vector<std::vector<int>> preds_on_table_;
  std::vector<JoinPredicate> join_preds_;
  std::vector<ColRef> projections_;
  std::vector<ColRef> group_by_;
  std::vector<Agg> aggs_;
  std::vector<OrderKey> order_by_;
  std::vector<HavingPred> having_;
  bool distinct_ = false;
  int64_t limit_ = -1;
  std::vector<Value> params_;
};

}  // namespace popdb

#endif  // POPDB_OPT_QUERY_H_
