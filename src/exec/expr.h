#ifndef POPDB_EXEC_EXPR_H_
#define POPDB_EXEC_EXPR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"
#include "storage/table.h"

namespace popdb {

/// Reference to a column of a query table: `table_id` is the table's
/// position-independent id inside one QuerySpec, `column` is the column
/// index within that table's schema.
struct ColRef {
  int table_id = -1;
  int column = -1;

  bool operator==(const ColRef& o) const {
    return table_id == o.table_id && column == o.column;
  }
};

/// Comparison kinds supported by local predicates.
enum class PredKind {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kBetween,   // operand <= col <= operand2
  kIn,        // col IN in_list
  kLike,      // string LIKE pattern (operand is the pattern)
};

const char* PredKindName(PredKind kind);

/// A single-table restriction predicate as seen by the optimizer. Parameter
/// markers (`is_param`) hide the literal from the optimizer: estimation
/// falls back to a default selectivity while execution binds the actual
/// value from the query's parameter list — this is the paper's mechanism
/// for injecting cardinality estimation errors (Section 5.1).
struct Predicate {
  int pred_id = -1;  ///< Unique within one QuerySpec.
  ColRef col;
  PredKind kind = PredKind::kEq;
  Value operand;
  Value operand2;              ///< Upper bound for kBetween.
  std::vector<Value> in_list;  ///< For kIn.
  bool is_param = false;       ///< Parameter marker: estimator can't see it.
  int param_index = -1;        ///< Index into QuerySpec parameter bindings.

  std::string ToString() const;
};

/// Equality join predicate between two query tables.
struct JoinPredicate {
  ColRef left;
  ColRef right;

  std::string ToString() const;
};

/// A predicate with its column resolved to a position inside the executor's
/// row layout and with any parameter marker already bound to its literal.
/// This is what operators actually evaluate.
struct ResolvedPredicate {
  int pos = -1;
  PredKind kind = PredKind::kEq;
  Value operand;
  Value operand2;
  std::vector<Value> in_list;
};

/// Evaluates `pred` against `row`. SQL's UNKNOWN collapses to false: a NULL
/// column value never satisfies a predicate, and neither does any cell
/// against a comparison, BETWEEN or LIKE with a NULL operand or bound (an
/// IN list's NULL elements match nothing).
bool EvalPredicate(const ResolvedPredicate& pred, const Row& row);

/// Evaluates `pred` against a single already-extracted column value (the
/// shared kernel of the row and column paths).
bool EvalPredicateValue(const ResolvedPredicate& pred, const Value& v);

/// Batch-at-a-time predicate evaluation: narrows the selection vector
/// `*sel` (raw row indices into `col`, `pred.pos` already applied by the
/// caller choosing the column) to the rows satisfying `pred`, preserving
/// order. Applying predicates column-by-column over a conjunction yields
/// exactly the rows per-row short-circuit evaluation keeps.
void EvalPredicateColumn(const ResolvedPredicate& pred,
                         const std::vector<Value>& col,
                         std::vector<int32_t>* sel);

/// A ResolvedPredicate over a base-table column (`pos` is a schema column),
/// compiled once against the column's stored type into typed loops over a
/// chunk's cells. For every cell, Test and Filter give exactly
/// EvalPredicateValue's answer: NULL cells never pass, Int(1) equals
/// Double(1.0), an int cell against a double operand compares as double,
/// NaN compares equal to every number, and other cross-type operands
/// follow the type-tag order (numbers below strings).
class ColumnPredicate {
 public:
  ColumnPredicate(const ResolvedPredicate& pred, ValueType column_type);

  int column() const { return column_; }
  /// True when the cell at `off` of `col` passes.
  bool Test(const ColumnChunk& col, size_t off) const;
  /// Narrows `*sel`, ascending offsets into `col`, to the passing cells.
  void Filter(const ColumnChunk& col, std::vector<int32_t>* sel) const;

 private:
  /// One comparison of a cell with an operand in the cell's domain (a
  /// double for an int cell against a double operand); the predicate's
  /// operand type decided the rest at compile time.
  struct Term {
    enum class Domain : uint8_t { kInt, kDouble, kString, kLike };
    Domain domain = Domain::kInt;
    PredKind op = PredKind::kEq;  ///< kEq..kGe; unused for kLike.
    int64_t i = 0;
    double d = 0.0;
    std::string s;
  };
  /// Adds `cell op operand` as a term, or returns its outcome for every
  /// non-null cell when that does not depend on the cell (a NULL or
  /// cross-type operand, LIKE on a non-string).
  std::optional<bool> AddTerm(PredKind op, const Value& operand,
                              ValueType column_type);
  bool Holds(const Term& t, const ColumnChunk& col, size_t off) const;

  int column_ = -1;
  bool never_ = false;  ///< No cell passes.
  bool any_ = false;    ///< IN: a cell passes when any term holds.
  /// A conjunction unless `any_`; empty: every non-null cell passes.
  std::vector<Term> terms_;
};

/// The conjunction of one base table's compiled predicates: what TBSCAN,
/// an NLJN over a base table and DML WHERE evaluate on a chunk.
class ChunkFilter {
 public:
  ChunkFilter() = default;
  ChunkFilter(const std::vector<ResolvedPredicate>& preds,
              const Schema& schema);

  /// True when the row at `off` of `chunk` passes every predicate
  /// (liveness is the caller's).
  bool Test(const TableChunk& chunk, size_t off) const;
  /// Sets `*sel` to the live rows in [begin, end) of `chunk` passing every
  /// predicate, as ascending offsets.
  void Select(const TableChunk& chunk, size_t begin, size_t end,
              std::vector<int32_t>* sel) const;

 private:
  std::vector<ColumnPredicate> preds_;
};

/// Resolves `pred`: substitutes the bound parameter (if any) from `params`
/// and stores `pos` as the evaluation position.
ResolvedPredicate ResolvePredicate(const Predicate& pred, int pos,
                                   const std::vector<Value>& params);

}  // namespace popdb

#endif  // POPDB_EXEC_EXPR_H_
