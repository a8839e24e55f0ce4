#include "txn/write_manager.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace popdb {
namespace txn {

const char* WriteOpName(WriteOp op) {
  switch (op) {
    case WriteOp::kInsert:
      return "insert";
    case WriteOp::kUpdate:
      return "update";
    case WriteOp::kDelete:
      return "delete";
  }
  return "?";
}

WriteManager::WriteManager(Catalog* catalog, Config config)
    : catalog_(catalog), config_(config) {}

WriteManager::Lane* WriteManager::LaneFor(const std::string& table,
                                          int num_columns) {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  std::unique_ptr<Lane>& lane = lanes_[table];
  if (lane == nullptr) {
    lane = std::make_unique<Lane>();
    StatsDeltaConfig dc;
    dc.fold_threshold = config_.stats_fold_threshold;
    dc.min_churn_rows = config_.stats_min_churn_rows;
    dc.ndv_sketch_cap = config_.ndv_sketch_cap;
    dc.histogram_buckets = config_.histogram_buckets;
    lane->delta = std::make_unique<StatsDelta>(num_columns, dc);
  }
  return lane.get();
}

namespace {

/// Schema check for an incoming row: arity must match; each non-null cell
/// must hold the column's declared type (the binder coerces int literals
/// into double columns before this point).
Status CheckRowAgainstSchema(const Schema& schema, const Row& row) {
  if (static_cast<int>(row.size()) != schema.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("row has %d values, table has %d columns",
                  static_cast<int>(row.size()), schema.num_columns()));
  }
  for (int c = 0; c < schema.num_columns(); ++c) {
    const Value& v = row[static_cast<size_t>(c)];
    if (v.is_null()) continue;
    if (v.type() != schema.column(c).type) {
      return Status::InvalidArgument(
          StrFormat("column '%s' expects %s, got %s",
                    schema.column(c).name.c_str(),
                    ValueTypeName(schema.column(c).type),
                    ValueTypeName(v.type())));
    }
  }
  return Status::Ok();
}

/// Collects the rids of live rows satisfying the statement's WHERE, against
/// a snapshot pinned *inside* the write lane — the lane serializes writers,
/// so this snapshot is the table's definitive current state.
std::vector<int64_t> MatchingRids(const TableSnapshot& snap,
                                  const std::vector<ResolvedPredicate>& where) {
  std::vector<int64_t> rids;
  for (int64_t rid = 0; rid < snap.num_rows(); ++rid) {
    if (!snap.alive(rid)) continue;
    const Row& row = snap.row(rid);
    bool pass = true;
    for (const ResolvedPredicate& p : where) {
      if (!EvalPredicate(p, row)) {
        pass = false;
        break;
      }
    }
    if (pass) rids.push_back(rid);
  }
  return rids;
}

}  // namespace

Result<int64_t> WriteManager::ApplyInsert(const WriteStatement& stmt,
                                          Table* table, Lane* lane) {
  for (const Row& row : stmt.rows) {
    Status s = CheckRowAgainstSchema(table->schema(), row);
    if (!s.ok()) return s;
  }
  // Index postings go in before the rows are published: a reader whose
  // snapshot contains a new row must find it through the index. The lane
  // serializes writers, so the rids AppendRows will assign are known now;
  // until the publish, the postings point at rids no snapshot contains,
  // which probes already tolerate (superset postings).
  const int64_t first_rid = table->num_rows();
  const std::vector<HashIndex*> indexes = catalog_->IndexesOn(stmt.table);
  for (size_t i = 0; i < stmt.rows.size(); ++i) {
    for (HashIndex* index : indexes) {
      index->Insert(stmt.rows[i][static_cast<size_t>(index->column())],
                    first_rid + static_cast<int64_t>(i));
    }
  }
  const int64_t published_rid = table->AppendRows(stmt.rows);
  POPDB_DCHECK(published_rid == first_rid);
  for (const Row& row : stmt.rows) lane->delta->RecordInsert(row);
  return static_cast<int64_t>(stmt.rows.size());
}

Result<int64_t> WriteManager::ApplyUpdate(const WriteStatement& stmt,
                                          Table* table, Lane* lane) {
  const Schema& schema = table->schema();
  for (const SetClause& set : stmt.sets) {
    if (set.column < 0 || set.column >= schema.num_columns()) {
      return Status::InvalidArgument("SET column out of range");
    }
    const ValueType col_type = schema.column(set.column).type;
    if (set.is_delta) {
      if (col_type != ValueType::kInt && col_type != ValueType::kDouble) {
        return Status::InvalidArgument(
            StrFormat("column '%s' is not numeric",
                      schema.column(set.column).name.c_str()));
      }
      if (set.value.is_null()) {
        return Status::InvalidArgument("delta assignment requires a literal");
      }
    } else if (!set.value.is_null() && set.value.type() != col_type) {
      return Status::InvalidArgument(
          StrFormat("column '%s' expects %s, got %s",
                    schema.column(set.column).name.c_str(),
                    ValueTypeName(col_type), ValueTypeName(set.value.type())));
    }
  }
  const TableSnapshot snap = table->Snapshot();
  const std::vector<int64_t> rids = MatchingRids(snap, stmt.where);
  if (rids.empty()) return int64_t{0};
  // Before-images come from the lane's snapshot, which is exactly what
  // UpdateRows will rewrite (the lane serializes writers), so the new rows
  // are computed up front: their index postings go in before the publish,
  // for the same reason as in ApplyInsert.
  const auto apply_sets = [&stmt, &schema](Row* row) {
    for (const SetClause& set : stmt.sets) {
      Value& cell = (*row)[static_cast<size_t>(set.column)];
      if (!set.is_delta) {
        cell = set.value;
        continue;
      }
      if (cell.is_null()) continue;  // NULL + delta stays NULL.
      if (schema.column(set.column).type == ValueType::kInt) {
        cell = Value::Int(cell.AsInt() + set.value.AsInt());
      } else {
        cell = Value::Double(cell.AsNumeric() + set.value.AsNumeric());
      }
    }
  };
  std::vector<Row> before;
  std::vector<Row> after;
  before.reserve(rids.size());
  after.reserve(rids.size());
  for (int64_t rid : rids) {
    before.push_back(snap.row(rid));
    after.push_back(before.back());
    apply_sets(&after.back());
  }
  // Superset-posting index maintenance: add postings for the new values of
  // indexed columns; the old postings stay and are filtered by probes.
  for (HashIndex* index : catalog_->IndexesOn(stmt.table)) {
    const bool rewritten =
        std::any_of(stmt.sets.begin(), stmt.sets.end(),
                    [&](const SetClause& set) {
                      return set.column == index->column();
                    });
    if (!rewritten) continue;
    for (size_t i = 0; i < rids.size(); ++i) {
      index->Insert(after[i][static_cast<size_t>(index->column())], rids[i]);
    }
  }
  const int64_t updated = table->UpdateRows(rids, apply_sets);
  for (size_t i = 0; i < rids.size(); ++i) {
    lane->delta->RecordUpdate(before[i], after[i]);
  }
  return updated;
}

Result<int64_t> WriteManager::ApplyDelete(const WriteStatement& stmt,
                                          Table* table, Lane* lane) {
  const TableSnapshot snap = table->Snapshot();
  const std::vector<int64_t> rids = MatchingRids(snap, stmt.where);
  if (rids.empty()) return int64_t{0};
  const int64_t deleted = table->DeleteRows(rids);
  // Tombstoned postings stay in the indexes; probes re-check liveness.
  for (int64_t rid : rids) lane->delta->RecordDelete(snap.row(rid));
  return deleted;
}

Result<WriteResult> WriteManager::Apply(const WriteStatement& stmt) {
  Table* table = catalog_->GetMutableTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + stmt.table);
  }
  Lane* lane = LaneFor(stmt.table, table->schema().num_columns());
  std::lock_guard<std::mutex> lock(lane->mu);

  Result<int64_t> affected = [&]() -> Result<int64_t> {
    switch (stmt.op) {
      case WriteOp::kInsert:
        return ApplyInsert(stmt, table, lane);
      case WriteOp::kUpdate:
        return ApplyUpdate(stmt, table, lane);
      case WriteOp::kDelete:
        return ApplyDelete(stmt, table, lane);
    }
    return Status::Internal("unhandled write op");
  }();
  if (!affected.ok()) return affected.status();

  WriteResult result;
  result.affected_rows = affected.value();
  // Threshold-gated incremental maintenance: fold only when accumulated
  // drift would mislead the optimizer; every fold bumps the stats version
  // exactly once (invalidating cached plans), so the gate also rations
  // plan-cache churn.
  const TableStats* base = catalog_->GetStats(stmt.table);
  if (lane->delta->ShouldFold(base, table->live_rows())) {
    TableStats folded = lane->delta->Fold(*table, base);
    Status s = catalog_->FoldStats(stmt.table, std::move(folded));
    if (s.ok()) {
      stats_folds_.fetch_add(1, std::memory_order_relaxed);
      result.stats_folded = true;
    }
  }
  result.stats_version = catalog_->stats_version();
  return result;
}

}  // namespace txn
}  // namespace popdb
