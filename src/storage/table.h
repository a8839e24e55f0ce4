#ifndef POPDB_STORAGE_TABLE_H_
#define POPDB_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/schema.h"

namespace popdb {

class Table;

/// Rows per chunk (power of two so rid -> chunk is a shift/mask).
inline constexpr int kTableChunkShift = 10;
inline constexpr int64_t kTableChunkRows = int64_t{1} << kTableChunkShift;

inline size_t ChunkIndex(int64_t rid) {
  return static_cast<size_t>(rid >> kTableChunkShift);
}
inline size_t ChunkOffset(int64_t rid) {
  return static_cast<size_t>(rid & (kTableChunkRows - 1));
}

/// One column of a chunk: the cells of the column's type in `ints`,
/// `doubles` or `strings` (the other two vectors stay empty) plus a null
/// mask. A NULL cell holds 0 or "" in its typed vector.
struct ColumnChunk {
  ValueType type = ValueType::kNull;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  std::vector<uint8_t> nulls;  ///< 1 = NULL.

  /// The cell at `off` as a Value.
  Value Get(size_t off) const {
    Value v;
    Load(off, &v);
    return v;
  }
  /// Sets `*out` to the cell at `off`, reusing its string buffer.
  void Load(size_t off, Value* out) const {
    if (nulls[off] != 0) {
      out->SetNull();
    } else if (type == ValueType::kInt) {
      out->SetInt(ints[off]);
    } else if (type == ValueType::kDouble) {
      out->SetDouble(doubles[off]);
    } else {
      out->SetString(strings[off]);
    }
  }
  /// Value equality of the cell at `off` and `v` (NULL equals NULL, Int(1)
  /// equals Double(1.0), NaN equals every number), read in place.
  bool Equals(size_t off, const Value& v) const {
    if (type == ValueType::kInt && v.type() == ValueType::kInt) {
      return nulls[off] == 0 && ints[off] == v.AsInt();
    }
    return EqualsSlow(off, v);
  }
  /// Equals for every case but an int cell against an int value.
  bool EqualsSlow(size_t off, const Value& v) const;
  /// Value::Hash of the cell at `off`.
  size_t Hash(size_t off) const;
  /// Appends `v` (NULL or of the column's type), moving a string in.
  void Append(Value v);
  /// Overwrites the cell at `off` with `v`.
  void Set(size_t off, Value v);
};

/// One fixed-capacity slice of a table's row space, stored by column.
/// Chunks are immutable once shared: a writer may mutate a chunk in place
/// only while it is provably unreachable by any reader (see Table's
/// copy-on-write protocol).
struct TableChunk {
  std::vector<ColumnChunk> columns;  ///< One per schema column.
  /// 1 = live, 0 = tombstoned by a DELETE. One entry per row slot.
  std::vector<uint8_t> live;

  size_t size() const { return live.size(); }
};

/// An immutable version of a table's contents: the chunk list plus row
/// accounting. Published atomically by writers; readers pin one version for
/// the duration of a query (TableSnapshot), so in-flight scans never see a
/// half-applied statement.
struct TableVersion {
  std::vector<std::shared_ptr<TableChunk>> chunks;
  int64_t num_rows = 0;   ///< Total row slots, tombstones included.
  int64_t live_rows = 0;  ///< Slots not tombstoned.
};

/// A pinned, immutable view of one table version. Copyable and cheap (two
/// pointers); keeps the version (and every chunk it references) alive for
/// as long as any snapshot holds it. Row ids are stable across versions:
/// appends extend the id space, deletes tombstone in place, updates replace
/// the row at its id. Readers take the typed cells of a chunk in place;
/// MaterializeRow copies one row out for the cold paths.
class TableSnapshot {
 public:
  TableSnapshot() = default;
  TableSnapshot(const Table* table, std::shared_ptr<const TableVersion> v)
      : table_(table), version_(std::move(v)) {}

  bool valid() const { return version_ != nullptr; }
  const Table* table() const { return table_; }

  int64_t num_rows() const {
    return version_ == nullptr ? 0 : version_->num_rows;
  }
  int64_t live_rows() const {
    return version_ == nullptr ? 0 : version_->live_rows;
  }
  size_t num_chunks() const {
    return version_ == nullptr ? 0 : version_->chunks.size();
  }
  const TableChunk& chunk(size_t i) const { return *version_->chunks[i]; }
  /// The chunk holding `rid` (its offset there is ChunkOffset(rid)).
  const TableChunk& chunk_of(int64_t rid) const {
    return chunk(ChunkIndex(rid));
  }
  bool alive(int64_t rid) const {
    return chunk_of(rid).live[ChunkOffset(rid)] != 0;
  }
  /// The cell of `column` at `rid`, by value.
  Value Cell(int64_t rid, int column) const {
    return chunk_of(rid).columns[static_cast<size_t>(column)].Get(
        ChunkOffset(rid));
  }
  /// Copies the row at `rid` out of its columns.
  Row MaterializeRow(int64_t rid) const;

 private:
  const Table* table_ = nullptr;
  std::shared_ptr<const TableVersion> version_;
};

/// An in-memory columnar table with chunked copy-on-write multi-versioning.
///
/// Readers call Snapshot() and see a frozen, consistent version; writers
/// mutate through AppendRow(s)/UpdateRows/DeleteRows, each of which
/// publishes exactly one new version (statement-level atomicity). Only the
/// chunks a statement touches are copied, so a write costs O(touched
/// chunks), not O(table). Before the first snapshot is ever pinned (bulk
/// load), the head version is mutated in place — appends stay O(1).
///
/// Concurrency contract: any number of concurrent readers; mutations must
/// be serialized per table by the caller (txn::WriteManager's per-table
/// write lane, or single-threaded load code). The head-pointer handoff
/// itself is mutex-guarded, so Snapshot() may race freely with a writer.
class Table {
 public:
  Table(std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  /// Moves are for construction-time plumbing (Catalog::AddTable) only;
  /// they must not race with any other access to either table.
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Pins the current version. Thread safe against concurrent writers.
  TableSnapshot Snapshot() const;

  /// Head-version row accounting. Thread safe.
  int64_t num_rows() const;
  int64_t live_rows() const;

  /// Appends a row; it must match the schema arity (types are checked in
  /// debug via POPDB_DCHECK against non-null cells).
  void AppendRow(Row row);

  /// Appends a batch of rows under a single atomic publish; returns the
  /// rid of the first appended row.
  int64_t AppendRows(std::vector<Row> rows);

  /// Replaces the row at each rid via `mutate` (called with a copy of the
  /// current row) under a single atomic publish. Dead rids are skipped.
  /// Returns the number of rows actually updated.
  int64_t UpdateRows(const std::vector<int64_t>& rids,
                     const std::function<void(Row*)>& mutate);

  /// Tombstones each live rid under a single atomic publish; returns the
  /// number of rows newly deleted.
  int64_t DeleteRows(const std::vector<int64_t>& rids);

  /// Hint only (chunked storage grows in fixed slices).
  void Reserve(int64_t n);

 private:
  /// True when the head version is provably unreachable by any reader so
  /// in-place mutation is invisible: no snapshot has EVER been pinned.
  /// The sticky flag (set under mu_ by Snapshot()) is deliberately used
  /// instead of head_.use_count(): a reader that already dropped its
  /// snapshot decrements the count with relaxed ordering, so a use-count
  /// of 1 would not happens-before-order the reader's loads against our
  /// in-place stores. Caller holds mu_.
  bool HeadUnsharedLocked() const;
  /// AppendRow(s): appends `rows` under one publish, returns the first rid.
  int64_t AppendSpan(std::span<Row> rows);
  /// Clones head_ for copy-on-write: fresh version object, shared chunk
  /// pointers. Caller holds mu_.
  std::shared_ptr<TableVersion> CloneHeadLocked() const;

  std::string name_;
  Schema schema_;

  mutable std::mutex mu_;
  std::shared_ptr<TableVersion> head_;
  /// Set once the first snapshot is pinned; from then on every mutation
  /// copy-on-writes even if all snapshots were since released.
  mutable bool ever_snapshotted_ = false;
};

/// Per-query registry of pinned table snapshots: the first request for a
/// table pins its current version, later requests return the same pin, so
/// every operator (and every re-optimization attempt) of one query
/// execution reads the same frozen data even while writers publish new
/// versions. Not thread safe — owned by the single-threaded plan-build
/// phase; the snapshots it hands out are freely shareable.
class TableSnapshotSet {
 public:
  const TableSnapshot& Pin(const Table& table);

 private:
  std::map<std::string, TableSnapshot> snapshots_;
};

}  // namespace popdb

#endif  // POPDB_STORAGE_TABLE_H_
