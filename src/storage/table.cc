#include "storage/table.h"

#include <algorithm>

namespace popdb {

namespace {

void CheckRowShape(const Schema& schema, const Row& row) {
  POPDB_DCHECK(static_cast<int>(row.size()) == schema.num_columns());
  for (int c = 0; c < schema.num_columns(); ++c) {
    const Value& v = row[static_cast<size_t>(c)];
    POPDB_DCHECK(v.is_null() || v.type() == schema.column(c).type);
    (void)v;
  }
  (void)schema;
  (void)row;
}

Row MaterializeChunkRow(const TableChunk& chunk, size_t off) {
  Row row(chunk.columns.size());
  for (size_t c = 0; c < row.size(); ++c) chunk.columns[c].Load(off, &row[c]);
  return row;
}

/// Appends `row` to `version`, opening a chunk typed by `schema` when the
/// last one is full. The last chunk must be exclusively owned by `version`
/// (fresh or copy-on-written).
void AppendToVersion(const Schema& schema, TableVersion* version, Row row) {
  if (version->chunks.empty() ||
      static_cast<int64_t>(version->chunks.back()->size()) ==
          kTableChunkRows) {
    auto chunk = std::make_shared<TableChunk>();
    const size_t n = static_cast<size_t>(kTableChunkRows);
    chunk->columns.resize(static_cast<size_t>(schema.num_columns()));
    for (int c = 0; c < schema.num_columns(); ++c) {
      ColumnChunk& col = chunk->columns[static_cast<size_t>(c)];
      col.type = schema.column(c).type;
      if (col.type == ValueType::kInt) col.ints.reserve(n);
      if (col.type == ValueType::kDouble) col.doubles.reserve(n);
      if (col.type == ValueType::kString) col.strings.reserve(n);
      col.nulls.reserve(n);
    }
    chunk->live.reserve(n);
    version->chunks.push_back(std::move(chunk));
  }
  TableChunk& last = *version->chunks.back();
  for (size_t c = 0; c < row.size(); ++c) {
    last.columns[c].Append(std::move(row[c]));
  }
  last.live.push_back(1);
  ++version->num_rows;
  ++version->live_rows;
}

bool IsNumeric(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDouble;
}

}  // namespace

bool ColumnChunk::EqualsSlow(size_t off, const Value& v) const {
  if (nulls[off] != 0 || v.is_null()) return nulls[off] != 0 && v.is_null();
  if (type == ValueType::kString || v.type() == ValueType::kString) {
    return type == v.type() && strings[off] == v.AsString();
  }
  POPDB_DCHECK(IsNumeric(type));
  // Value::Compare's numeric order: NaN is neither below nor above.
  const double a = type == ValueType::kInt ? static_cast<double>(ints[off])
                                           : doubles[off];
  const double b = v.AsNumeric();
  return !(a < b) && !(a > b);
}

size_t ColumnChunk::Hash(size_t off) const {
  if (nulls[off] != 0) return Value().Hash();
  switch (type) {
    case ValueType::kInt:
      return std::hash<double>()(static_cast<double>(ints[off]));
    case ValueType::kDouble:
      return std::hash<double>()(doubles[off]);
    default:
      return std::hash<std::string>()(strings[off]);
  }
}

void ColumnChunk::Append(Value v) {
  nulls.push_back(v.is_null() ? 1 : 0);
  if (type == ValueType::kInt) {
    ints.push_back(v.is_null() ? 0 : v.AsInt());
  } else if (type == ValueType::kDouble) {
    doubles.push_back(v.is_null() ? 0.0 : v.AsDouble());
  } else if (type == ValueType::kString) {
    strings.emplace_back();
    if (!v.is_null()) strings.back() = std::move(v).TakeString();
  }
}

void ColumnChunk::Set(size_t off, Value v) {
  nulls[off] = v.is_null() ? 1 : 0;
  if (type == ValueType::kInt) {
    ints[off] = v.is_null() ? 0 : v.AsInt();
  } else if (type == ValueType::kDouble) {
    doubles[off] = v.is_null() ? 0.0 : v.AsDouble();
  } else if (type == ValueType::kString) {
    strings[off] = v.is_null() ? std::string() : std::move(v).TakeString();
  }
}

Row TableSnapshot::MaterializeRow(int64_t rid) const {
  return MaterializeChunkRow(chunk_of(rid), ChunkOffset(rid));
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      head_(std::make_shared<TableVersion>()) {}

Table::Table(Table&& other) noexcept
    : name_(std::move(other.name_)),
      schema_(std::move(other.schema_)),
      head_(std::move(other.head_)) {}

Table& Table::operator=(Table&& other) noexcept {
  if (this != &other) {
    name_ = std::move(other.name_);
    schema_ = std::move(other.schema_);
    head_ = std::move(other.head_);
  }
  return *this;
}

TableSnapshot Table::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ever_snapshotted_ = true;
  return TableSnapshot(this, head_);
}

int64_t Table::num_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_->num_rows;
}

int64_t Table::live_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_->live_rows;
}

bool Table::HeadUnsharedLocked() const {
  // A dropped snapshot decrements use counts without ordering its reads
  // before our writes, so counts alone cannot prove exclusivity — once a
  // snapshot was ever pinned, stay on the copy-on-write path forever.
  if (ever_snapshotted_) return false;
  if (head_.use_count() != 1) return false;
  return head_->chunks.empty() || head_->chunks.back().use_count() == 1;
}

std::shared_ptr<TableVersion> Table::CloneHeadLocked() const {
  auto next = std::make_shared<TableVersion>();
  next->chunks = head_->chunks;  // Share every chunk pointer.
  next->num_rows = head_->num_rows;
  next->live_rows = head_->live_rows;
  return next;
}

void Table::AppendRow(Row row) { AppendSpan({&row, 1}); }

int64_t Table::AppendRows(std::vector<Row> rows) { return AppendSpan(rows); }

int64_t Table::AppendSpan(std::span<Row> rows) {
  for (const Row& row : rows) CheckRowShape(schema_, row);
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t first_rid = head_->num_rows;
  // Bulk-load fast path: while no snapshot can observe the head (checked
  // under the same mutex Snapshot() pins through), append in place; the
  // rows are invisible until a reader pins after us.
  TableVersion* target = head_.get();
  std::shared_ptr<TableVersion> next;
  if (!HeadUnsharedLocked()) {
    next = CloneHeadLocked();
    if (!next->chunks.empty() &&
        static_cast<int64_t>(next->chunks.back()->size()) < kTableChunkRows) {
      next->chunks.back() = std::make_shared<TableChunk>(*next->chunks.back());
    }
    target = next.get();
  }
  for (Row& row : rows) AppendToVersion(schema_, target, std::move(row));
  if (next != nullptr) head_ = std::move(next);
  return first_rid;
}

int64_t Table::UpdateRows(const std::vector<int64_t>& rids,
                          const std::function<void(Row*)>& mutate) {
  if (rids.empty()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<TableVersion> next = CloneHeadLocked();
  int64_t updated = 0;
  for (int64_t rid : rids) {
    if (rid < 0 || rid >= next->num_rows) continue;
    const size_t ci = ChunkIndex(rid);
    const size_t off = ChunkOffset(rid);
    if (next->chunks[ci]->live[off] == 0) continue;
    if (next->chunks[ci].use_count() > 1) {
      // Copy-on-write: the chunk is shared with the (possibly pinned)
      // previous version.
      next->chunks[ci] = std::make_shared<TableChunk>(*next->chunks[ci]);
    }
    TableChunk& chunk = *next->chunks[ci];
    Row copy = MaterializeChunkRow(chunk, off);
    mutate(&copy);
    CheckRowShape(schema_, copy);
    for (size_t c = 0; c < copy.size(); ++c) {
      chunk.columns[c].Set(off, std::move(copy[c]));
    }
    ++updated;
  }
  head_ = std::move(next);  // Single publish: the statement is atomic.
  return updated;
}

int64_t Table::DeleteRows(const std::vector<int64_t>& rids) {
  if (rids.empty()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<TableVersion> next = CloneHeadLocked();
  int64_t deleted = 0;
  for (int64_t rid : rids) {
    if (rid < 0 || rid >= next->num_rows) continue;
    const size_t ci = ChunkIndex(rid);
    const size_t off = ChunkOffset(rid);
    if (next->chunks[ci]->live[off] == 0) continue;
    if (next->chunks[ci].use_count() > 1) {
      next->chunks[ci] = std::make_shared<TableChunk>(*next->chunks[ci]);
    }
    next->chunks[ci]->live[off] = 0;
    --next->live_rows;
    ++deleted;
  }
  head_ = std::move(next);
  return deleted;
}

void Table::Reserve(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  // Hint only: skip when a reader may be iterating the chunk list.
  if (!HeadUnsharedLocked()) return;
  head_->chunks.reserve(
      static_cast<size_t>((n + kTableChunkRows - 1) / kTableChunkRows));
}

const TableSnapshot& TableSnapshotSet::Pin(const Table& table) {
  auto it = snapshots_.find(table.name());
  if (it == snapshots_.end()) {
    it = snapshots_.emplace(table.name(), table.Snapshot()).first;
  }
  return it->second;
}

}  // namespace popdb
