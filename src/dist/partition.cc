#include "dist/partition.h"

#include <algorithm>
#include <limits>

#include "common/string_util.h"

namespace popdb::dist {

bool PartitionSpec::IsPartitioned(const std::string& table) const {
  return KeyColumn(table) >= 0;
}

int PartitionSpec::KeyColumn(const std::string& table) const {
  for (const TableKey& key : keys) {
    if (key.table == table) return key.column;
  }
  return -1;
}

PartitionSpec TpchPartitionSpec() {
  PartitionSpec spec;
  // The two fact tables share the order-key domain; dimensions replicate.
  spec.keys = {{"orders", 0}, {"lineitem", 0}};
  spec.indexes = {
      {"region", "r_regionkey"},   {"nation", "n_nationkey"},
      {"supplier", "s_suppkey"},   {"customer", "c_custkey"},
      {"orders", "o_orderkey"},    {"lineitem", "l_orderkey"},
      {"lineitem", "l_partkey"},   {"part", "p_partkey"},
      {"partsupp", "ps_partkey"},  {"partsupp", "ps_suppkey"},
      {"orders", "o_custkey"},     {"supplier", "s_nationkey"},
      {"customer", "c_nationkey"},
  };
  return spec;
}

PartitionSpec DmvPartitionSpec() {
  PartitionSpec spec;
  // Everything keyed by car id co-partitions; owner/dealer/violation
  // replicate (small dimensions).
  spec.keys = {{"car", 0},
               {"registration", 1},
               {"accident", 1},
               {"insurance", 1},
               {"inspection", 1}};
  spec.indexes = {
      {"owner", "o_id"},
      {"car", "c_id"},
      {"car", "c_owner_id"},
      {"violation", "v_owner_id"},
  };
  return spec;
}

PartitionSpec ToyPartitionSpec() {
  PartitionSpec spec;
  // orders.o_id and items.i_order share the order-id domain.
  spec.keys = {{"orders", 0}, {"items", 0}};
  return spec;
}

Result<std::vector<KeyRange>> ComputeRanges(const Catalog& full,
                                            const PartitionSpec& spec,
                                            int num_shards) {
  if (num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  if (spec.keys.empty()) {
    return Status::InvalidArgument("partition spec has no key tables");
  }
  int64_t min_key = std::numeric_limits<int64_t>::max();
  int64_t max_key = std::numeric_limits<int64_t>::min();
  for (const PartitionSpec::TableKey& key : spec.keys) {
    const Table* table = full.GetTable(key.table);
    if (table == nullptr) {
      return Status::NotFound("partitioned table '" + key.table +
                              "' not in catalog");
    }
    const TableSnapshot snap = table->Snapshot();
    for (int64_t rid = 0; rid < snap.num_rows(); ++rid) {
      if (!snap.alive(rid)) continue;
      const Value v = snap.Cell(rid, key.column);
      if (v.is_null()) continue;
      const int64_t k = v.AsInt();
      min_key = std::min(min_key, k);
      max_key = std::max(max_key, k);
    }
  }
  if (min_key > max_key) {
    return Status::InvalidArgument("partition-key domain is empty");
  }
  // Half-open cover of [min_key, max_key]; the last shard takes the tail.
  const int64_t span = max_key - min_key + 1;
  const int64_t step = std::max<int64_t>(1, span / num_shards);
  std::vector<KeyRange> ranges;
  ranges.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    KeyRange r;
    r.lo = min_key + step * s;
    r.hi = s == num_shards - 1 ? max_key + 1 : min_key + step * (s + 1);
    if (r.lo > max_key + 1) r.lo = max_key + 1;
    if (r.hi < r.lo) r.hi = r.lo;
    ranges.push_back(r);
  }
  return ranges;
}

Status BuildShardCatalog(const Catalog& full, const PartitionSpec& spec,
                         const std::vector<KeyRange>& ranges, int shard,
                         int histogram_buckets, Catalog* out) {
  if (shard < 0 || shard >= static_cast<int>(ranges.size())) {
    return Status::InvalidArgument(
        StrFormat("shard %d out of range (%d ranges)", shard,
                  static_cast<int>(ranges.size())));
  }
  const KeyRange& range = ranges[static_cast<size_t>(shard)];
  for (const std::string& name : full.TableNames()) {
    const Table* src = full.GetTable(name);
    Table copy(name, src->schema());
    const int key_col = spec.KeyColumn(name);
    const TableSnapshot snap = src->Snapshot();
    if (key_col < 0) {
      copy.Reserve(snap.live_rows());
    }
    for (int64_t rid = 0; rid < snap.num_rows(); ++rid) {
      if (!snap.alive(rid)) continue;
      Row row = snap.MaterializeRow(rid);
      if (key_col < 0) {
        copy.AppendRow(std::move(row));
        continue;
      }
      const Value& v = row[static_cast<size_t>(key_col)];
      if (!v.is_null() && range.Contains(v.AsInt())) {
        copy.AppendRow(std::move(row));
      }
    }
    Status s = out->AddTable(std::move(copy));
    if (!s.ok()) return s;
  }
  // Shard-local statistics: the shard's optimizer-facing metadata must
  // describe the shard's data, not the global table.
  out->AnalyzeAll(histogram_buckets);
  for (const auto& [table, column] : spec.indexes) {
    Status s = out->CreateIndex(table, column);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace popdb::dist
