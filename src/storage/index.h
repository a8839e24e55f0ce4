#ifndef POPDB_STORAGE_INDEX_H_
#define POPDB_STORAGE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "storage/table.h"

namespace popdb {

/// Hash index over one column of a table, mapping value -> row ids. Used by
/// the executor for index nested-loop join probes and by the optimizer to
/// decide whether an index access path exists.
///
/// Layout: an immutable *base* built once at construction — an
/// open-addressing table over the distinct keys whose slots point into one
/// contiguous postings array (CSR: key i's rids are
/// `postings_[offsets_[i], offsets_[i + 1])`, ascending) — plus a small
/// write *delta* (a map under a shared_mutex) that the write path appends
/// to. A key's candidate list is its base postings followed by its delta
/// postings in append order.
///
/// The delta holds *superset* postings: INSERT appends the new rid, UPDATE
/// appends a posting for the new value (the old value's posting is left
/// behind), DELETE leaves the tombstoned rid in place. Probes therefore
/// return candidates, and the executor re-checks both the indexed condition
/// and snapshot liveness per candidate — which it must do anyway for
/// snapshot-consistent reads, since a probe sees the index's present while
/// the query reads a pinned past. A posting for a rid the reader's snapshot
/// does not contain yet is harmless; a *missing* posting for a row the
/// snapshot does contain is a wrong result, so the write path inserts
/// postings before it publishes the rows they point to.
///
/// Thread safe. A probe reads the delta flag with an acquire load and
/// touches no lock until the first Insert; afterwards it takes the shared
/// lock and copies base and delta postings into the caller's scratch only
/// for keys that have delta postings. Insert takes the exclusive lock and
/// sets the flag with a release store (serialized per table by the write
/// lane). Folding the delta into the base is not implemented.
class HashIndex {
 public:
  /// Builds the index over a snapshot of `table.column(column)`.
  HashIndex(const Table& table, int column);

  /// Builds the index over a materialized row vector (row ids are the
  /// vector positions). Used when the re-optimizer decides to index a
  /// temporary materialized view before reusing it (paper Section 2.3).
  HashIndex(const std::vector<Row>& rows, int column, std::string name);

  int column() const { return column_; }
  const std::string& table_name() const { return table_name_; }

  /// Row ids whose indexed column may equal `key` (Value equality, so
  /// Int(1) finds Double(1.0) and NULL finds NULL). Candidates are a
  /// superset under writes; callers re-check the actual row. The span
  /// points into the immutable base (valid for the index's lifetime) or,
  /// when the key has delta postings, into `*scratch` (valid until the
  /// caller's next use of it).
  std::span<const int64_t> Probe(const Value& key,
                                 std::vector<int64_t>* scratch) const;

  /// Write-path maintenance: records that `rid`'s indexed column now holds
  /// (or is about to hold) `key`.
  void Insert(const Value& key, int64_t rid);

  /// Number of distinct keys in the index.
  int64_t num_keys() const;

 private:
  /// Base build over `n` rows; `key_at(rid)` returns the indexed value of
  /// row `rid`, or null for rows to leave out.
  template <typename KeyAt>
  void BuildBase(int64_t n, KeyAt key_at);
  /// Base key index of `key`, or -1.
  int64_t FindBaseKey(const Value& key, size_t hash) const;

  std::string table_name_;
  int column_;

  // Immutable base.
  std::vector<Value> keys_;        ///< Distinct keys, first-seen order.
  std::vector<size_t> key_hash_;   ///< Value::Hash of keys_[i].
  std::vector<uint32_t> offsets_;  ///< keys_.size() + 1 postings offsets.
  std::vector<int64_t> postings_;  ///< Rids grouped by key, ascending.
  std::vector<uint32_t> slots_;    ///< Key index + 1, 0 = empty; 2^k long.

  // Write delta.
  std::atomic<bool> has_delta_{false};
  mutable std::shared_mutex mu_;
  std::unordered_map<Value, std::vector<int64_t>, ValueHash> delta_;
};

}  // namespace popdb

#endif  // POPDB_STORAGE_INDEX_H_
