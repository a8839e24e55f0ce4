#ifndef POPDB_EXEC_JOIN_H_
#define POPDB_EXEC_JOIN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "storage/index.h"
#include "storage/table.h"

namespace popdb {

/// Check condition evaluated against a materialized cardinality (used for
/// the optional lazy check on a hash-join build, and by the CHECK
/// operators in check.h).
struct CheckSpec {
  bool enabled = false;
  double lo = 0.0;
  double hi = 0.0;
  CheckFlavor flavor = CheckFlavor::kLazy;
  TableSet edge_set = 0;
  /// Record a CheckEvent but never trigger re-optimization (used by the
  /// opportunity-analysis experiments, Figure 14).
  bool observe_only = false;
};

/// Describes how a nested-loop join accesses its inner table. The inner of
/// an NLJN is always a base-table (or materialized-view) access path, as
/// produced by the Selinger-style enumerator; when `index` is set, the
/// first join condition is seeded by an index probe.
struct InnerAccess {
  const Table* table = nullptr;
  /// Pinned version of `table` to read. When left invalid, NljnOp pins the
  /// table's current version at Open (convenience for direct operator
  /// tests); the builder passes the query's shared snapshot.
  TableSnapshot snapshot;
  /// For a matview inner, rows come from here instead of `table`.
  const std::vector<Row>* mv_rows = nullptr;
  int table_id = -1;
  std::vector<ResolvedPredicate> local_preds;  ///< Positions in inner row.

  struct JoinCond {
    int outer_pos = -1;  ///< Position in the outer child's output row.
    int inner_pos = -1;  ///< Column position in the inner row.
  };
  std::vector<JoinCond> join_conds;

  /// Seeds candidates for join_conds[0] if non-null. Because live indexes
  /// are maintained as superset postings under writes (storage/index.h),
  /// candidates are re-checked against the pinned snapshot: bounds,
  /// liveness and *all* join conditions.
  const HashIndex* index = nullptr;
};

/// (Index) nested-loop join: for each outer row, finds matching inner rows
/// either through a hash-index probe or by scanning the inner table.
/// This operator pipelines: it never materializes its outer, which is why
/// the paper guards NLJN outers with LCEM/ECB checkpoints.
class NljnOp : public Operator {
 public:
  NljnOp(std::unique_ptr<Operator> outer, InnerAccess inner, MergeSpec merge,
         TableSet table_set);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  const char* name() const override { return "NLJN"; }
  std::vector<const Operator*> children() const override {
    return {outer_.get()};
  }

 private:
  /// Fetches candidate inner row ids for the current outer row.
  /// `index_key` is the outer join-key value for an index probe (null when
  /// the inner side is a full scan).
  void StartProbe(ExecContext* ctx, const Value* index_key);
  /// Advances the current outer row's probe to its next matching inner row
  /// (`*match`, kRow), to the end of its candidates (kEof), or stops on a
  /// cancel (kCancelled). Polls the cancel token once per candidate and
  /// once at the end. `outer_at(pos)` reads the outer row's value at `pos`.
  template <typename OuterAt>
  ExecStatus NextMatch(ExecContext* ctx, OuterAt outer_at, const Row** match);
  const Row& InnerRow(int64_t rid) const;
  int64_t NumInnerRows() const;
  /// True when `rid` exists and is live in the pinned inner snapshot
  /// (matview rows are always visible).
  bool InnerRowVisible(int64_t rid) const;

  std::unique_ptr<Operator> outer_;
  InnerAccess inner_;
  MergeSpec merge_;

  // The held outer batch and the index of the active row currently being
  // probed (`probing_` while its candidates last). The probe state resumes
  // across output batches, so an outer row with more matches than one
  // batch holds continues where it stopped. Matches are collected in
  // `pending_` and gathered into the output before the next outer batch is
  // pulled and before every return.
  RowBatch outer_batch_;
  bool outer_batch_valid_ = false;
  int64_t outer_idx_ = 0;
  bool probing_ = false;
  // Probe state: either index candidates or a full-scan cursor. The span
  // points into the index's immutable base, or into `index_scratch_` when
  // the key has write-delta postings (storage/index.h).
  std::span<const int64_t> index_candidates_;
  std::vector<int64_t> index_scratch_;
  size_t candidate_pos_ = 0;
  int64_t scan_rid_ = 0;
  PendingMatches pending_;
};

/// Hash join. Child 0 is the probe (outer) side, child 1 the build (inner)
/// side. The build side is fully materialized at Open; if it exceeds the
/// memory budget the operator recursively partitions both sides with a
/// fixed fan-out (extra passes over the data — the cost cliffs of
/// Section 2.2). An optional CheckSpec implements a lazy checkpoint on the
/// build cardinality.
class HsjnOp : public Operator {
 public:
  static constexpr int kFanOut = 16;
  /// Minimum build size whose key hashes are computed in parallel slices
  /// of this many rows (exec/parallel.h) when the execution has a task
  /// runner and dop > 1. The rows are linked serially either way, so the
  /// table — and the probe output — is bit-identical to a serial build.
  static constexpr int64_t kMinParallelBuildRows = 1024;

  HsjnOp(std::unique_ptr<Operator> probe, std::unique_ptr<Operator> build,
         std::vector<int> probe_keys, std::vector<int> build_keys,
         MergeSpec merge, TableSet table_set, CheckSpec build_check,
         bool offer_build_for_reuse);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  bool HarvestInfo(HarvestedResult* out) const override;
  const char* name() const override { return "HSJN"; }
  std::vector<const Operator*> children() const override {
    return {probe_.get(), build_.get()};
  }

 private:
  /// Flat chained hash table over materialized build rows: one key hash
  /// per row, a power-of-two array of bucket heads and one `next` link per
  /// row. Rows are linked from last to first, so every chain — and
  /// therefore every probe's match list — runs in ascending build-row
  /// order. Keys are compared as Values and hashed as HashRow of the key
  /// values. The serial, parallel and spill paths all use it.
  struct HashTable {
    static constexpr uint32_t kEnd = UINT32_MAX;

    std::vector<size_t> hashes;  ///< Key hash per build row (caller fills).
    std::vector<uint32_t> head;  ///< Bucket -> first row, kEnd when empty.
    std::vector<uint32_t> next;  ///< Row -> next row in its bucket, or kEnd.

    /// Links rows [0, hashes.size()) into their buckets.
    void Link();
    /// First row in `hash`'s bucket (kEnd when empty). Chains hold every
    /// row of the bucket; callers skip rows whose hash or key differs.
    uint32_t First(size_t hash) const {
      return head[hash & (head.size() - 1)];
    }
  };

  /// Fills `table` with the build-key hashes of `rows` and links it.
  /// `workers` > 1 hashes slices in parallel on `ctx`'s task runner.
  void BuildTable(ExecContext* ctx, const std::vector<Row>& rows,
                  int workers, HashTable* table) const;
  /// Next row at or after chain position `*cursor` whose build key equals
  /// the probe key (hash `hash`, values `probe_at(k)`); advances `*cursor`
  /// past it. Returns HashTable::kEnd when the chain is exhausted.
  template <typename ProbeAt>
  uint32_t NextMatch(const HashTable& table,
                     const std::vector<Row>& rows, size_t hash,
                     ProbeAt probe_at, uint32_t* cursor) const;
  /// Recursively partitions build/probe rows until each build partition
  /// fits in memory, charging one work unit per row per level.
  ExecStatus Join(ExecContext* ctx, std::vector<Row>* build,
                  std::vector<Row>* probe, int depth);

  std::unique_ptr<Operator> probe_;
  std::unique_ptr<Operator> build_;
  std::vector<int> probe_keys_;
  std::vector<int> build_keys_;
  MergeSpec merge_;
  CheckSpec build_check_;
  bool offer_build_for_reuse_;

  std::vector<Row> build_rows_;  ///< Kept alive for harvesting.
  bool build_complete_ = false;
  std::vector<Row> output_;  ///< Joined rows (spill mode, computed in Open).
  size_t next_out_ = 0;
  bool in_memory_mode_ = false;
  HashTable table_;  ///< Streaming (in-memory) mode: over build_rows_.
  RowBatch probe_batch_;
  PendingMatches pending_;
};

/// Merge join over two inputs sorted on the join keys (the optimizer
/// inserts SortOp children, or reads a view already sorted on them). Pulls
/// batches from both inputs and walks one current row on each side;
/// buffers each right-side key group to emit the cross product with equal
/// left rows, reusing it for following left rows of the same key. Matches
/// are collected as (left raw index, right group row) pairs and gathered
/// before the held left batch is replaced and before every return.
///
/// Work is charged as the current row of a side advances, one unit per
/// row. Rows an input produced past the current row when the join stops
/// (EOF on the other side, or Close) were never reached and are handed
/// back to it (Operator::ReturnUnconsumed), so the work and produced-row
/// counts do not depend on the batch size.
class MgjnOp : public Operator {
 public:
  MgjnOp(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
         std::vector<int> left_keys, std::vector<int> right_keys,
         MergeSpec merge, TableSet table_set);

  ExecStatus OpenImpl(ExecContext* ctx) override;
  ExecStatus NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  void CloseImpl(ExecContext* ctx) override;
  const char* name() const override { return "MGJN"; }
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  /// One sorted input: its held batch and the current row in it.
  struct Input {
    Operator* op = nullptr;
    RowBatch batch;
    int64_t idx = 0;     ///< Active index of the current row.
    bool valid = false;  ///< A current row exists (false at EOF or abort).
    const Value& At(int pos) const { return batch.At(pos, idx); }
  };

  /// Moves `in` to its next row, pulling a new batch once the held one is
  /// used up, and charges one work unit for it. Returns kRow, kEof or the
  /// input's abort status. Gathers `pending_` into `out` before the held
  /// left batch is replaced.
  ExecStatus Advance(ExecContext* ctx, Input* in, RowBatch* out);
  /// Compares the current left row's keys with `right_at(k)`.
  template <typename RightAt>
  int CompareKeys(RightAt right_at) const;
  /// Hands rows of `in`'s held batch past its current row back to the
  /// input (they were produced but never reached).
  void ReturnHeldRows(ExecContext* ctx, Input* in);

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  MergeSpec merge_;

  Input left_in_, right_in_;
  std::vector<Row> right_group_;  ///< Current right key group.
  size_t group_pos_ = 0;
  bool in_group_ = false;
  PendingMatches pending_;
};

}  // namespace popdb

#endif  // POPDB_EXEC_JOIN_H_
