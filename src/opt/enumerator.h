#ifndef POPDB_OPT_ENUMERATOR_H_
#define POPDB_OPT_ENUMERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "opt/cardinality.h"
#include "opt/cost_model.h"
#include "opt/plan.h"
#include "opt/query.h"
#include "storage/catalog.h"

namespace popdb {

/// A temporary materialized view (from a previous execution step of the
/// same query) offered to the optimizer. The optimizer costs a scan of the
/// view against recomputing the subplan and picks whichever is cheaper
/// (Section 2.3 — reuse is a cost-based decision, never forced).
struct AvailableMatView {
  std::string name;
  TableSet set = 0;
  double card = 0.0;
  const std::vector<Row>* rows = nullptr;
  /// Canonical positions the rows are sorted on (ascending); a merge join
  /// over the view can skip its sort when these cover the join keys.
  std::vector<int> sorted_positions;
};

/// Join methods the optimizer may use. Experiments toggle these (e.g. the
/// LC overhead study disables hash join to create many SORT/TEMP
/// materialization points).
struct JoinMethodConfig {
  bool enable_nljn = true;
  bool enable_hsjn = true;
  bool enable_mgjn = true;
  bool consider_matviews = true;

  /// "Conservative mode of query execution" (paper Section 7, Checking
  /// Opportunities): bias plan choice toward operators that offer more
  /// re-optimization opportunities — merge joins materialize both inputs
  /// (two lazy checkpoints), hash joins one, pipelined NLJNs none. A
  /// candidate's comparison cost is inflated by
  /// (1 + bias * operator_risk); its recorded cost stays unbiased so the
  /// validity analysis still reasons about true costs. 0 disables.
  double volatile_mode_bias = 0.0;
};

/// Identity of one offered materialized view, captured when the memo is
/// committed. A view whose identity changed between optimizations (new
/// rows, different sort order, dropped/replaced) dirties every memo entry
/// whose table set could have used it.
struct MemoMatViewKey {
  std::string name;
  TableSet set = 0;
  double card = 0.0;
  const std::vector<Row>* rows = nullptr;
  std::vector<int> sorted_positions;

  bool operator==(const MemoMatViewKey&) const = default;
};

/// Physical choice the DP table records for one table set.
enum class DpOp : uint8_t {
  kNone,         ///< No plan for this set (the entry's valid bit is off).
  kTableScan,    ///< Full scan of the set's single table.
  kMatViewScan,  ///< Scan of offered matview `DpEntry::mv`.
  kHsjn,         ///< child0 = probe, child1 = build.
  kMgjn,         ///< child0 / child1 = left / right merge input.
  kNljn,         ///< child0 = outer, child1 = the inner table (one bit).
  kNljnOverMv,   ///< NLJN probing matview `DpEntry::mv` covering child1.
};

/// One best plan of the dynamic-programming table, as plain data: the DP
/// loop costs candidates arithmetically and keeps only the winner's
/// recipe here; JoinEnumerator builds PlanNodes for the chosen plan alone.
/// Table sets are stored in 32 bits (DP is capped at 20 tables).
struct DpEntry {
  DpOp op = DpOp::kNone;
  /// Taken from the IncrementalMemo by the current enumeration; the DP
  /// passes skip the set.
  bool reused = false;
  /// Index into the offered matviews (kMatViewScan, kNljnOverMv), else -1.
  int16_t mv = -1;
  int32_t assumptions = 0;
  uint32_t child0 = 0;  ///< Table set of the first child slot.
  uint32_t child1 = 0;  ///< Table set of the second child slot.
  double card = 0.0;
  double cost = 0.0;    ///< Cumulative, unbiased.
};

/// Persistent dynamic-programming table carried across the optimizations of
/// one progressive execution (and across the coordinator's cluster-level
/// re-optimizations). The enumeration writes its DP entries straight into
/// the memo's table; on success it commits the feedback snapshot and
/// matview identities the entries were computed under. The next
/// enumeration for the same query keeps every entry whose table set
/// contains no changed feedback key and no changed matview — by
/// construction those entries are bit-identical to what a from-scratch
/// enumeration would produce, because SubsetCard(S) only ever reads
/// feedback entries that are subsets of S — and clears the rest, which the
/// normal DP passes recompute upward through their supersets.
///
/// Entries are plain data and the plan tree is built from them after every
/// enumeration, so reuse never leaks state between attempts. Not thread
/// safe; one memo belongs to one executor.
class IncrementalMemo {
 public:
  /// Drops all state; the next enumeration runs full DP.
  void Reset() {
    entries_.clear();
    skeleton_.reset();
    feedback_.clear();
    matviews_.clear();
    fingerprint_ = 0;
    valid_ = false;
  }

  /// Warm start from a cached pre-checkpoint plan skeleton (plan-cache
  /// near miss: same signature, stale feedback digest; or an exact hit).
  /// Every join-node subtree of the skeleton with table set S is the
  /// install-time DP best plan for S, so it seeds the table entry for S;
  /// `feedback` must be the install-time snapshot so the next enumeration
  /// can diff against it. The skeleton is only kept here and converted to
  /// table entries when an enumeration actually uses the memo, so an exact
  /// hit that never re-optimizes pays nothing for the seed.
  void SeedFromSkeleton(std::shared_ptr<const PlanNode> skeleton,
                        FeedbackMap feedback, uint64_t fingerprint);

  bool valid() const { return valid_; }
  /// Table sets holding a plan (diagnostics).
  int64_t entries() const;

 private:
  friend class JoinEnumerator;

  /// Writes the pending skeleton's join nodes into a fresh table for a
  /// query of `num_tables` tables.
  void ConvertSkeleton(int num_tables);

  /// Indexed by TableSet; empty until the first enumeration.
  std::vector<DpEntry> entries_;
  /// Pending warm start (see SeedFromSkeleton); null once converted.
  std::shared_ptr<const PlanNode> skeleton_;
  /// Feedback snapshot the entries were computed under.
  FeedbackMap feedback_;
  /// Identities of the matviews offered to the committing enumeration, in
  /// offer order (DpEntry::mv indexes this list).
  std::vector<MemoMatViewKey> matviews_;
  /// QueryMemoFingerprint of the committing query; a mismatch invalidates
  /// the whole memo.
  uint64_t fingerprint_ = 0;
  bool valid_ = false;
};

/// Observer of structurally equivalent alternatives (same table set, same
/// unordered child partition) of the chosen plan's join nodes. The POP
/// validity-range analysis implements this interface;
/// JoinEnumerator::NarrowPlanRanges drives it.
class PruneObserver {
 public:
  virtual ~PruneObserver() = default;

  /// `winner` survives, `loser` is pruned. The observer may narrow
  /// `winner->child_validity`.
  virtual void OnPrune(PlanNode* winner, const PlanNode& loser) = 0;
};

/// Selinger-style dynamic-programming join enumerator: one best plan per
/// table subset, bushy partitions, hash/merge/nested-loop candidates, and
/// materialized-view seeding. Candidates are costed arithmetically into a
/// flat per-set table of DpEntry; PlanNodes are built only for the final
/// plan. Produces the join tree only; the Optimizer facade adds
/// aggregation / sort / projection on top.
class JoinEnumerator {
 public:
  JoinEnumerator(const Catalog& catalog, const QuerySpec& query,
                 const CardinalityEstimator& estimator, const CostModel& cost,
                 const JoinMethodConfig& methods,
                 const std::vector<AvailableMatView>* matviews,
                 IncrementalMemo* memo = nullptr);

  /// Runs DP over all table subsets and returns the best full join tree, a
  /// fresh tree nobody else shares. With an attached memo, entries
  /// untouched by feedback/matview changes since the memo's commit are
  /// reused instead of re-enumerated, and the table is committed back on
  /// success.
  Result<std::shared_ptr<PlanNode>> EnumerateJoinTree();

  /// Narrows the validity ranges of every join edge of (the already
  /// chosen) `root` by regenerating the structurally equivalent
  /// alternatives of each join node and invoking `observer` as if they
  /// were pruned. By the structural-equivalence theorem (Section 2.2)
  /// ranges are only needed on the final plan's edges, so doing this as a
  /// post-pass costs O(plan size) cost-model evaluations instead of
  /// O(3^n).
  void NarrowPlanRanges(PlanNode* root, PruneObserver* observer);

  /// Number of candidate plans costed (diagnostics).
  int64_t candidates_considered() const { return candidates_; }

  /// Memo entries reused / discarded by the last EnumerateJoinTree call
  /// (0 without a memo or when the memo was empty).
  int64_t memo_reused() const { return memo_reused_; }
  int64_t memo_invalidated() const { return memo_invalidated_; }

 private:
  /// One join predicate incident to a potential NLJN inner table, with its
  /// index lookup and probe cost done once per enumeration.
  struct ProbePath {
    TableSet other = 0;        ///< Bit of the table on the other side.
    int column = -1;           ///< Inner-side column.
    bool indexed = false;      ///< The catalog indexes `column`.
    double index_probe = 0.0;  ///< Per-probe cost through that index.
  };

  /// Sizes the table (reusing memo entries when allowed) and precomputes
  /// the per-query inputs of the DP loop.
  void PrepareTable();
  /// Clears every memo entry whose table set contains a changed feedback
  /// key or matview and marks the rest reused.
  void ReuseMemoEntries();
  /// Commits the current feedback/matview identities to the memo after a
  /// successful enumeration (the entries already live there).
  void CommitMemo();
  /// Identity list of the currently offered matviews.
  std::vector<MemoMatViewKey> CurrentMatViewKeys() const;
  DpEntry BestAccessPath(int table_id);
  /// The full-scan access path of `table_id`: the entry the DP costs and
  /// MakeScan builds from.
  DpEntry ScanEntry(int table_id) const;
  /// A scan of offered matview `mv` standing for `set` (its rows are
  /// actual, so the entry carries no estimation assumptions).
  DpEntry MatViewEntry(int mv, TableSet set) const;
  /// Join predicate indexes with one side in `left` and the other in
  /// `right`.
  std::vector<int> CrossingJoins(TableSet left, TableSet right) const;

  /// Costs every candidate of the split (`left`, `right`) of `set` and
  /// offers the partition winner. `connected` says whether a join
  /// predicate crosses the split; `set_card` / `set_assumptions` are the
  /// output set's estimate and assumption count, hoisted by the DP loop.
  void AddJoinCandidates(TableSet set, TableSet left, TableSet right,
                         bool connected, double set_card,
                         int set_assumptions);
  /// Cost of `side`'s best plan as a merge-join input against `other`:
  /// plus a sort unless it is a matview already sorted on the join keys.
  double MergeInputCost(TableSet side, TableSet other) const;
  /// Replaces `*best` by `candidate` (comparison cost `biased`) when the
  /// set has no plan yet or the candidate is strictly cheaper.
  void Offer(DpEntry* best, const DpEntry& candidate, double biased) const;
  /// Comparison cost including the volatile-mode robustness bias.
  double BiasedCost(DpOp op, double cost) const;

  /// Builds the plan tree recorded for `set`.
  std::shared_ptr<PlanNode> Build(TableSet set);
  std::shared_ptr<PlanNode> MakeScan(int table_id);
  std::shared_ptr<PlanNode> MakeMatViewScan(int mv, TableSet set);
  std::shared_ptr<PlanNode> MakeHsjn(TableSet set,
                                     std::shared_ptr<PlanNode> probe,
                                     std::shared_ptr<PlanNode> build,
                                     const std::vector<int>& joins,
                                     double set_card, int set_assumptions);
  std::shared_ptr<PlanNode> MakeMgjn(TableSet set,
                                     std::shared_ptr<PlanNode> left,
                                     std::shared_ptr<PlanNode> right,
                                     const std::vector<int>& joins,
                                     double set_card, int set_assumptions);
  std::shared_ptr<PlanNode> MakeNljn(TableSet set,
                                     std::shared_ptr<PlanNode> outer,
                                     int inner_table,
                                     const std::vector<int>& joins,
                                     double set_card, int set_assumptions);
  /// NLJN probing a temporary materialized view covering the inner table,
  /// through a hash index built on the view before reuse (the paper's
  /// Section 2.3 "create an index on the materialized view if worthwhile").
  std::shared_ptr<PlanNode> MakeNljnOverMv(TableSet set,
                                           std::shared_ptr<PlanNode> outer,
                                           int inner_table,
                                           const std::vector<int>& joins,
                                           const AvailableMatView& mv,
                                           double set_card,
                                           int set_assumptions);
  /// Index of the first singleton-set matview covering `table_id`, or -1.
  int FindMatView(int table_id) const;
  /// Canonical positions of `set`'s layout a merge join over `joins` sorts
  /// that input on.
  std::vector<int> MergeKeys(TableSet set, const std::vector<int>& joins) const;
  /// Per-probe cost of an NLJN into `inner_table`, through the hash index
  /// on `index_col` or (index_col < 0) by scanning the table.
  double TableProbeCost(int inner_table, int index_col) const;
  /// Per-probe cost of an NLJN into matview `mv` covering `inner_table`,
  /// through an index built on `index_col` or (index_col < 0) by scanning.
  double MatViewProbeCost(const AvailableMatView& mv, int inner_table,
                          int index_col) const;

  const Catalog& catalog_;
  const QuerySpec& query_;
  const CardinalityEstimator& estimator_;
  const CostModel& cost_;
  JoinMethodConfig methods_;
  const std::vector<AvailableMatView>* matviews_;
  std::vector<int> table_widths_;

  /// The DP table: the memo's entries, or `local_table_` without a memo.
  std::vector<DpEntry> local_table_;
  DpEntry* dp_ = nullptr;
  /// Per table set: every table joined to a member (connectivity test).
  std::vector<uint32_t> neighbours_;
  /// Per table: join predicates into it, in predicate order.
  std::vector<std::vector<ProbePath>> probe_paths_;
  /// Per table: per-probe cost of scanning it as an NLJN inner.
  std::vector<double> scan_probe_;
  /// Per table: FindMatView.
  std::vector<int> table_mv_;
  int64_t candidates_ = 0;

  IncrementalMemo* memo_;  ///< May be null (plain full-DP enumeration).
  /// Canonical query signature, computed once per enumeration when a memo
  /// is attached.
  uint64_t memo_fingerprint_ = 0;
  int64_t memo_reused_ = 0;
  int64_t memo_invalidated_ = 0;
};

/// True if `a` and `b` are join candidates over the same unordered child
/// partition (the paper's structural-equivalence restriction: alternative
/// root operators and commuted inputs, but never different join orders).
bool SamePartition(const PlanNode& a, const PlanNode& b);

}  // namespace popdb

#endif  // POPDB_OPT_ENUMERATOR_H_
