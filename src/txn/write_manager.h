#ifndef POPDB_TXN_WRITE_MANAGER_H_
#define POPDB_TXN_WRITE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "storage/catalog.h"
#include "txn/stats_delta.h"
#include "txn/write.h"

namespace popdb {
namespace txn {

/// The write path: applies bound DML statements to catalog tables.
///
/// Each table has a *write lane* — a mutex plus a StatsDelta accumulator —
/// so writes to one table are serialized (the concurrency contract
/// storage::Table requires) while writes to different tables, and all
/// reads, proceed concurrently. A statement holds its lane for the whole
/// apply: index maintenance, row mutation (one atomic version publish),
/// delta accounting and the optional stats fold, so folded statistics
/// always describe a published state.
///
/// Index postings for new rows and rewritten keys are inserted *before*
/// the version that contains them is published. A posting that runs ahead
/// of its row is harmless (probes return a superset and the executor
/// re-checks each candidate against its snapshot); a posting that lagged
/// behind its row would let a query that pinned the new version miss a row
/// of its own snapshot through an index NLJN, breaking statement
/// atomicity.
///
/// Readers are never blocked: queries pin table snapshots and index probes
/// re-check rows, so a write lane runs concurrently with any number of
/// in-flight analytical queries.
class WriteManager {
 public:
  struct Config {
    /// See txn::StatsDeltaConfig.
    double stats_fold_threshold = 0.10;
    int64_t stats_min_churn_rows = 32;
    size_t ndv_sketch_cap = 4096;
    int histogram_buckets = 32;
  };

  explicit WriteManager(Catalog* catalog) : WriteManager(catalog, Config()) {}
  WriteManager(Catalog* catalog, Config config);

  /// Applies one statement. Statement-level atomicity: readers see either
  /// none or all of its row effects (single version publish). Returns the
  /// affected-row count and whether statistics folded.
  Result<WriteResult> Apply(const WriteStatement& stmt);

  /// Total stats folds (= stats-version bumps caused by the write path).
  int64_t stats_folds() const {
    return stats_folds_.load(std::memory_order_relaxed);
  }

 private:
  struct Lane {
    std::mutex mu;
    std::unique_ptr<StatsDelta> delta;
  };

  /// Finds or creates the lane for `table` (lane map itself is guarded).
  Lane* LaneFor(const std::string& table, int num_columns);

  Result<int64_t> ApplyInsert(const WriteStatement& stmt, Table* table,
                              Lane* lane);
  Result<int64_t> ApplyUpdate(const WriteStatement& stmt, Table* table,
                              Lane* lane);
  Result<int64_t> ApplyDelete(const WriteStatement& stmt, Table* table,
                              Lane* lane);

  Catalog* catalog_;
  Config config_;
  std::mutex lanes_mu_;
  std::map<std::string, std::unique_ptr<Lane>> lanes_;
  std::atomic<int64_t> stats_folds_{0};
};

}  // namespace txn
}  // namespace popdb

#endif  // POPDB_TXN_WRITE_MANAGER_H_
