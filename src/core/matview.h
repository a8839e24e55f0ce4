#ifndef POPDB_CORE_MATVIEW_H_
#define POPDB_CORE_MATVIEW_H_

#include <vector>

#include "common/value.h"
#include "opt/enumerator.h"

namespace popdb {

/// Holds the temporary materialized views created from intermediate
/// results when a CHECK fires (paper Section 2.3). Each view is the
/// complete materialized output of the canonical subplan joining `set`
/// (rows are in the engine's canonical layout, so any re-optimized plan can
/// consume them), with its exact cardinality available as catalog
/// statistics for the re-optimization. A view shares its producer's
/// immutable row buffer; registering it copies no row.
///
/// Views are scoped to one progressive execution: the controller clears the
/// registry when the query completes (the paper's "cleanup" step).
class MatViewRegistry {
 public:
  MatViewRegistry() = default;
  MatViewRegistry(const MatViewRegistry&) = delete;
  MatViewRegistry& operator=(const MatViewRegistry&) = delete;

  /// Registers (or replaces, keeping its name) the materialized result for
  /// `set`. `sorted_positions` records an ascending sort order the rows
  /// already have (empty if unsorted).
  void Register(TableSet set, SharedRows rows,
                std::vector<int> sorted_positions = {});

  /// Views in the form the optimizer consumes.
  const std::vector<AvailableMatView>& views() const { return views_; }

  bool empty() const { return views_.empty(); }

  /// Drops all temporary views (end-of-query cleanup).
  void Clear() { views_.clear(); }

 private:
  std::vector<AvailableMatView> views_;
};

}  // namespace popdb

#endif  // POPDB_CORE_MATVIEW_H_
