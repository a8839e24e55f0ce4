#ifndef POPDB_CORE_LEO_H_
#define POPDB_CORE_LEO_H_

#include <map>
#include <mutex>
#include <string>

#include "core/feedback.h"
#include "opt/query.h"

namespace popdb {

/// Cross-query cardinality memory in the spirit of LEO, DB2's learning
/// optimizer [SLM+01] — the combination the paper names as future work
/// ("Learning for the Future", Section 7). POP's feedback normally dies
/// with the query; this store keys it by a canonical subplan signature
/// (table names, predicates with bound literals, join predicates) so the
/// *next* compilation of a structurally identical subplan starts from
/// actual cardinalities instead of estimates.
///
/// Usage:
///   QueryFeedbackStore store;
///   executor.set_cross_query_store(&store);
///   executor.Execute(q);   // May re-optimize; actuals absorbed.
///   executor.Execute(q);   // Plans with the learned cardinalities.
///
/// Thread safe: the query-service runtime shares one store across all
/// worker threads so every query benefits from every other query's
/// learning; Absorb/Seed serialize on an internal mutex.
class QueryFeedbackStore {
 public:
  QueryFeedbackStore() = default;
  QueryFeedbackStore(const QueryFeedbackStore&) = delete;
  QueryFeedbackStore& operator=(const QueryFeedbackStore&) = delete;

  /// Canonical, query-independent signature of the subplan joining `set`:
  /// per-table predicate lists (parameter markers resolved to their bound
  /// literals) and the join predicates inside `set`, all order-normalized.
  static std::string SubplanSignature(const QuerySpec& query, TableSet set);

  /// Learns every entry of `feedback` under the query's signatures. Bumps
  /// the feedback epoch when any learned cardinality actually changed.
  void Absorb(const QuerySpec& query, const FeedbackMap& feedback);

  /// Pre-seeds `out` with everything known about the query's subplans.
  void Seed(const QuerySpec& query, FeedbackCache* out) const;

  /// Feedback epoch: total count of estimate-affecting changes — harvested
  /// feedback that moved a learned cardinality, plus every out-of-band
  /// BumpEpoch(). Monotone; plan-cache entries installed at an older epoch
  /// are suspect.
  int64_t epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_ + external_epoch_;
  }

  /// Out-of-band slice of the epoch: stats refreshes, matview or index
  /// create/drop — world changes that alter cardinality estimates without
  /// flowing through Absorb(). The plan cache treats any change here as a
  /// hard invalidation (content changes are covered by feedback digests).
  int64_t external_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return external_epoch_;
  }

  /// Signals an out-of-band estimate change (RUNSTATS ran, a matview was
  /// created or dropped, data was bulk-loaded): bypasses every cached plan
  /// installed before the bump.
  void BumpEpoch() {
    std::lock_guard<std::mutex> lock(mu_);
    ++external_epoch_;
  }

  int64_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(store_.size());
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!store_.empty()) ++epoch_;
    store_.clear();
  }

  /// Point-in-time copy of everything learned, keyed by subplan
  /// signature. Differential tests compare stores across execution modes
  /// (e.g. batch sizes, sharded vs local) entry by entry.
  std::map<std::string, CardFeedback> Dump() const {
    std::lock_guard<std::mutex> lock(mu_);
    return store_;
  }

  /// Seed() calls made (one per query compilation that consulted the
  /// store) and how many of them found at least one learned cardinality —
  /// the service's feedback-cache hit rate.
  int64_t seed_lookups() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seed_lookups_;
  }
  int64_t seed_hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seed_hits_;
  }
  /// Total learned cardinalities handed out across all Seed() calls.
  int64_t seeded_cards() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seeded_cards_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, CardFeedback> store_;
  int64_t epoch_ = 0;           ///< Content-changing Absorb()/Clear() count.
  int64_t external_epoch_ = 0;  ///< BumpEpoch() count.
  mutable int64_t seed_lookups_ = 0;
  mutable int64_t seed_hits_ = 0;
  mutable int64_t seeded_cards_ = 0;
};

}  // namespace popdb

#endif  // POPDB_CORE_LEO_H_
