#ifndef POPDB_OPT_PLAN_CACHE_H_
#define POPDB_OPT_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "opt/cardinality.h"
#include "opt/plan.h"
#include "opt/query.h"

namespace popdb {

/// Canonical text signature of a query for plan-cache keying: tables,
/// local and join predicates (normalized order), projections, grouping,
/// aggregates, ORDER BY / HAVING / DISTINCT / LIMIT. Parameter markers are
/// abstracted to their positions (`?k`), never to their bound literals, so
/// every re-submission of a prepared statement maps to one key regardless
/// of binding — exactly the repeat-query population a plan cache exists
/// for. Literal operands are part of the signature (a different constant
/// can legitimately change the plan).
///
/// The signature embeds query-local table and predicate ids: a cached plan
/// skeleton stores `table_id`/`pred_ids` indices into the installing
/// QuerySpec, so a hit is only sound when the submitted spec assigns the
/// same ids. Structurally identical specs built in the same order (the
/// repeat-submission case) share a key; permuted constructions of the same
/// query conservatively miss.
std::string QueryCacheSignature(const QuerySpec& query);

/// 64-bit FNV-1a fingerprint over the same canonical content as
/// QueryCacheSignature, streamed without building the signature string.
/// Used where the fingerprint is recomputed on a hot path (the incremental
/// re-optimization memo checks it on every optimize call) and the
/// negligible collision probability of a 64-bit digest is acceptable.
/// Local/join predicates combine order-independently, mirroring the
/// signature's sorted rendering.
uint64_t QueryMemoFingerprint(const QuerySpec& query);

/// Order-independent 64-bit FNV-1a digest of a feedback snapshot. Two
/// snapshots digest equal iff they contain the same (table set, exact,
/// lower bound) entries — the plan cache's definition of "feedback has not
/// moved for this query".
uint64_t DigestFeedback(const FeedbackMap& feedback);

/// Narrowed validity ranges of `plan`, keyed by the table set of the
/// guarded edge (child subplan). Recorded at install time; lookups test
/// current feedback against them to classify stale entries (paper
/// Section 2.2: within the range the plan above the edge stays optimal).
std::map<TableSet, ValidityRange> CollectValidityRanges(const PlanNode& plan);

/// What one plan-cache lookup decided.
enum class PlanCacheOutcome {
  kNone = 0,        ///< Cache not consulted (disabled / non-progressive).
  kHit,             ///< Identical optimizer inputs; cached plan is exact.
  kValidityHit,     ///< Feedback moved but stayed inside validity ranges
                    ///< (served only with PlanCacheConfig::validity_hits).
  kMissCold,        ///< No entry for the signature.
  kMissStale,       ///< Feedback moved since install (digest changed).
  kMissEpoch,       ///< Out-of-band invalidation: stats refresh, matview
                    ///< DDL, or manual epoch bump; entry evicted.
  kMissValidity,    ///< Feedback moved outside a recorded validity range;
                    ///< entry evicted (provably no longer optimal).
};

const char* PlanCacheOutcomeName(PlanCacheOutcome outcome);

struct PlanCacheConfig {
  /// Total entry cap across shards (LRU per shard). <= 0 disables installs.
  int64_t max_entries = 256;
  /// Concurrency shards, each with its own mutex and LRU list.
  int shards = 8;
  /// Serve entries whose feedback digest changed as long as every current
  /// cardinality stays inside the plan's recorded validity ranges. Off by
  /// default: strict mode guarantees a hit is bit-identical to a fresh
  /// optimization, which the differential equivalence suite relies on.
  bool validity_hits = false;
  /// Plans with more nodes than this are not installed (size cap).
  int64_t max_plan_nodes = 4096;
};

/// Process-wide cache of optimized plan skeletons keyed by canonical query
/// signature, gated by a feedback epoch. An entry is served only when the
/// optimizer would provably reproduce it:
///   - the external epoch (stats refreshes, matview DDL, manual bumps) and
///     the catalog stats version match the install-time values, and
///   - the seeded-feedback digest matches (harvested feedback that changed
///     any cardinality estimate for the query's subplans forces a miss).
/// With `validity_hits` enabled, the digest gate is relaxed to POP's
/// validity-range test: feedback that moved but stayed inside every
/// recorded range still hits (the plan is still optimal, though a fresh
/// optimization might tie-break differently).
///
/// Entries hold immutable plan skeletons captured *before* checkpoint
/// placement; a hit clones the skeleton and proceeds straight to
/// placement, skipping DP enumeration entirely.
///
/// Thread safe: lookups and installs from concurrent QueryService workers
/// serialize per shard; statistics are atomics. Entries are handed out as
/// shared_ptr, so eviction never invalidates a concurrent reader.
///
/// One PlanCache must only be shared by executors with identical optimizer
/// configuration over the same catalog; ProgressiveExecutor folds a config
/// fingerprint into the signature to keep distinct configurations apart.
class PlanCache {
 public:
  struct LookupResult {
    PlanCacheOutcome outcome = PlanCacheOutcome::kMissCold;
    /// Set on (validity-)hits; clone before mutating.
    std::shared_ptr<const PlanNode> plan;
    /// Checkpoint-placed variant of `plan`, set only on exact hits (the
    /// feedback digest is identical, so the placement pass would reproduce
    /// it verbatim) when InstallPlacement recorded one. Validity hits
    /// re-place: moved feedback can change check ranges.
    std::shared_ptr<const PlanNode> placed_plan;
    PlacementStats placed_checks;
    int64_t candidates = 0;  ///< DP candidates of the installing run.
    double est_cost = 0.0;
    double est_card = 0.0;
    double age_ms = 0.0;     ///< Entry age at hit time.
    /// Near miss (kMissStale) only: the stale skeleton and the feedback
    /// snapshot it was optimized under. The plan is NOT servable — the
    /// feedback moved — but it warm-starts incremental re-optimization:
    /// every subplan untouched by the feedback delta is provably still the
    /// DP best for its table set.
    std::shared_ptr<const PlanNode> stale_plan;
    FeedbackMap stale_feedback;

    bool hit() const {
      return outcome == PlanCacheOutcome::kHit ||
             outcome == PlanCacheOutcome::kValidityHit;
    }
  };

  /// Monotone counters (point-in-time copy via stats()).
  struct Stats {
    int64_t lookups = 0;
    int64_t hits = 0;
    int64_t validity_hits = 0;
    int64_t misses_cold = 0;
    int64_t misses_stale = 0;
    int64_t misses_epoch = 0;
    int64_t misses_validity = 0;
    /// Stale misses are also near misses: the signature matched and only
    /// the feedback digest moved, so the entry warm-starts incremental
    /// re-optimization. Counted separately so the warm-start path is
    /// observable (== misses_stale today; kept distinct in case future
    /// outcomes qualify).
    int64_t near_misses = 0;
    int64_t installs = 0;
    int64_t placement_installs = 0;  ///< Placed plans attached to entries.
    int64_t placement_hits = 0;      ///< Exact hits served with placement.
    int64_t evictions_lru = 0;
    int64_t evictions_invalid = 0;
    /// Subset of evictions_invalid where the catalog stats version moved
    /// (a write-path statistics fold), as opposed to an external feedback
    /// epoch bump. Observable as
    /// popdb_plan_cache_stale_stats_evictions_total.
    int64_t evictions_stale_stats = 0;

    int64_t misses() const {
      return misses_cold + misses_stale + misses_epoch + misses_validity;
    }
  };

  explicit PlanCache(PlanCacheConfig config = {});
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Looks up `signature`. `external_epoch` is the out-of-band feedback
  /// epoch (QueryFeedbackStore::external_epoch()), `catalog_version` the
  /// catalog's stats version, `feedback_digest` the digest of the feedback
  /// the optimizer would be seeded with, and `feedback` that snapshot (for
  /// the validity-range test).
  LookupResult Lookup(const std::string& signature, int64_t external_epoch,
                      int64_t catalog_version, uint64_t feedback_digest,
                      const FeedbackMap& feedback);

  /// Installs (or replaces) the entry for `signature`. `plan` is the
  /// pre-checkpoint skeleton and must not contain matview scans (those are
  /// scoped to one execution). Oversized plans are silently skipped.
  /// `feedback` is the snapshot the plan was optimized under (the one
  /// `feedback_digest` digests); a later near-miss lookup returns it so
  /// incremental re-optimization can diff against it.
  void Install(const std::string& signature,
               std::shared_ptr<const PlanNode> plan, int64_t external_epoch,
               int64_t catalog_version, uint64_t feedback_digest,
               int64_t candidates, double est_cost, double est_card,
               FeedbackMap feedback = {});

  /// Attaches the checkpoint-placed variant of an installed skeleton.
  /// No-op unless an entry for `signature` exists and its gating values
  /// (epoch, catalog version, feedback digest) match `placed_plan`'s —
  /// placement is deterministic given the skeleton and the placement
  /// config (part of the signature), so an exact future hit may reuse the
  /// placed plan and skip the placement pass too.
  void InstallPlacement(const std::string& signature,
                        std::shared_ptr<const PlanNode> placed_plan,
                        int64_t external_epoch, int64_t catalog_version,
                        uint64_t feedback_digest, PlacementStats checks);

  /// Drops every entry (DDL-style invalidation).
  void InvalidateAll();

  int64_t size() const;
  Stats stats() const;
  const PlanCacheConfig& config() const { return config_; }

 private:
  struct Entry {
    std::shared_ptr<const PlanNode> plan;
    /// Checkpoint-placed variant (null until InstallPlacement).
    std::shared_ptr<const PlanNode> placed_plan;
    PlacementStats placed_checks;
    uint64_t feedback_digest = 0;
    /// Install-time feedback snapshot (what feedback_digest digests).
    FeedbackMap feedback;
    int64_t external_epoch = 0;
    int64_t catalog_version = 0;
    std::map<TableSet, ValidityRange> validity;
    int64_t candidates = 0;
    double est_cost = 0.0;
    double est_card = 0.0;
    double install_ms = 0.0;
    int64_t hits = 0;
    /// Position in the shard's LRU list (front = most recent).
    std::list<std::string>::iterator lru_pos;
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, Entry> entries;
    std::list<std::string> lru;  ///< Signatures, most recent first.
  };

  Shard& ShardFor(const std::string& signature);
  /// Removes `it` from `shard`; caller holds the shard mutex.
  void EvictLocked(Shard* shard,
                   std::unordered_map<std::string, Entry>::iterator it);

  PlanCacheConfig config_;
  int64_t per_shard_cap_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace popdb

#endif  // POPDB_OPT_PLAN_CACHE_H_
