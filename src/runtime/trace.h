#ifndef POPDB_RUNTIME_TRACE_H_
#define POPDB_RUNTIME_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/pop.h"

namespace popdb {

/// Per-attempt slice of a QueryTrace: the executor's own record of one
/// optimize+execute step, moved into the trace (plan text and profile are
/// present when the executor was asked for stats).
using TraceAttempt = AttemptInfo;

/// The one record of a finished read, write or shard subplan. The service
/// fills it for every read it finishes — successfully, with an error,
/// cancelled, or past its deadline — and emits it to the configured
/// TraceSink; a NetServer fills it for the writes and subplans it serves.
/// It renders two wire views: ToJson (`trace`) and ToLogJson (`query_log`).
struct QueryTrace {
  int64_t query_id = 0;
  /// "query" (analytical read), "write" (INSERT/UPDATE/DELETE through the
  /// write lane), or "subplan" (shard servers).
  std::string kind = "query";
  std::string query_name;
  /// Canonical plan-cache signature (QueryCacheSignature) of a read:
  /// rebinds of the same prepared statement share it. Empty otherwise.
  std::string signature;
  uint64_t session_id = 0;
  std::string priority;        ///< "high" or "normal".
  std::string outcome;         ///< "ok", "error", "cancelled", "deadline".
  std::string status_message;  ///< Status detail for non-ok outcomes.
  bool shared_feedback = false;

  // Latency breakdown (milliseconds).
  double end_ms = 0.0;       ///< Completion time, monotonic clock (NowMs).
  double queue_ms = 0.0;     ///< Admission queue wait.
  double optimize_ms = 0.0;  ///< Total across attempts.
  double execute_ms = 0.0;   ///< Total across attempts.
  double total_ms = 0.0;     ///< Submission to completion.

  int64_t work = 0;  ///< Deterministic work units across attempts.
  int64_t result_rows = 0;
  /// Rows inserted/updated/deleted by a write; -1 otherwise.
  int64_t affected_rows = -1;
  int reopts = 0;
  int64_t check_events = 0;  ///< Checkpoint evaluations observed.
  int64_t checks_fired = 0;
  /// CHECK firings by flavor, indexed by CheckFlavor (LC, LCEM, ECB, ECWC,
  /// ECDC, work-bound); sums to checks_fired.
  int64_t fired_by_flavor[6] = {0, 0, 0, 0, 0, 0};

  /// Plan-cache decision for the first optimization attempt
  /// (PlanCacheOutcomeName: "none" when no cache was consulted) and, on a
  /// hit, the age of the served entry.
  std::string plan_cache = "none";
  double plan_cache_age_ms = 0.0;

  std::vector<TraceAttempt> attempts;

  /// The `trace` view: compact single-line JSON of the whole record.
  std::string ToJson() const;

  /// The `query_log` view: a compact summary without plan text or
  /// profiles. The plan digest (of the last attempt's plan), the peak
  /// Q-error (over every attempt's profile) and the per-shard breakdown
  /// (of the last attempt) are derived here.
  std::string ToLogJson() const;
};

/// Moves the progressive executor's diagnostics into a trace: attempts,
/// signature, work counters, check-event tallies, per-phase latencies.
/// `stats` keeps its counters; its attempts and signature are moved out.
void FillTraceFromStats(ExecutionStats* stats, QueryTrace* trace);

/// FNV-1a over a plan's text; 0 for the empty string is avoided by the
/// offset basis, so 0 reliably means "no plan recorded".
uint64_t PlanTextDigest(const std::string& plan_text);

/// Receives completed-query traces. Implementations must be thread safe:
/// worker threads emit concurrently.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const QueryTrace& trace) = 0;
};

/// Buffers traces in memory, in completion order (tests, examples).
class CollectingTraceSink : public TraceSink {
 public:
  void Emit(const QueryTrace& trace) override;

  /// Returns all buffered traces and clears the buffer.
  std::vector<QueryTrace> Drain();
  int64_t count() const;

 private:
  mutable std::mutex mu_;
  std::vector<QueryTrace> traces_;
};

/// Bounded ring of the last `capacity` finished records in completion
/// order: the backing of a front end's `trace` (by id) and `query_log`
/// (tail) requests. Plugs into ServiceConfig::trace_sink for reads; a
/// NetServer emits its writes and subplans into it directly. Emit copies
/// the record once and renders nothing; a request renders its view from
/// the stored record outside the lock, so the ring may evict a record a
/// reader is still rendering. Thread safe.
class TraceStore : public TraceSink {
 public:
  explicit TraceStore(int64_t capacity = 1024)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  void Emit(const QueryTrace& trace) override;

  /// The `trace` view of the newest record for `query_id`, or nullopt when
  /// the query is unknown, unfinished, or already evicted.
  std::optional<std::string> Get(int64_t query_id) const;

  /// The most recent min(limit, size) records, oldest first. limit <= 0
  /// means every retained record.
  std::vector<std::shared_ptr<const QueryTrace>> Tail(int64_t limit = 0) const;

  /// Tail() in the `query_log` view, as one JSON array.
  std::string LogJson(int64_t limit = 0) const;

  /// Records retained / ever emitted.
  int64_t size() const;
  int64_t total() const;
  int64_t capacity() const { return capacity_; }

 private:
  const int64_t capacity_;
  mutable std::mutex mu_;
  /// Grows to capacity_, then slot total_ % capacity_ is the oldest.
  std::vector<std::shared_ptr<const QueryTrace>> ring_;
  int64_t total_ = 0;
};

}  // namespace popdb

#endif  // POPDB_RUNTIME_TRACE_H_
