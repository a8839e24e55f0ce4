#ifndef POPDB_RUNTIME_SESSION_H_
#define POPDB_RUNTIME_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/cancel.h"
#include "common/status.h"
#include "runtime/query_service.h"
#include "runtime/trace.h"

namespace popdb {

/// Registry of client sessions and their in-flight queries: the bridge
/// between a connection-oriented front end (src/net) and QueryService's
/// ticket model. It hands out session ids, keeps the process-wide
/// query-id -> ticket table that `cancel`-by-id requests resolve against,
/// and bounds the number of unfinished queries a single session may hold
/// (admission control per client, on top of the service's global queue
/// bound).
///
/// Thread safe; every front-end connection worker calls into one shared
/// instance. Tickets are held as shared_ptr, so a registered query stays
/// cancellable even after its owning session disconnected.
class SessionRegistry {
 public:
  SessionRegistry() = default;
  SessionRegistry(const SessionRegistry&) = delete;
  SessionRegistry& operator=(const SessionRegistry&) = delete;

  /// Opens a session and returns its id (ids start at 1; 0 is never a
  /// valid session).
  uint64_t OpenSession();

  /// Closes a session: its still-unfinished queries are cancelled and
  /// dropped from the table. Unknown ids are ignored (idempotent — a
  /// connection may close after an explicit goodbye already cleaned up).
  void CloseSession(uint64_t session_id);

  /// Registers a submitted ticket under its service query id. Fails with
  /// ResourceExhausted when the session already holds `max_inflight`
  /// unfinished queries (the caller should cancel the ticket), and with
  /// NotFound when the session does not exist.
  Status RegisterQuery(uint64_t session_id,
                       std::shared_ptr<QueryTicket> ticket, int max_inflight);

  /// The ticket registered under `query_id`, or null. The ticket stays
  /// registered (cancel does not consume it).
  std::shared_ptr<QueryTicket> FindQuery(int64_t query_id);

  /// Like FindQuery, but only when `query_id` belongs to `session_id`
  /// (front ends let a session wait only on its own queries).
  std::shared_ptr<QueryTicket> FindSessionQuery(uint64_t session_id,
                                                int64_t query_id);

  /// Removes `query_id` from its session's in-flight set (the query
  /// finished and its result was consumed). Returns the ticket, or null if
  /// the id is unknown or belongs to another session.
  std::shared_ptr<QueryTicket> ReleaseQuery(uint64_t session_id,
                                            int64_t query_id);

  /// Registers a bare cancel token under `query_id` — for work a front end
  /// runs outside the ticket model (e.g. shard subplan execution, which
  /// streams rows as they are produced instead of waiting on a ticket).
  /// Registered tokens participate in cancel-by-id, CancelAll and
  /// session-close cancellation exactly like tickets, and count against
  /// the session's `max_inflight` bound.
  Status RegisterCancelable(uint64_t session_id, int64_t query_id,
                            std::shared_ptr<CancelToken> token,
                            int max_inflight);

  /// Removes a token registered with RegisterCancelable (the work
  /// finished). Unknown ids are ignored.
  void ReleaseCancelable(uint64_t session_id, int64_t query_id);

  /// Cancels the query registered under `query_id` from any session.
  /// Returns false when the id is unknown (already released or never
  /// registered).
  bool CancelQuery(int64_t query_id);

  /// Cancels every registered query (server shutdown: unblocks connection
  /// workers waiting on tickets).
  void CancelAll();

  int64_t open_sessions() const;
  int64_t inflight_queries() const;

 private:
  struct Session {
    /// query_id -> ticket; bounded by the front end's max_inflight.
    std::map<int64_t, std::shared_ptr<QueryTicket>> queries;
    /// query_id -> bare token (RegisterCancelable work); shares the
    /// max_inflight bound with `queries`.
    std::map<int64_t, std::shared_ptr<CancelToken>> cancelables;
  };

  mutable std::mutex mu_;
  uint64_t next_session_id_ = 1;
  std::map<uint64_t, Session> sessions_;
  /// Process-wide table resolving cancel-by-id across sessions.
  std::unordered_map<int64_t, std::shared_ptr<QueryTicket>> by_query_id_;
  /// Same, for bare cancel tokens.
  std::unordered_map<int64_t, std::shared_ptr<CancelToken>> by_cancel_id_;
};

}  // namespace popdb

#endif  // POPDB_RUNTIME_SESSION_H_
