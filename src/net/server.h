#ifndef POPDB_NET_SERVER_H_
#define POPDB_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "net/wire.h"
#include "runtime/query_service.h"
#include "runtime/session.h"

namespace popdb::net {

/// Executes one `subplan` request on behalf of the server — the shard side
/// of scatter-gather execution (implemented by dist::ShardExecutor; the
/// interface lives here so src/net does not depend on src/dist).
///
/// Run() parses the request's serialized query + plan, executes it against
/// the shard's catalog, and streams result rows through `emit` (one call
/// per batch; a false return means the connection died — stop executing).
/// `cancel` is tripped by cancel-by-id requests, session teardown and
/// server shutdown. Must be thread safe: every connection worker may call
/// Run concurrently.
class SubplanBackend {
 public:
  /// Terminal outcome of one subplan run, rendered into the query_done
  /// frame (and the preceding check_violation frame, when a CHECK fired).
  struct RunResult {
    Status status;
    /// "ok", "reoptimize", "cancelled", "deadline", or "error".
    std::string outcome = "ok";
    /// Full check_violation frame payload, or empty when no CHECK fired.
    std::string violation_json;
    /// JSON array of {set, rows, exact} cardinality observations.
    std::string observations_json = "[]";
    int64_t rows_sent = 0;
    /// Serialized PlanProfileNode tree (core/explain.h ProfileToJson) of
    /// the executed fragment, or empty when no profile was captured. The
    /// coordinator merges these into the distributed EXPLAIN ANALYZE view.
    std::string profile_json;
    /// Shard-side wall-clock execution time for this subplan.
    double execute_ms = 0.0;
    /// Query name from the request, for trace/query-log attribution.
    std::string query_name = "subplan";
  };

  virtual ~SubplanBackend() = default;

  virtual RunResult Run(const JsonValue& request, CancelToken* cancel,
                        const std::function<bool(const std::vector<Row>&)>&
                            emit) = 0;
};

/// Cluster-wide observability hooks served by a coordinator-mode server
/// (implemented by dist::Coordinator; the interface lives here so src/net
/// does not depend on src/dist). Both calls fan out to every shard over the
/// coordinator's connection pool and must be thread safe.
class ClusterObservability {
 public:
  virtual ~ClusterObservability() = default;

  /// Harvests span dumps from every shard, stitches them with the
  /// coordinator's own spans into one Chrome trace_event JSON document
  /// (one pid row per process), and returns it.
  virtual Result<std::string> ClusterTraceJson() = 0;

  /// Scrapes every shard's Prometheus exposition and appends it to
  /// `local_text` with a `shard="N"` label injected into each sample.
  virtual Result<std::string> FederatedMetricsText(
      const std::string& local_text) = 0;
};

/// Configuration of a NetServer instance.
struct NetServerConfig {
  /// Numeric IPv4 address to bind (the default serves loopback only; bind
  /// 0.0.0.0 explicitly to expose the server).
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;

  /// Connection workers: each serves one client connection at a time, so
  /// this bounds concurrently served sessions. Accepted connections beyond
  /// it wait in the pending queue.
  int num_workers = 4;
  int accept_backlog = 64;
  /// Accepted-but-unserved connections held while all workers are busy;
  /// beyond this the server closes new connections immediately (overload
  /// shedding).
  int max_pending_connections = 64;

  /// Per-frame payload cap; larger frames are rejected with an error frame
  /// and the connection is closed (clamped to kAbsoluteMaxFrameBytes).
  uint32_t max_frame_bytes = 1u << 20;

  /// Idle read timeout: how long a connection may sit between requests
  /// before the server closes it. <= 0 = no timeout.
  double read_timeout_ms = 0.0;
  /// Per-frame write timeout towards slow/dead clients; on expiry the
  /// connection is dropped. <= 0 = no timeout.
  double write_timeout_ms = 10000.0;

  /// Unfinished queries one session may hold (sync + async). Submissions
  /// beyond it are rejected with resource_exhausted before reaching the
  /// service queue.
  int max_inflight_per_session = 8;

  /// Default and maximum rows per row_batch frame (a query request may ask
  /// for a smaller batch; larger requests are clamped).
  int64_t default_batch_rows = 256;
  int64_t max_batch_rows = 8192;

  /// Honor the `shutdown` request type (used by the CI smoke client for a
  /// deterministic clean stop). Off by default: a remote kill switch is
  /// opt-in.
  bool allow_shutdown_request = false;

  /// Shard mode: executor for `subplan` requests. Null (the default)
  /// rejects them with unimplemented. Not owned; must outlive the server.
  SubplanBackend* subplan_backend = nullptr;
  /// Test/chaos knob: sleep this long after each emitted subplan row batch
  /// (sliced, cancellation-responsive) so tests can deterministically kill
  /// or cancel a shard mid-stream. <= 0 = no stall.
  double subplan_stall_ms = 0.0;

  /// Coordinator mode: cluster-wide observability hooks backing
  /// `spans {scope:"cluster"}` and `metrics {cluster:true}` requests. Null
  /// (the default) rejects cluster-scoped requests with unimplemented. Not
  /// owned; must outlive the server.
  ClusterObservability* cluster = nullptr;

  std::string server_name = "popdb";
};

/// TCP front end over a QueryService: accepts client connections, speaks
/// the length-prefixed JSON wire protocol (net/wire.h), parses SQL against
/// the service's catalog, and maps protocol requests onto Submit /
/// QueryTicket::Cancel / trace and metrics lookups.
///
/// Threading: one acceptor thread plus `num_workers` connection workers
/// (one live connection per worker; excess connections queue). Shutdown()
/// is cooperative: admission stops, every registered in-flight query is
/// cancelled, blocked socket I/O is woken via shutdown(2) and a shared
/// stop flag, and all threads are joined before it returns.
///
/// Example:
///   QueryService service(catalog, {});
///   TraceStore traces;                  // wire as config.trace_sink
///   NetServer server(&service, &traces, {});
///   server.Start();                     // serving on server.port()
///   ...
///   server.Shutdown();
class NetServer {
 public:
  /// `service` and `traces` are not owned and must outlive the server.
  /// `traces` serves the `trace` and `query_log` requests; the server
  /// records the writes and subplans it runs there (reads arrive through
  /// the service's trace_sink). It may be null: both requests then report
  /// not_found and nothing is recorded.
  NetServer(QueryService* service, TraceStore* traces,
            NetServerConfig config);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the acceptor + worker threads. Fails if
  /// the address cannot be bound; calling Start twice is an error.
  Status Start();

  /// Stops accepting, cancels in-flight queries, closes connections, joins
  /// all threads. Idempotent; also invoked by the destructor.
  void Shutdown();

  /// Bound port (valid after Start; resolves an ephemeral request).
  int port() const { return port_; }

  /// True once a client issued an honored `shutdown` request. The embedder
  /// decides when to act on it (typically by calling Shutdown()).
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Blocks until shutdown_requested() or `timeout_ms` passed (<= 0 waits
  /// forever); returns shutdown_requested().
  bool WaitForShutdownRequest(double timeout_ms = 0.0);

  SessionRegistry& sessions() { return sessions_; }

  const NetServerConfig& config() const { return config_; }

 private:
  struct ConnState;

  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);

  /// Request handlers; each returns false when the connection must close.
  bool HandleFrame(ConnState* conn, const std::string& payload);
  bool HandleHello(ConnState* conn, const JsonValue& request);
  bool HandleQuery(ConnState* conn, const JsonValue& request);
  bool HandleSubplan(ConnState* conn, const JsonValue& request);
  bool HandleWait(ConnState* conn, const JsonValue& request);
  bool HandleCancel(ConnState* conn, const JsonValue& request);
  bool HandleTrace(ConnState* conn, const JsonValue& request);
  bool HandleSpans(ConnState* conn, const JsonValue& request);
  bool HandleQueryLog(ConnState* conn, const JsonValue& request);
  bool HandleMetrics(ConnState* conn, const JsonValue& request);
  bool HandleGoodbye(ConnState* conn);
  bool HandleShutdownRequest(ConnState* conn);

  /// Streams `ticket`'s result as row_batch frames plus the trailing
  /// query_done frame; releases the ticket from the registry.
  bool StreamResult(ConnState* conn, int64_t query_id, int64_t batch_rows);

  bool SendFrame(ConnState* conn, const std::string& payload);
  bool SendError(ConnState* conn, StatusCode code,
                 const std::string& message);

  QueryService* service_;
  TraceStore* traces_;
  NetServerConfig config_;

  SessionRegistry sessions_;

  // Net metrics, registered in the service's MetricsRegistry (which owns
  // them) so MetricsText() exposes the front end alongside the engine.
  Counter* connections_total_ = nullptr;
  Gauge* connections_active_ = nullptr;
  Gauge* sessions_open_ = nullptr;
  Counter* frames_read_ = nullptr;
  Counter* frames_written_ = nullptr;
  Counter* bytes_read_ = nullptr;
  Counter* bytes_written_ = nullptr;
  Counter* protocol_errors_ = nullptr;
  Counter* queries_total_ = nullptr;
  Counter* cancels_total_ = nullptr;
  Counter* connections_shed_ = nullptr;
  Counter* subplans_total_ = nullptr;
  Counter* writes_total_ = nullptr;

  std::atomic<bool> stop_{false};
  std::atomic<bool> shutdown_requested_{false};
  bool started_ = false;
  bool joined_ = false;
  int listen_fd_ = -1;
  int port_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;            ///< Pending-queue waiters.
  std::condition_variable shutdown_cv_;   ///< WaitForShutdownRequest.
  std::deque<int> pending_;               ///< Accepted, unserved fds.
  std::set<int> active_fds_;              ///< Fds inside ServeConnection.

  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

}  // namespace popdb::net

#endif  // POPDB_NET_SERVER_H_
