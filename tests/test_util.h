#ifndef POPDB_TESTS_TEST_UTIL_H_
#define POPDB_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/value.h"
#include "core/pop.h"
#include "dist/coordinator.h"
#include "dist/partition.h"
#include "dist/shard.h"
#include "net/server.h"
#include "opt/query.h"
#include "runtime/query_service.h"
#include "runtime/trace.h"
#include "storage/catalog.h"

namespace popdb::testing {

/// Builds a small catalog with three joinable tables:
///   dept(d_id int, d_name string, d_region int)        -- 8 rows
///   emp(e_id int, e_dept int, e_age int, e_name string) -- 200 rows
///   sale(s_emp int, s_amount double, s_year int)        -- 1000 rows
/// Statistics collected, indexes on d_id, e_id, e_dept, s_emp.
void BuildToyCatalog(Catalog* catalog, int64_t emp_rows = 200,
                     int64_t sale_rows = 1000);

/// Builds a small star schema with engineered correlations:
///   fact(f_id, f_dim1, f_dim2, f_a, f_b)  -- 1200 rows; f_b is determined
///                                            by f_a 80% of the time
///   dim1(d1_id, d1_x, d1_name)            -- 60 rows, indexed on d1_id
///   dim2(d2_id, d2_y)                     -- 40 rows, unindexed (NLJN
///                                            into it scans)
void BuildStarCatalog(Catalog* catalog);

/// A random SPJ(+agg) query over the star schema: always fact, optionally
/// joined to dim1 and dim2, with random local predicates (sometimes the
/// correlated pair, sometimes a bound parameter marker), and either a
/// GROUP BY with SUM/COUNT and HAVING or a projection, maybe DISTINCT.
QuerySpec RandomStarQuery(Rng* rng);

/// A random join-method set (never all disabled), spilling everywhere
/// (mem_rows 64) 30% of the time.
OptimizerConfig RandomOptimizerConfig(Rng* rng);

/// Random checkpoint flavors, re-optimization budget, reuse and
/// work-bound knobs.
PopConfig RandomPopConfig(Rng* rng);

/// One labeled query of the engine corpus.
struct CorpusQuery {
  std::string label;  ///< "tpch/q3", "tpch/q3m", "tpch/q10m_sel50", ...
  const Catalog* catalog;
  QuerySpec query;
};

/// The engine corpus: the TPC-H paper queries (scale 0.002) plain and with
/// parameter markers ("m"), the marker Q10 selectivity sweep at 1, 10, 50
/// and 90%, and the DMV workload at `dmv_scale`, in that order. The golden
/// table pins DMV at 0.05; the differential oracle replays it at 0.2,
/// where most DMV tables span several execution batches.
struct EngineCorpus {
  Catalog tpch;
  Catalog dmv;
  std::vector<CorpusQuery> queries;
};
Status BuildEngineCorpus(double dmv_scale, EngineCorpus* corpus);

/// A seeded random execution batch size from [2, 2048], replayed by the
/// golden table and the differential oracle alike. Inline, so it is
/// initialized before any variable defined after this header.
inline const int64_t kRandomBatchRows = Rng(0x5eed1e55).UniformInt(2, 2048);

/// One in-process shard: its partition catalog, a QueryService (the
/// NetServer requires one) and a loopback NetServer with the subplan
/// backend.
struct LoopbackShard {
  LoopbackShard() = default;
  LoopbackShard(const LoopbackShard&) = delete;
  LoopbackShard& operator=(const LoopbackShard&) = delete;
  ~LoopbackShard();

  Catalog catalog;
  TraceStore traces{64};
  std::unique_ptr<QueryService> service;
  std::unique_ptr<dist::ShardExecutor> executor;
  std::unique_ptr<net::NetServer> server;
};

struct LoopbackClusterOptions {
  int num_shards = 2;
  /// NetServerConfig::subplan_stall_ms of every shard.
  double stall_ms = 0.0;
  /// ShardExecutorConfig::exec_batch_rows of every shard.
  int64_t exec_batch_rows = kDefaultBatchRows;
  /// The coordinator's POP configuration.
  PopConfig pop;
};

/// A scatter-gather cluster on loopback: shard i serves partition i of
/// `full` under `spec`, and a Coordinator over them plans against `full`.
/// Start may be called again to restart with other options.
struct LoopbackCluster {
  Status Start(const Catalog& full, const dist::PartitionSpec& spec,
               const LoopbackClusterOptions& options);

  std::vector<std::unique_ptr<LoopbackShard>> shards;
  std::unique_ptr<dist::Coordinator> coordinator;
};

/// Executes `query` by brute force (a nested-loop join binding one table at
/// a time, probing rows hashed on a join key when the table joins one bound
/// earlier, + predicate filtering + hash aggregation), independent of the
/// optimizer and executor under test. Intended as the correctness oracle.
std::vector<Row> ReferenceExecute(const Catalog& catalog,
                                  const QuerySpec& query);

/// Multiset row comparison helper: sorts a printable encoding of each row.
std::vector<std::string> Canonicalize(const std::vector<Row>& rows);

/// The keys of a JSON document in document order, comma-joined. Nested
/// objects and arrays of objects are flattened as "outer.inner" and
/// "outer[].inner"; a "profile" member is listed but not entered (its keys
/// belong to ProfileToJson). Empty when `json` does not parse.
std::string JsonKeySequence(const std::string& json);

/// JsonKeySequence of the entry whose "query_id" is `query_id` in a
/// `query_log` entries array; empty when there is no such entry.
std::string LogEntryKeySequence(const std::string& entries,
                                int64_t query_id);

}  // namespace popdb::testing

#endif  // POPDB_TESTS_TEST_UTIL_H_
