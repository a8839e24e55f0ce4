// popdb-server: the network front end as a standalone process. Loads a
// dataset, stands up a QueryService, and serves the length-prefixed JSON
// wire protocol on a TCP port until interrupted (or, with
// --allow-shutdown, until a client sends a `shutdown` request).
//
//   ./build/examples/popdb_server [tpch|dmv|toy]
//       [--port N]         bind port (default 0 = ephemeral)
//       [--port-file PATH] write the resolved port to PATH (for scripts)
//       [--workers N]      connection workers (default 4)
//       [--allow-shutdown] honor the wire `shutdown` request
//       [--trace]          enable span tracing from startup (the wire
//                          `spans` request can also toggle it later)
//       [--quiet]          suppress startup chatter
//
// Distributed modes (docs/WIRE.md):
//
//   Shard: serve one key-range partition of the dataset and execute
//   `subplan` requests for a coordinator.
//       --shard-index K --shard-count N   [--subplan-stall-ms X]
//
//   Coordinator: scatter-gather across running shards; shard i of the
//   --shards list must serve partition i.
//       --coordinator --shards host:port,host:port,...
//
//   One-command cluster: fork N shard children (ephemeral ports), then
//   run the coordinator against them; children are reaped on shutdown.
//       --spawn-shards N   [--subplan-stall-ms X]
//
// Talk to it with ./build/examples/popdb_client or any client speaking the
// protocol documented in src/net/wire.h.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/span.h"
#include "dist/coordinator.h"
#include "dist/partition.h"
#include "dist/shard.h"
#include "dmv/dmv_gen.h"
#include "net/server.h"
#include "tpch/tpch_gen.h"
#include "txn/write_manager.h"

using namespace popdb;  // NOLINT: example brevity.

namespace {

std::sig_atomic_t g_interrupted = 0;

void OnSignal(int) { g_interrupted = 1; }

// Same correlated toy schema as the runtime_service example: orders/items
// re-optimize under POP, big_a/big_b joins run long enough to cancel.
void BuildToy(Catalog* catalog) {
  Rng rng(5);
  Table orders("orders", Schema({{"o_id", ValueType::kInt},
                                 {"o_class", ValueType::kInt},
                                 {"o_subclass", ValueType::kInt}}));
  for (int64_t i = 0; i < 4000; ++i) {
    const int64_t sub = rng.UniformInt(0, 199);
    orders.AppendRow({Value::Int(i), Value::Int(sub / 10), Value::Int(sub)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(orders)).ok());
  Table items("items", Schema({{"i_order", ValueType::kInt},
                               {"i_qty", ValueType::kInt}}));
  for (int64_t i = 0; i < 12000; ++i) {
    items.AppendRow({Value::Int(rng.UniformInt(0, 3999)),
                     Value::Int(rng.UniformInt(1, 50))});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(items)).ok());
  Table big_a("big_a",
              Schema({{"a_k", ValueType::kInt}, {"a_v", ValueType::kInt}}));
  Table big_b("big_b",
              Schema({{"b_k", ValueType::kInt}, {"b_v", ValueType::kInt}}));
  for (int64_t i = 0; i < 4000; ++i) {
    big_a.AppendRow({Value::Int(rng.UniformInt(0, 49)), Value::Int(i)});
    big_b.AppendRow({Value::Int(rng.UniformInt(0, 49)), Value::Int(i)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(big_a)).ok());
  POPDB_DCHECK(catalog->AddTable(std::move(big_b)).ok());
  catalog->AnalyzeAll();
}

void BuildDataset(const std::string& dataset, bool quiet, Catalog* catalog) {
  if (dataset == "tpch") {
    if (!quiet) std::printf("loading TPC-H...\n");
    POPDB_DCHECK(tpch::BuildCatalog(tpch::GenConfig{}, catalog).ok());
  } else if (dataset == "dmv") {
    if (!quiet) std::printf("loading the DMV case-study database...\n");
    POPDB_DCHECK(dmv::BuildCatalog(dmv::GenConfig{}, catalog).ok());
  } else {
    if (!quiet) std::printf("loading the toy database...\n");
    BuildToy(catalog);
  }
}

dist::PartitionSpec DatasetPartitionSpec(const std::string& dataset) {
  if (dataset == "tpch") return dist::TpchPartitionSpec();
  if (dataset == "dmv") return dist::DmvPartitionSpec();
  return dist::ToyPartitionSpec();
}

bool ParseEndpoints(const std::string& list,
                    std::vector<net::Endpoint>* out) {
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string item = list.substr(start, comma - start);
    const size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= item.size()) {
      return false;
    }
    net::Endpoint ep;
    ep.host = item.substr(0, colon);
    ep.port = std::atoi(item.c_str() + colon + 1);
    if (ep.port <= 0) return false;
    out->push_back(std::move(ep));
    start = comma + 1;
  }
  return !out->empty();
}

int WritePortFile(const std::string& path, int port) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "%d\n", port);
  std::fclose(f);
  return 0;
}

struct Options {
  std::string dataset = "toy";
  std::string port_file;
  net::NetServerConfig net_config;
  bool quiet = false;
  int shard_index = -1;
  int shard_count = 0;
  bool coordinator = false;
  std::string shard_list;
  int spawn_shards = 0;
  double subplan_stall_ms = 0.0;
  int64_t dist_batch_rows = 0;  ///< 0 = coordinator default.
  bool trace = false;           ///< Enable the span tracer at startup.
};

/// Serves one partition of the dataset: the full catalog is rebuilt
/// deterministically, then filtered down to this shard's key range.
/// `port_fd`, when >= 0, receives the resolved port as one text line (the
/// parent of a forked shard reads it from a pipe).
int RunShard(const Options& opts, int port_fd) {
  Catalog full;
  BuildDataset(opts.dataset, opts.quiet, &full);
  const dist::PartitionSpec spec = DatasetPartitionSpec(opts.dataset);
  Result<std::vector<dist::KeyRange>> ranges =
      dist::ComputeRanges(full, spec, opts.shard_count);
  if (!ranges.ok()) {
    std::fprintf(stderr, "partitioning failed: %s\n",
                 ranges.status().ToString().c_str());
    return 1;
  }
  Catalog shard_catalog;
  const Status built =
      dist::BuildShardCatalog(full, spec, ranges.value(), opts.shard_index,
                              /*histogram_buckets=*/32, &shard_catalog);
  if (!built.ok()) {
    std::fprintf(stderr, "shard catalog failed: %s\n",
                 built.ToString().c_str());
    return 1;
  }

  // Backs the shard's `trace` and `query_log` requests (its subplans).
  TraceStore traces(/*capacity=*/1024);
  ServiceConfig service_config;
  service_config.share_feedback = true;
  service_config.trace_sink = &traces;
  QueryService service(shard_catalog, service_config);

  dist::ShardExecutor backend(shard_catalog);
  net::NetServerConfig net_config = opts.net_config;
  net_config.subplan_backend = &backend;
  net_config.subplan_stall_ms = opts.subplan_stall_ms;
  net::NetServer server(&service, &traces, net_config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bind failed: %s\n", started.ToString().c_str());
    return 1;
  }
  if (port_fd >= 0) {
    char buf[16];
    const int len = std::snprintf(buf, sizeof(buf), "%d\n", server.port());
    if (write(port_fd, buf, static_cast<size_t>(len)) != len) return 1;
    close(port_fd);
  }
  if (!opts.port_file.empty() &&
      WritePortFile(opts.port_file, server.port()) != 0) {
    return 1;
  }
  if (!opts.quiet) {
    std::printf("popdb-server: shard %d/%d dataset=%s port=%d\n",
                opts.shard_index, opts.shard_count, opts.dataset.c_str(),
                server.port());
    std::fflush(stdout);
  }
  while (g_interrupted == 0 && !server.WaitForShutdownRequest(200.0)) {
  }
  server.Shutdown();
  service.Shutdown(/*drain=*/false);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      opts.net_config.port = std::atoi(argv[++i]);
    } else if (arg == "--port-file" && i + 1 < argc) {
      opts.port_file = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      opts.net_config.num_workers = std::atoi(argv[++i]);
    } else if (arg == "--allow-shutdown") {
      opts.net_config.allow_shutdown_request = true;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (arg == "--shard-index" && i + 1 < argc) {
      opts.shard_index = std::atoi(argv[++i]);
    } else if (arg == "--shard-count" && i + 1 < argc) {
      opts.shard_count = std::atoi(argv[++i]);
    } else if (arg == "--coordinator") {
      opts.coordinator = true;
    } else if (arg == "--shards" && i + 1 < argc) {
      opts.shard_list = argv[++i];
    } else if (arg == "--spawn-shards" && i + 1 < argc) {
      opts.spawn_shards = std::atoi(argv[++i]);
    } else if (arg == "--subplan-stall-ms" && i + 1 < argc) {
      opts.subplan_stall_ms = std::atof(argv[++i]);
    } else if (arg == "--dist-batch-rows" && i + 1 < argc) {
      opts.dist_batch_rows = std::atoll(argv[++i]);
    } else if (arg == "--trace") {
      opts.trace = true;
    } else if (arg[0] != '-') {
      opts.dataset = arg;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  // Forked shard children inherit the flag, so one --trace lights up the
  // whole spawned cluster.
  if (opts.trace) SpanTracer::Global().Enable();

  // ---- Shard mode: serve one partition, execute subplans.
  if (opts.shard_index >= 0 || opts.shard_count > 0) {
    if (opts.shard_index < 0 || opts.shard_count <= opts.shard_index) {
      std::fprintf(stderr,
                   "--shard-index K and --shard-count N require "
                   "0 <= K < N\n");
      return 2;
    }
    return RunShard(opts, /*port_fd=*/-1);
  }

  // ---- Spawn mode: fork shard children before any threads exist, then
  // fall through into coordinator mode against their ports.
  std::vector<pid_t> children;
  std::vector<net::Endpoint> endpoints;
  if (opts.spawn_shards > 0) {
    for (int s = 0; s < opts.spawn_shards; ++s) {
      int fds[2];
      if (pipe(fds) != 0) {
        std::perror("pipe");
        return 1;
      }
      const pid_t pid = fork();
      if (pid < 0) {
        std::perror("fork");
        return 1;
      }
      if (pid == 0) {
        close(fds[0]);
        Options shard = opts;
        shard.shard_index = s;
        shard.shard_count = opts.spawn_shards;
        shard.net_config.port = 0;
        shard.port_file.clear();
        shard.quiet = true;
        _exit(RunShard(shard, fds[1]));
      }
      close(fds[1]);
      children.push_back(pid);
      std::string line;
      char c;
      while (read(fds[0], &c, 1) == 1 && c != '\n') line.push_back(c);
      close(fds[0]);
      const int port = std::atoi(line.c_str());
      if (port <= 0) {
        std::fprintf(stderr, "shard %d failed to start\n", s);
        for (const pid_t child : children) kill(child, SIGTERM);
        return 1;
      }
      endpoints.push_back({"127.0.0.1", port});
    }
    opts.coordinator = true;
  } else if (opts.coordinator) {
    if (!ParseEndpoints(opts.shard_list, &endpoints)) {
      std::fprintf(stderr,
                   "--coordinator requires --shards host:port[,...]\n");
      return 2;
    }
  }

  Catalog catalog;
  BuildDataset(opts.dataset, opts.quiet, &catalog);

  // The trace store backs the wire `trace` and `query_log` requests: the
  // last 1024 finished reads and writes, one record each.
  TraceStore traces(/*capacity=*/1024);
  ServiceConfig service_config;
  service_config.share_feedback = true;
  service_config.trace_sink = &traces;

  std::unique_ptr<dist::Coordinator> coordinator;
  if (opts.coordinator) {
    dist::CoordinatorConfig dist_config;
    dist_config.shards = endpoints;
    dist_config.partition = DatasetPartitionSpec(opts.dataset);
    if (opts.dist_batch_rows > 0) {
      dist_config.batch_rows = opts.dist_batch_rows;
    }
    coordinator =
        std::make_unique<dist::Coordinator>(catalog, std::move(dist_config));
    service_config.dist_backend = coordinator.get();
  }

  QueryService service(catalog, service_config);

  // The write path (INSERT/UPDATE/DELETE over the wire) serves local mode
  // only: a coordinator's shards each hold their own partition copy, so a
  // coordinator-side write would silently diverge from them.
  std::unique_ptr<txn::WriteManager> writes;
  if (coordinator == nullptr) {
    writes = std::make_unique<txn::WriteManager>(&catalog);
    service.AttachWriteManager(writes.get());
  }

  net::NetServerConfig net_config = opts.net_config;
  if (coordinator != nullptr) {
    coordinator->RegisterMetrics(&service.metrics_registry());
    // Cluster observability: `spans {scope:"cluster"}` and
    // `metrics {cluster:true}` fan out to the shards through the
    // coordinator's connection pool.
    net_config.cluster = coordinator.get();
  }

  net::NetServer server(&service, &traces, net_config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bind failed: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!opts.port_file.empty() &&
      WritePortFile(opts.port_file, server.port()) != 0) {
    return 1;
  }
  if (!opts.quiet) {
    std::printf("popdb-server: dataset=%s port=%d workers=%d%s%s\n",
                opts.dataset.c_str(), server.port(),
                opts.net_config.num_workers,
                opts.coordinator
                    ? (" (coordinator, " + std::to_string(endpoints.size()) +
                       " shards)")
                          .c_str()
                    : "",
                opts.net_config.allow_shutdown_request
                    ? " (shutdown enabled)"
                    : "");
  }
  std::fflush(stdout);

  // Serve until a signal arrives or a client asks us to stop.
  while (g_interrupted == 0 && !server.WaitForShutdownRequest(200.0)) {
  }

  if (!opts.quiet) std::printf("popdb-server: shutting down\n");
  server.Shutdown();
  service.Shutdown(/*drain=*/false);

  for (const pid_t child : children) kill(child, SIGTERM);
  for (const pid_t child : children) waitpid(child, nullptr, 0);
  return 0;
}
