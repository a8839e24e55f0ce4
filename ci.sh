#!/usr/bin/env bash
# CI entry point: release build + full test suite + a loopback network
# smoke (popdb_server driven by the scripted popdb_client session), a
# mixed OLTP/OLAP smoke (DML drift firing CHECK re-optimizations, stats
# folds, plan-cache recovery over the wire), a distributed smoke (2 shard
# processes + a scatter-gather coordinator, including a
# stitched-cluster-trace / federated-metrics / query-log check and a
# kill -9 of one shard mid-query), then a ThreadSanitizer build that
# hammers the concurrent pieces (runtime query service, network front
# end, shared feedback stores, concurrent executors, write-path snapshot
# consistency, metrics registry, span tracer), then a UBSan build over
# the tracing/metrics/runtime/network/write/storage/optimizer suites and
# the typed predicate kernels, then an AddressSanitizer build over the
# optimizer's DP table (indexed by table-set bitmasks) and the
# differential oracle's sample, over the
# flat join kernels (CSR index spans, hash-join chain arrays, column
# gathers) with their storage, operator,
# write-path and batch-size tests, over the columnar base tables' chunk
# gathers (CSV and DMV tests), over the shared row buffers of
# reused intermediate results (POP, matview and extension tests), and over
# the narrow row layouts' position arithmetic (executor builder, layout and
# merge specs, TPC-H plans, the shard JSON round trip).
#
# The release ctest runs everything including tests labeled "slow"
# (the differential oracle's full config lattice) and "paper" (the
# figure/table binaries asserting the paper's claims on work units); use
# `ctest -L fast` locally for the quick loop.
# bench_reopt_latency, the one wall-time gate, runs serially after it.
# The sanitizer stages run the differential oracle's pairwise-covering
# sample (--gtest_filter=DifferentialSample*), and TSan the golden
# engine-outcome table at batch sizes 3 and 1024 — the full lattice
# and the other batch sizes are release-only.
#
# Usage: ./ci.sh [--skip-tsan] [--skip-ubsan]
set -euo pipefail
cd "$(dirname "$0")"

SKIP_TSAN=0
SKIP_UBSAN=0
for arg in "$@"; do
  [[ "$arg" == "--skip-tsan" ]] && SKIP_TSAN=1
  [[ "$arg" == "--skip-ubsan" ]] && SKIP_UBSAN=1
done

echo "=== release build + full ctest ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "=== re-optimization latency gate (serial, wall time) ==="
# Identical plans every round and a corpus deep-edge speedup >= 5x of
# incremental over full DP. Timed, so it stays out of parallel ctest.
./build/bench/bench_reopt_latency

echo "=== network smoke: popdb_server + scripted client on loopback ==="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
./build/examples/popdb_server toy --quiet --allow-shutdown \
    --port-file "$SMOKE_DIR/port" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$SMOKE_DIR/port" ]] && break
  sleep 0.1
done
[[ -s "$SMOKE_DIR/port" ]] || { echo "server never wrote its port file"; exit 1; }
./build/examples/popdb_client --port-file "$SMOKE_DIR/port" --smoke
# The smoke script ends with a wire `shutdown` request; the server must
# exit 0 on its own (clean shutdown, no leaked threads keeping it alive).
wait "$SERVER_PID"

echo "=== mixed-workload smoke: DML + analytics over the wire ==="
# Drives the write path end to end on a fresh toy server: INSERT drift
# into a believed-empty region fires a CHECK re-optimization, a
# threshold-crossing batch folds statistics and evicts cached plans, the
# repeat query recovers to cache hits, and UPDATE/DELETE, the write query
# log, write metrics, and a concurrent reader/writer burst are asserted.
./build/examples/popdb_server toy --quiet --allow-shutdown \
    --port-file "$SMOKE_DIR/mixed.port" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$SMOKE_DIR/mixed.port" ]] && break
  sleep 0.1
done
[[ -s "$SMOKE_DIR/mixed.port" ]] || { echo "server never wrote its port file"; exit 1; }
./build/examples/popdb_client --port-file "$SMOKE_DIR/mixed.port" --mixed-smoke
wait "$SERVER_PID"

echo "=== distributed smoke: 2 shards + coordinator, shard kill mid-query ==="
# Two shard processes (stalled row batches so a mid-query kill reliably
# lands mid-stream) and a coordinator scatter-gathering across them.
./build/examples/popdb_server toy --quiet --trace \
    --shard-index 0 --shard-count 2 --subplan-stall-ms 20 \
    --port-file "$SMOKE_DIR/shard0.port" &
SHARD0_PID=$!
./build/examples/popdb_server toy --quiet --trace \
    --shard-index 1 --shard-count 2 --subplan-stall-ms 20 \
    --port-file "$SMOKE_DIR/shard1.port" &
SHARD1_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$SMOKE_DIR/shard0.port" && -s "$SMOKE_DIR/shard1.port" ]] && break
  sleep 0.1
done
[[ -s "$SMOKE_DIR/shard0.port" && -s "$SMOKE_DIR/shard1.port" ]] \
    || { echo "shards never wrote their port files"; exit 1; }
# Small row batches + the per-batch stall make full-table scans take
# seconds, so the kill below reliably lands mid-stream.
./build/examples/popdb_server toy --quiet --coordinator --trace \
    --shards "127.0.0.1:$(cat "$SMOKE_DIR/shard0.port"),127.0.0.1:$(cat "$SMOKE_DIR/shard1.port")" \
    --dist-batch-rows 32 --port-file "$SMOKE_DIR/coord.port" &
COORD_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$SMOKE_DIR/coord.port" ]] && break
  sleep 0.1
done
[[ -s "$SMOKE_DIR/coord.port" ]] || { echo "coordinator never wrote its port file"; exit 1; }
COORD_PORT="$(cat "$SMOKE_DIR/coord.port")"

# Query mix: sharded aggregation, co-partitioned join with the correlated
# predicate trap (drives a coordinator-level re-optimization), and a
# non-shardable query that falls back to local execution.
./build/examples/popdb_client --port "$COORD_PORT" \
    "SELECT o_class, COUNT(*) FROM orders GROUP BY o_class ORDER BY 1"
./build/examples/popdb_client --port "$COORD_PORT" \
    "SELECT o_class, SUM(i_qty), AVG(i_qty) FROM orders, items WHERE o_id = i_order AND o_class = 7 AND o_subclass = 77 GROUP BY o_class"
./build/examples/popdb_client --port "$COORD_PORT" \
    "SELECT COUNT(*) FROM big_a, big_b WHERE a_k = b_k"

# Cluster observability plane: the stitched Chrome trace must carry
# events from the coordinator AND both shard processes (pid rows 0/1/2),
# the federated exposition must label per-shard samples, and the
# structured query log must have recorded the trap's re-optimization.
./build/examples/popdb_client --port "$COORD_PORT" \
    --trace-dump "$SMOKE_DIR/cluster-trace.json"
grep -q '"pid":1' "$SMOKE_DIR/cluster-trace.json" \
    || { echo "stitched trace is missing shard 0's timeline"; exit 1; }
grep -q '"pid":2' "$SMOKE_DIR/cluster-trace.json" \
    || { echo "stitched trace is missing shard 1's timeline"; exit 1; }
grep -q '"subplan_execute"' "$SMOKE_DIR/cluster-trace.json" \
    || { echo "stitched trace has no shard execution spans"; exit 1; }
./build/examples/popdb_client --port "$COORD_PORT" --cluster-metrics \
    > "$SMOKE_DIR/cluster-metrics.txt"
grep -q 'shard="1"' "$SMOKE_DIR/cluster-metrics.txt" \
    || { echo "federated metrics are missing shard labels"; exit 1; }
grep -q 'popdb_dist_shard_latency_ms' "$SMOKE_DIR/cluster-metrics.txt" \
    || { echo "federated metrics are missing the per-shard latency family"; exit 1; }
./build/examples/popdb_client --port "$COORD_PORT" --log \
    > "$SMOKE_DIR/query-log.json"
grep -q '"reopts":[1-9]' "$SMOKE_DIR/query-log.json" \
    || { echo "query log did not record the trap re-optimization"; exit 1; }
grep -q '"distributed":true' "$SMOKE_DIR/query-log.json" \
    || { echo "query log did not mark the scatter-gather queries"; exit 1; }
echo "cluster observability smoke passed (trace + metrics + query log)"

# Kill shard 1 mid-query: the stalled scan takes seconds, the kill -9
# lands mid-stream, and the client must get a clean error — not a hang.
./build/examples/popdb_client --port "$COORD_PORT" \
    "SELECT o_id, o_subclass FROM orders" > "$SMOKE_DIR/killed.out" 2>&1 &
KILLED_CLIENT_PID=$!
sleep 0.5
kill -9 "$SHARD1_PID"
KILLED_RC=0
wait "$KILLED_CLIENT_PID" || KILLED_RC=$?
[[ "$KILLED_RC" != "0" ]] \
    || { echo "query against a killed shard unexpectedly succeeded"; exit 1; }
grep -qi "unavailable\|shard" "$SMOKE_DIR/killed.out" \
    || { echo "shard-kill error not surfaced:"; cat "$SMOKE_DIR/killed.out"; exit 1; }
echo "shard kill surfaced cleanly: $(head -1 "$SMOKE_DIR/killed.out")"

# The coordinator survives the shard death: local-fallback queries still
# answer on the same server.
./build/examples/popdb_client --port "$COORD_PORT" \
    "SELECT COUNT(*) FROM big_a WHERE a_v < 100"

kill "$COORD_PID" "$SHARD0_PID"
wait "$COORD_PID" "$SHARD0_PID" 2>/dev/null || true
wait "$SHARD1_PID" 2>/dev/null || true

if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "=== TSan stage skipped (--skip-tsan) ==="
else
  echo "=== ThreadSanitizer build + concurrency tests ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPOPDB_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)" \
        --target runtime_test concurrency_test observability_test \
        plan_cache_test differential_test engine_golden_test txn_test \
        net_test dist_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/runtime_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/concurrency_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/observability_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/plan_cache_test
  # The differential oracle's sample: shared plan caches, loopback
  # clusters and a concurrent writer in one world.
  TSAN_OPTIONS="halt_on_error=1" \
      ./build-tsan/tests/differential_test \
      --gtest_filter='DifferentialSample*'
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/engine_golden_test \
      --gtest_filter='*/rows3:*/rows1024'
  # Write path (ctest label "txn"): copy-on-write snapshot hammer with
  # concurrent writers/readers and a service reading under writes.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/txn_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/net_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/dist_test
fi

if [[ "$SKIP_UBSAN" == "1" ]]; then
  echo "=== UBSan stage skipped (--skip-ubsan) ==="
else
  echo "=== UndefinedBehaviorSanitizer build + observability/runtime tests ==="
  cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPOPDB_SANITIZE=undefined
  cmake --build build-ubsan -j "$(nproc)" \
        --target runtime_test observability_test operator_test pop_test \
        plan_cache_test differential_test txn_test net_test dist_test \
        enumerator_test storage_test expr_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/observability_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/runtime_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/operator_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/pop_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/plan_cache_test
  # Batch-boundary CHECK math (floor/truncation) is exactly what UBSan
  # watches for; the differential oracle's sample crosses batch sizes with
  # every other axis, including the observe-only ECB configuration over
  # the DMV workload (the operator-level one over HSJN and index NLJN is
  # in operator_test).
  UBSAN_OPTIONS="halt_on_error=1" \
      ./build-ubsan/tests/differential_test \
      --gtest_filter='DifferentialSample*'
  # DP enumeration and memo invalidation are bit-twiddling over table sets
  # (subset walks, neighbour masks, superset masks) — UBSan's shift and
  # overflow checks cover exactly that. The golden plan table pins the
  # costing arithmetic, the memo identity tests the incremental path.
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/enumerator_test
  # StatsDelta histogram/NDV fold arithmetic and chunked COW row-version
  # math are integer-heavy — UBSan's overflow checks cover them.
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/txn_test
  # The index's open-addressing slots and CSR offsets are unsigned index
  # arithmetic over hashes.
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/storage_test
  # The typed predicate kernels convert int cells to double against double
  # operands and index chunk columns through selection vectors; expr_test
  # runs every predicate kind through them over the int64 extremes.
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/expr_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/net_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/dist_test
fi

echo "=== AddressSanitizer build + optimizer, join-kernel, storage and record tests ==="
# The DP table is a flat array indexed by table-set bitmasks and the memo
# carries it across re-optimizations: out-of-bounds or stale-entry reads
# are exactly what ASan catches.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPOPDB_SANITIZE=address
cmake --build build-asan -j "$(nproc)" \
      --target enumerator_test differential_test storage_test \
      operator_test txn_test observability_test net_test pop_test \
      feedback_matview_test extensions_test executor_builder_test \
      expr_test tpch_test dist_test csv_test dmv_test
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/enumerator_test
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/differential_test \
    --gtest_filter='DifferentialSample*'
# Join kernels: index probes return spans into the CSR postings (or the
# probe's scratch), hash joins walk flat chain arrays, and gathers index
# the held input batch by raw row number — a stale span or index is a
# heap overflow or use-after-free here. operator_test also holds the
# observe-only BUFCHECK regression over HSJN and index NLJN, and the
# differential sample above the one over the DMV workload (Fig. 14
# config).
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/storage_test
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/operator_test
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/txn_test
# Columnar base tables: scans gather from chunk columns through selection
# vectors, index NLJN gathers by rid, and CSV ingestion and the DMV
# generator's checks read stored cells through the snapshot accessors.
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/csv_test
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/dmv_test
# Per-query records move from the executor to the service to the sink,
# and the trace store's ring frees a record while a reader may still be
# rendering it: a lifetime bug there is a use-after-free.
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/observability_test
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/net_test
# A reused intermediate result is one row buffer owned jointly by the
# operator that filled it, the matview registry, plan nodes, NLJN inners
# and the indexes built over it: re-optimizations that reuse TEMP/SORT
# results and hash-join builds, index a view, or compensate ECDC rows are
# where a lifetime bug would read freed rows.
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/pop_test
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/feedback_matview_test
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/extensions_test
# Narrow row layouts: each query carries only the columns it reads, so
# join keys, merge specs, view index columns and aggregate positions are
# resolved per query; an off-by-one there reads past a row. The shard
# subplans ship those positions through JSON and rebuild the layout from
# the shipped QuerySpec.
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/executor_builder_test
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/expr_test
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/tpch_test
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/dist_test

echo "=== ci.sh: all stages passed ==="
