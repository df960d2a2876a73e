#!/usr/bin/env bash
# Sanitizer gate for the lock-free data path: builds the msg + flow
# test suites (plus the util and driver suites their primitives live
# under) with -fsanitize and runs them under ctest.  The publish path
# takes no locks (a full subscriber queue drops), so it must stay TSan-clean;
# the capture front end (table-driven Toeplitz, burst staging, the
# fixed-offset pre-parse probe) does raw byte-offset reads, so it must
# stay UBSan-clean too.
#
# The `metrics` mode gates the telemetry layer instead: it builds the
# obs + core suites under TSan (the snapshot thread reads every shard
# while workers write them, so any missing atomic shows up here), runs
# them, and then asserts end-to-end that a metrics-enabled pipeline run
# self-ingests "ruru.self.*" series into its own TSDB.
#
# The `enrich` mode gates the allocation-free enrichment fast path and
# the parsers of outside bytes: the geo + analytics suites (interner
# arena, SoA range DBs with untrusted loaders, set-associative flat
# cache, batch enrichment), the config-file suites from test_core (key
# table, range checks, the ConfigFuzz mutation driver) and the decoder
# mutation drivers (LatencyCodecFuzz, AlertCodecFuzz, WsFrameFuzz, with
# the AlertCodec and WebSocket unit suites) built with ASan AND UBSan
# together — the path is raw-pointer-heavy by design and the parsers
# take hostile bytes, so both heap misuse and UB must abort the run.
#
# The `flow` mode gates the SIMD group-probed flow table: the flow
# suites (control-byte kernels, probe core, batched tracking, fuzz
# oracles, zero-alloc burst proof) under ASan+UBSan — the probe core
# indexes raw control bytes and unions SIMD masks, so both heap misuse
# and UB must abort — plus a TSan pass over the single-writer contract:
# contains()/stats()/size() racing the data path from the metrics
# snapshot thread.
#
# The `scale` mode gates the multi-core scale-out (pinned topology,
# sharded injection, fan-in lanes): the msg + driver + core + analytics
# suites under TSan — per-lane publish is single-producer by contract and the
# sharded producer lanes feed per-queue SPSC rings, so any accidental
# sharing is a data race this build must catch; the enrichment pool's
# sharded consumers park on the bus's eventcount — then the determinism
# invariant run un-sanitized: the sharded pipeline must emit bit-
# identical samples at 1, 2, and 4 workers.
#
# The `tsdb` mode gates the compressed storage engine: the whole tsdb
# suite (Gorilla bit codec, open-addressed series index, WAL framing
# fed truncated and byte-flipped logs, oracle-parity queries) under
# ASan+UBSan — the codec shifts raw 64-bit lanes and the WAL parses
# hostile bytes, so both heap misuse and UB must abort — plus a TSan
# pass over the sharded engine's reader/writer decoupling (concurrent
# ingest, lock-free sealed-chunk scans, retention rewrites).
#
# The `inflow` mode gates the in-flow RTT kernel: the timestamp-ring
# matcher suites (shared SoA note/match/consume kernel, tracker
# matching semantics, offline-pping fuzz oracles, the zero-allocation
# steady-state proof) under ASan+UBSan — the probe reads TSval/TSecr at
# raw byte offsets and the rings index SoA lanes with masked heads, so
# both heap misuse and UB must abort — plus a TSan pass over the worker
# path (threaded queue workers running the kernel while the snapshot
# thread reads stats) and the explicit bit-identity invariant: the
# handshake sample stream must be unchanged with the kernel on or off.
#
# The `trace` mode gates the flight recorder: the obs + core suites
# under TSan — trace rings are written by pinned workers while the
# watchdog snapshots them live, and the TSC clock calibrates once under
# a Meyers singleton, so any unsynchronized access shows up here — then
# the observer-effect invariant un-sanitized: the same replay traced at
# 1-in-64 must emit a sample stream bit-identical to the untraced run.
#
# The `worker` mode gates the vectorized poll loop: the lane pipeline,
# the fuzz oracles against the test-side reference worker and the
# zero-alloc proof under
# ASan+UBSan (the SoA descriptor indexes raw lanes and the masked
# classify unions SIMD masks, so both heap misuse and UB must abort), a
# TSan pass over the multi-worker path, and a fig2 regression smoke
# that fails if the vector loop's Transpacific throughput drops below
# 0.95x of the value recorded in bench/BENCH_worker.json.
#
# Usage: tools/check.sh [thread|address|undefined|metrics|enrich|flow|scale|tsdb|trace|inflow|worker]   (default: thread)
set -euo pipefail

SAN="${1:-thread}"
case "$SAN" in
  thread|address|undefined|metrics|enrich|flow|scale|tsdb|trace|inflow|worker) ;;
  *) echo "usage: $0 [thread|address|undefined|metrics|enrich|flow|scale|tsdb|trace|inflow|worker]" >&2; exit 2 ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"

if [ "$SAN" = "metrics" ]; then
  # Telemetry gate: obs registry + snapshot thread + pipeline wiring
  # under TSan.  test_obs carries the dedicated concurrency tests
  # (ConcurrentIncrementAndSnapshotIsRaceFreeAndExact et al.); test_core
  # runs full metrics-enabled pipelines with the snapshot thread live.
  BUILD="$ROOT/build-thread"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" --target test_obs test_core
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" \
    -R 'Metrics|Snapshot|Prometheus|JsonLines|SelfIngest|Pipeline')

  # End-to-end self-ingest assertion: a metrics-enabled run must land
  # ruru.self.* series in the TSDB (the test fails otherwise, so its
  # passing IS the assertion — run it by name to make the gate explicit).
  "$BUILD/tests/test_core" \
    --gtest_filter='PipelineMetricsTest.SelfIngestLandsSeriesInTheTsdb'
  echo "metrics gate OK: snapshot thread TSan-clean, self-ingest series present"
  exit 0
fi

if [ "$SAN" = "enrich" ]; then
  # Enrichment gate: geo DB loaders fed truncated/hostile files, the
  # interner's lock-free read path, flat-cache eviction and the
  # zero-allocation batch proof, plus the config-file parser and the
  # latency/alert/WebSocket decoders with their mutation drivers, all
  # under ASan+UBSan in one build.
  BUILD="$ROOT/build-enrich"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=address+undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" \
    --target test_geo test_analytics test_core test_msg test_anomaly test_viz
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" \
    -R 'GeoDb|AsDb|Geo6Db|World|StringInterner|FlatCache|DbLoaderRobustness|Enricher|ZeroAlloc|Aggregator|SampleFilter|FilterChain|Pool|ConfigParse|PipelineConfigFile|ConfigFuzz|LatencyCodecFuzz|AlertCodec|WsFrameFuzz|WebSocket')
  echo "enrich gate OK: fast path, config loader and bus/alert/WebSocket decoders ASan+UBSan-clean"
  exit 0
fi

if [ "$SAN" = "flow" ]; then
  # Flow-table gate, part 1: every probe path under ASan+UBSan in one
  # build — kernel parity, collision saturation, stale reclamation,
  # scalar-vs-SIMD tracker oracles, and the counting-allocator proof
  # that process_burst stays allocation-free.
  BUILD="$ROOT/build-flow"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=address+undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" --target test_flow test_analytics
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" \
    -R 'GroupProbe|FlowTable|HandshakeTracker|TrackerFuzz|TrackerOracle|Worker|ZeroAlloc')

  # Part 2: the single-writer/many-reader contract under TSan.  The
  # metrics snapshot thread reads stats()/size() (StatCells) while the
  # owning worker mutates the table; FlowTableConcurrency drives exactly
  # that race.
  BUILD="$ROOT/build-thread"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" --target test_flow
  "$BUILD/tests/test_flow" --gtest_filter='FlowTableConcurrency.*'
  echo "flow gate OK: probe paths ASan+UBSan-clean, stats snapshot TSan-clean"
  exit 0
fi

if [ "$SAN" = "scale" ]; then
  # Scale-out gate, part 1: the concurrency surface under TSan.  Fan-in
  # lanes (one producer per worker), sharded injection into per-queue
  # SPSC rings, the mempool's bulk alloc/free shared by the injector and
  # the workers, CPU pinning bookkeeping, and the full sharded pipelines
  # the Scaling suite drives end to end.
  BUILD="$ROOT/build-thread"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" --target test_msg test_driver test_core test_analytics
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" \
    -R 'FanIn|PubSub|BusQueue|Pool|Nic|Mempool|LcoreLauncher|Scaling|Pipeline')

  # Part 2: the determinism invariant, run un-sanitized so timing is
  # representative.  ShardedNWorkersBitIdenticalTo1Worker compares the
  # sorted sample stream at 2 and 4 workers against 1 worker sample for
  # sample; FanInConservesEverySample checks delivered + dropped ==
  # published at every N.  Run them by name so the gate is explicit.
  BUILD="$ROOT/build"
  cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$BUILD" -j"$JOBS" --target test_core
  "$BUILD/tests/test_core" \
    --gtest_filter='Scaling.ShardedNWorkersBitIdenticalTo1Worker:Scaling.FanInConservesEverySample'
  echo "scale gate OK: lanes TSan-clean, sharded output bit-identical at 1/2/4 workers"
  exit 0
fi

if [ "$SAN" = "tsdb" ]; then
  # Storage-engine gate, part 1: codec + index + WAL + parity queries
  # under ASan+UBSan in one build.  The chunk codec packs/unpacks raw
  # 64-bit lanes with data-dependent shifts, the series index probes a
  # flat open-addressed table, and the WAL recovery tests feed it logs
  # cut at every byte offset and flipped at every byte — exactly the
  # inputs where heap misuse or UB would hide.
  BUILD="$ROOT/build-tsdb"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=address+undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" --target test_tsdb
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" \
    -R 'BitStream|ChunkCodec|ChunkWriter|SeriesIndex|Engine|Wal|Tsdb|Downsample')

  # Part 2: the reader/writer decoupling under TSan.  Shard-local
  # append locks, lock-free sealed-chunk reads via shared_ptr snapshots
  # and retention rewriting chunks mid-scan are the claims; the
  # EngineConcurrency suite drives all of them at once.
  BUILD="$ROOT/build-thread"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" --target test_tsdb
  "$BUILD/tests/test_tsdb" --gtest_filter='EngineConcurrency.*'
  echo "tsdb gate OK: codec/index/WAL ASan+UBSan-clean, sharded engine TSan-clean"
  exit 0
fi

if [ "$SAN" = "inflow" ]; then
  # In-flow RTT gate, part 1: the matcher under ASan+UBSan in one
  # build.  TsRing unit semantics (note/match/consume, retransmission,
  # wraparound, eviction order), tracker matching + rate limiting, the
  # fuzz oracles replaying scenario traffic against offline pping
  # bit-for-bit, classic pping itself (the shared kernel's other
  # caller), and the counting-allocator proof that the established-flow
  # steady state never allocates.
  BUILD="$ROOT/build-flow"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=address+undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" --target test_flow test_baseline test_analytics test_core
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" \
    -R 'TsRing|Inflow|Pping|ZeroAlloc|HandshakeTracker')

  # Part 2: the worker path under TSan.  InflowPipeline runs threaded
  # queue workers with the kernel enabled while the metrics snapshot
  # thread reads tracker stats; any unsynchronized counter or ring
  # access in the fast path shows up here.  Close with the explicit
  # bit-identity invariant: handshake samples must not change when the
  # kernel is switched on.
  BUILD="$ROOT/build-thread"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" --target test_flow test_core
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" -R 'Inflow|Worker')
  "$BUILD/tests/test_flow" \
    --gtest_filter='InflowWorker.HandshakeSamplesBitIdenticalWithKernelOnOrOff'
  echo "inflow gate OK: matcher ASan+UBSan-clean, worker path TSan-clean, handshake stream bit-identical"
  exit 0
fi

if [ "$SAN" = "worker" ]; then
  # Vector-loop gate, part 1: the lane pipeline under ASan+UBSan in one
  # build.  The fuzz oracles against the one-probe-per-packet reference
  # worker built into test_flow (identical samples AND identical stats
  # across random bursts), the mixed-burst handshake-completes-mid-burst
  # ordering test, the masked-eq scalar/SIMD twins, and the
  # counting-allocator proof that the poll loop's steady state never
  # allocates.
  BUILD="$ROOT/build-flow"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=address+undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" --target test_flow test_analytics
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" \
    -R 'WorkerVector|Worker|GroupProbe|ZeroAlloc|Inflow')

  # Part 2: the multi-worker path under TSan — threaded queue workers
  # running the vector loop while the snapshot thread reads stats.
  BUILD="$ROOT/build-thread"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" --target test_flow test_core
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" -R 'Worker|Scaling|Inflow')

  # Part 3: the fig2 regression smoke, un-sanitized so timing is
  # representative.  The vector loop's Transpacific throughput must hold
  # >= 0.95x the pps recorded in bench/BENCH_worker.json (gate_pps).
  BUILD="$ROOT/build"
  cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$BUILD" -j"$JOBS" --target bench_worker_pipeline
  GATE_PPS="$(grep -o '"gate_pps"[^,}]*' "$ROOT/bench/BENCH_worker.json" | head -1 | awk -F: '{gsub(/[^0-9.eE+]/,"",$2); print $2}')"
  [ -n "$GATE_PPS" ] || { echo "worker gate: no gate_pps in bench/BENCH_worker.json" >&2; exit 1; }
  MEASURED="$("$BUILD/bench/bench_worker_pipeline" \
      --benchmark_filter='BM_WorkerTranspacific/vector:1' \
      --benchmark_min_time=0.2 --benchmark_format=json 2>/dev/null \
    | grep -o '"items_per_second": [0-9.e+]*' | head -1 | awk '{print $2}')"
  [ -n "$MEASURED" ] || { echo "worker gate: smoke bench produced no throughput" >&2; exit 1; }
  awk -v m="$MEASURED" -v g="$GATE_PPS" 'BEGIN {
    ratio = m / g;
    printf "worker smoke: %.0f pps vs recorded %.0f pps (%.2fx, floor 0.95x)\n", m, g, ratio;
    exit (ratio >= 0.95) ? 0 : 1;
  }' || { echo "worker gate FAILED: fig2 smoke below 0.95x of recorded throughput" >&2; exit 1; }
  echo "worker gate OK: lane loop ASan+UBSan-clean, multi-worker TSan-clean, fig2 smoke held"
  exit 0
fi

if [ "$SAN" = "trace" ]; then
  # Flight-recorder gate, part 1: the tracing concurrency surface under
  # TSan.  Ring writers vs snapshot readers, the locked multi-producer
  # sink ring, watchdog polling live stage counters, the TSC clock
  # singleton, and full traced pipelines end to end.
  BUILD="$ROOT/build-thread"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" --target test_obs test_core
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" \
    -R 'Trace|Tracer|TscClock|Watchdog|PipelineTrace|Snapshot')

  # Part 2: the observer-effect invariant, un-sanitized so timing is
  # representative.  TracingDoesNotChangeMeasurements replays the same
  # scenario untraced and at 1-in-64 and compares the sorted sample
  # stream fact for fact — run it by name so the gate is explicit.
  BUILD="$ROOT/build"
  cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$BUILD" -j"$JOBS" --target test_core
  "$BUILD/tests/test_core" \
    --gtest_filter='PipelineTrace.TracingDoesNotChangeMeasurements:PipelineTrace.SampledFlowsLeaveConnectedSpanChains'
  echo "trace gate OK: rings/watchdog TSan-clean, traced output bit-identical at 1-in-64"
  exit 0
fi

BUILD="$ROOT/build-$SAN"

cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE="$SAN" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j"$JOBS" --target test_msg test_flow test_util test_driver

# Only the built suites are registered; the concurrency-heavy msg/flow
# tests are the point of this gate.
(cd "$BUILD" && ctest --output-on-failure -j"$JOBS" -E 'NOT_BUILT')
