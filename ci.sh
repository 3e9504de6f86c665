#!/usr/bin/env bash
# CI driver: tier-1 verify (full build + ctest), a ThreadSanitizer pass over
# the concurrency-sensitive tests (including the serving layer and the
# socket chaos suite), an ASan+UBSan pass over the serialization /
# checkpoint / fault-injection paths plus the hostile-input server suite,
# and texrheo_serve / texrheo_ingest smoke sessions (toy model, scripted
# session over real sockets, clean shutdown) under ASan+UBSan.
#
# Usage:
#   ./ci.sh            # tier-1 + TSan + ASan/UBSan + smoke sessions
#   ./ci.sh --bench    # also run the Gibbs-sweep, checkpoint, serving,
#                      # router, similarity and ingest benchmarks (JSON to
#                      # bench/out), gating the mmap-load, router SLO,
#                      # similarity-fusion and ingest SLO results
#   ./ci.sh --metrics  # also validate the METRICSZ pipeline end to end:
#                      # selftest with --metrics-dir, jq schema check of the
#                      # exported file, and the instrumentation-overhead
#                      # benches (fails if instrumented sweeps are > 2%
#                      # slower; JSON to bench/out/obs_overhead.json)
#
# Exit code is nonzero if any stage fails.

set -euo pipefail

cd "$(dirname "$0")"

RUN_BENCH=0
RUN_METRICS=0
for arg in "$@"; do
  case "$arg" in
    --bench) RUN_BENCH=1 ;;
    --metrics) RUN_METRICS=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"

# Each sanitizer leg's suites, written once: the list feeds both the build
# targets and the ctest filter.
TSAN_SUITES=(
  thread_pool_test geweke_test sampler_exactness_test query_engine_test
  serve_snapshot_test joint_topic_model_test serve_chaos_test
  serve_server_test router_chaos_test backoff_test metrics_registry_test
  trace_test pipeline_e2e_test embed_trainer_test doc_store_test ingest_test
  ingest_chaos_test alias_table_test topic_gaussians_test checkpoint_test
  regression_test
)
ASAN_SUITES=(
  serialization_test robustness_test model_binary_test checkpoint_test
  atomic_file_test serve_hostile_test backoff_test router_chaos_test
  pipeline_e2e_test embed_trainer_test doc_store_test ingest_test
  ingest_chaos_test geweke_test sampler_exactness_test alias_table_test
  topic_gaussians_test joint_topic_model_test regression_test
  collapsed_sampler_test query_engine_test serve_server_test
  running_stats_test distributions_test
)
# "^(a|b|c)$": a ctest -R filter matching exactly the named suites.
suite_regex() {
  local IFS='|'
  echo "^($*)\$"
}

echo "==> tier-1: configure + build + ctest"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "==> TSan: rebuild concurrency-sensitive targets with -fsanitize=thread"
# A separate build tree keeps the sanitizer objects out of the main build.
cmake -B build-tsan -S . -DTEXRHEO_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target "${TSAN_SUITES[@]}"
(cd build-tsan && ctest --output-on-failure \
  -R "$(suite_regex "${TSAN_SUITES[@]}")")

echo "==> ASan/UBSan: rebuild durability-sensitive targets with -fsanitize=address,undefined"
cmake -B build-asan -S . -DTEXRHEO_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" --target "${ASAN_SUITES[@]}"
(cd build-asan && ctest --output-on-failure \
  -R "$(suite_regex "${ASAN_SUITES[@]}")")

echo "==> serve smoke: texrheo_serve --toy --selftest under ASan/UBSan"
# Trains a small toy model, runs the scripted query session (PREDICT /
# NEAREST / SIMILAR / TOPIC / RELOAD / STATSZ) over real sockets, and
# exits; ASan makes shutdown leaks and use-after-frees fatal.
cmake --build build-asan -j "$JOBS" --target texrheo_serve
./build-asan/src/serve/texrheo_serve --toy --toy-scale=0.03 --selftest

echo "==> ingest smoke: texrheo_ingest --toy --selftest under ASan/UBSan"
# Drives the full streaming loop over real sockets: drifting-stream
# INGEST lines, wire redelivery dedup, the stale-vocab contract, INGESTZ,
# a REFRESH cycle (retrain + pack + reload + WAL compaction), and a
# post-refresh ingest; ASan covers the WAL + mmap-reload paths.
cmake --build build-asan -j "$JOBS" --target texrheo_ingest
./build-asan/src/ingest/texrheo_ingest --toy --toy-scale=0.03 --selftest

if [[ "$RUN_METRICS" == 1 ]]; then
  echo "==> metrics: selftest with --metrics-dir + jq schema validation"
  METRICS_DIR="$(mktemp -d)"
  trap 'rm -rf "$METRICS_DIR"' EXIT
  ./build/src/serve/texrheo_serve --toy --toy-scale=0.03 --selftest \
    --metrics-dir="$METRICS_DIR" --metrics-interval-ms=200
  test -s "$METRICS_DIR/metricsz.json"
  jq -e -f ci/metricsz_schema.jq "$METRICS_DIR/metricsz.json" >/dev/null
  # The schema's breaker trio is all-or-none (handler-mode fronts have no
  # reload breaker); an engine front must actually carry it.
  jq -e '.counters | has("serve.breaker.trips")' \
    "$METRICS_DIR/metricsz.json" >/dev/null
  echo "metricsz.json conforms to ci/metricsz_schema.jq"

  echo "==> metrics: ingest METRICSZ over the wire + jq schema validation"
  # Same schema, other binary: start the toy ingest front, push one record
  # through INGEST + REFRESH, and validate the METRICSZ document it serves
  # (exercises the conditional ingest.* monotone chains in the schema).
  ./build/src/ingest/texrheo_ingest --toy --toy-scale=0.03 --port=0 \
    > "$METRICS_DIR/ingest_server.log" 2>&1 &
  INGEST_PID=$!
  INGEST_PORT=""
  for _ in $(seq 1 50); do
    INGEST_PORT="$(sed -n \
      's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$METRICS_DIR/ingest_server.log" | head -1)"
    [[ -n "$INGEST_PORT" ]] && break
    sleep 0.1
  done
  [[ -n "$INGEST_PORT" ]] || { echo "ingest front never listened" >&2; exit 1; }
  exec 3<>"/dev/tcp/127.0.0.1/$INGEST_PORT"
  printf 'INGEST gelatin=0.009 terms=katai\r\nREFRESH\r\nMETRICSZ\r\nQUIT\r\n' >&3
  INGEST_METRICSZ=""
  { read -r _ingest_reply && read -r _refresh_reply \
      && read -r INGEST_METRICSZ; } <&3 || true
  exec 3<&- 3>&-
  kill "$INGEST_PID" 2>/dev/null; wait "$INGEST_PID" 2>/dev/null || true
  printf '%s' "$INGEST_METRICSZ" | tr -d '\r' > "$METRICS_DIR/ingest_metricsz.json"
  test -s "$METRICS_DIR/ingest_metricsz.json"
  jq -e -f ci/metricsz_schema.jq "$METRICS_DIR/ingest_metricsz.json" >/dev/null
  jq -e '.counters | has("ingest.records.accepted")' \
    "$METRICS_DIR/ingest_metricsz.json" >/dev/null
  echo "ingest METRICSZ conforms to ci/metricsz_schema.jq"

  echo "==> metrics: instrumentation overhead (BM_MetricsOverhead + BM_InstrumentedSweep)"
  cmake --build build -j "$JOBS" --target bench_perf
  mkdir -p bench/out
  ./build/bench/bench_perf \
    --benchmark_filter='BM_(MetricsOverhead|InstrumentedSweep)' \
    --benchmark_min_time=2 \
    --benchmark_out=bench/out/obs_overhead.json \
    --benchmark_out_format=json
  echo "wrote bench/out/obs_overhead.json"
  # Fail when the instrumented chain loses > 2% sweep throughput. The
  # bench interleaves plain/instrumented sweeps per iteration, so the
  # paired overhead_pct is drift-free even on a busy single-core box.
  jq -e '
    [.benchmarks[] | select(.name | startswith("BM_InstrumentedSweep"))
     | .overhead_pct] | .[0] | . <= 2.0
  ' bench/out/obs_overhead.json >/dev/null \
    || { echo "instrumented sweep throughput regressed > 2%" >&2; exit 1; }
  echo "instrumented sweep throughput within 2% of plain"
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  echo "==> bench: Gibbs sweep scaling at 1/2/4/8 threads"
  cmake --build build -j "$JOBS" --target bench_perf
  mkdir -p bench/out
  ./build/bench/bench_perf \
    --benchmark_filter='BM_(GibbsSweepThreads|CollapsedSweepThreads)' \
    --benchmark_out=bench/out/gibbs_threads.json \
    --benchmark_out_format=json
  echo "wrote bench/out/gibbs_threads.json"
  echo "==> bench: checkpoint save/restore cost"
  ./build/bench/bench_perf \
    --benchmark_filter='BM_CheckpointSaveRestore' \
    --benchmark_out=bench/out/checkpoint.json \
    --benchmark_out_format=json
  echo "wrote bench/out/checkpoint.json"
  echo "==> bench: query engine (fold-in vs cached, 4 concurrent clients)"
  ./build/bench/bench_perf \
    --benchmark_filter='BM_QueryEngine' \
    --benchmark_out=bench/out/serve.json \
    --benchmark_out_format=json
  echo "wrote bench/out/serve.json"
  echo "==> bench: snapshot load, v2 text parse vs mmap (cold/warm)"
  ./build/bench/bench_perf \
    --benchmark_filter='BM_SnapshotLoad' \
    --benchmark_out=bench/out/model_load.json \
    --benchmark_out_format=json
  echo "wrote bench/out/model_load.json"
  # The point of the binary format: loading the packed pair must be at
  # least 20x faster than parsing the v2 text file (warm page cache; the
  # cold number is reported but advisory, POSIX_FADV_DONTNEED is a hint).
  jq -e '
    ([.benchmarks[] | select(.name == "BM_SnapshotLoadV2Parse")
      | .real_time] | .[0]) as $v2
    | ([.benchmarks[] | select(.name == "BM_SnapshotLoadMmapWarm")
        | .real_time] | .[0]) as $warm
    | ($v2 / $warm) >= 20
  ' bench/out/model_load.json >/dev/null \
    || { echo "mmap snapshot load is < 20x faster than v2 parse" >&2; exit 1; }
  jq -r '
    ([.benchmarks[] | select(.name == "BM_SnapshotLoadV2Parse")
      | .real_time] | .[0]) as $v2
    | ([.benchmarks[] | select(.name == "BM_SnapshotLoadMmapWarm")
        | .real_time] | .[0]) as $warm
    | "mmap warm load is \($v2 / $warm | floor)x faster than v2 parse"
  ' bench/out/model_load.json

  echo "==> bench: healthy-client latency with a stalled peer on the wire"
  ./build/bench/bench_perf \
    --benchmark_filter='BM_ServerUnderSlowClient' \
    --benchmark_out=bench/out/serve_robustness.json \
    --benchmark_out_format=json
  echo "wrote bench/out/serve_robustness.json"

  echo "==> bench: router SLO (open-loop load, replica kill/restart mid-run)"
  cmake --build build -j "$JOBS" --target bench_router
  ./build/bench/bench_router --out=bench/out/router_slo.json
  echo "wrote bench/out/router_slo.json"
  # The fleet contract: with every replica up, the router adds zero errors
  # and sheds nothing; with one of three replicas killed mid-run, retries +
  # breaker ejection keep availability >= 99% for scheduled arrivals.
  jq -e '
    (.healthy.error_rate == 0)
    and (.healthy.shed_rate == 0)
    and (.kill_window.availability >= 0.99)
    and (.kill_window.replica_restarted == true)
  ' bench/out/router_slo.json >/dev/null \
    || { echo "router SLO gate failed (see bench/out/router_slo.json)" >&2; exit 1; }
  echo "router SLO gate passed"

  echo "==> bench: SIMILAR backend ablation (precision@10 vs dish templates)"
  cmake --build build -j "$JOBS" --target bench_similarity
  ./build/bench/bench_similarity --out=bench/out/similarity.json
  echo "wrote bench/out/similarity.json"
  # The fusion contract: the weighted reciprocal-rank blend must be at
  # least as precise as every single backend it fuses — otherwise the
  # default mode weights in QueryEngineConfig are subtracting information.
  jq -e '
    .modes.fused.precision_at_10 as $fused
    | ($fused >= .modes.kl.precision_at_10)
      and ($fused >= .modes.embed.precision_at_10)
      and ($fused >= .modes.lexical.precision_at_10)
  ' bench/out/similarity.json >/dev/null \
    || { echo "similarity fusion gate failed (see bench/out/similarity.json)" >&2; exit 1; }
  echo "similarity fusion gate passed: fused >= every single backend"

  echo "==> bench: streaming ingestion SLO (arrival->queryable, refresh window)"
  cmake --build build -j "$JOBS" --target bench_ingest
  ./build/bench/bench_ingest --out=bench/out/ingest.json
  echo "wrote bench/out/ingest.json"
  # The zero-downtime contract: a fixed-cadence query stream running
  # across a full refresh cycle (retrain + pack + rolling reload of all
  # replicas + WAL compaction) keeps availability >= 99%, and the swap
  # actually happened (fingerprint changed, fleet converged on it).
  jq -e '
    (.refresh_window.availability >= 0.99)
    and (.refresh_window.fingerprint_changed == true)
    and (.refresh_window.fleet_converged == true)
  ' bench/out/ingest.json >/dev/null \
    || { echo "ingest SLO gate failed (see bench/out/ingest.json)" >&2; exit 1; }
  echo "ingest SLO gate passed"
fi

echo "==> CI passed"
