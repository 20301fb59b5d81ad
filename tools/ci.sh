#!/usr/bin/env bash
# CI gate: build Release and ASan+UBSan, run the full test suite in
# both, then run a differential-fuzz smoke (mean + ratio, serial and
# threaded) under the sanitizers so exactness bugs of the Howard-rescale
# class cannot regress silently. A third, TSan config re-runs the
# concurrency-heavy suites (pool, parallel driver, tiled kernels, solve
# service). Each config also runs a traced +
# metered multi-SCC smoke solve and validates the exported trace /
# metrics JSON with python3 -m json.tool, plus a live-daemon
# observability smoke: mcr_serve with the flight recorder pinning
# everything and a JSONL request log, a solve tagged with a known trace
# id, the TRACE payload fetched back by that id and json.tool-validated,
# and every request-log line parsed as JSON, and a live-daemon load
# smoke: mcr_serve with the windowed-telemetry pump on, a closed-loop
# mixed-verb mcr_load run with a nonzero cold fraction, gated on zero
# transport errors plus json.tool-valid report and stats JSONL
# artifacts, and a zero-copy store smoke: two mcr_pack datasets served
# via --dataset and hot-swapped under a --strict mcr_load reload mix
# with zero failures, with the post-swap fingerprint/generation asserted
# via STATS (the ASan leg additionally re-runs the pack
# corruption-rejection suite), and a fault-tolerant fleet smoke: three
# workers behind mcr_router under a --strict mcr_load run with one
# worker SIGKILLed mid-run and restarted — zero client-visible errors,
# nonzero failover counter, breaker re-closed to up=1, and after the
# SIGTERM drain every daemon exited and no socket file remains (the TSan
# leg additionally runs the router and shared-listener concurrency
# tests). A tiny mcr_bench
# grid runs
# twice and is gated with mcr_bench_diff: the self-diff must report zero
# regressions (exit 0), and the A-vs-B cross-run diff uses a generous
# threshold since CI machines are noisy (see docs/BENCHMARKING.md).
# The Release config additionally gates against the committed
# BENCH_baseline.json via the bench_all.sh --update-baseline recipe.
# The sanitizer configs compile the fault-injection hooks in and run the
# mcr_chaos seeded sweep (ASan, with --repeat-check; the sweep's
# in-process servers run tiny always-on flight recorders whose capacity
# bounds are asserted per seed) plus a worker-death-heavy plan (TSan),
# and a chaos --crash-test that must die by SIGABRT while leaving a
# json.tool-valid post-mortem flight dump; the Release config asserts
# with nm that no injector symbol leaked into the shipped artifacts
# (docs/ROBUSTNESS.md).
#
#   tools/ci.sh [--fast]
#
# --fast skips the Release build/tests (sanitized config only).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
FUZZ_TRIALS="${MCR_CI_FUZZ_TRIALS:-200}"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

run() { echo "+ $*" >&2; "$@"; }

# Traced + metered smoke solve against a freshly built tree: a
# multi-SCC circuit instance through 4 worker threads, trace and
# metrics exported and syntax-checked. $1 = build dir.
obs_smoke() {
  local bdir="$1"
  local tmp
  tmp="$(mktemp -d)"
  echo "=== obs smoke ($bdir) ==="
  run "$bdir/tools/mcr_gen" circuit --n 4000 --module 16 --seed 42 \
      --out "$tmp/smoke.dimacs"
  run "$bdir/tools/mcr_solve" "$tmp/smoke.dimacs" --threads 4 \
      --trace "$tmp/trace.json" --metrics --metrics-json "$tmp/metrics.json"
  run python3 -m json.tool "$tmp/trace.json" > /dev/null
  run python3 -m json.tool "$tmp/metrics.json" > /dev/null
  rm -rf "$tmp"
}

# Live-daemon observability smoke: mcr_serve with slow-ms 0 (pin every
# request trace) and full-detail sampling, driven by mcr_query. The
# solve's caller-chosen trace id must locate its trace via the TRACE
# verb, the fetched payload must be loadable JSON, and the structured
# request log must be one parseable JSON object per line. $1 = build dir.
svc_obs_smoke() {
  local bdir="$1"
  local tmp
  tmp="$(mktemp -d)"
  echo "=== svc observability smoke ($bdir) ==="
  local sock="$tmp/mcr.sock"
  run "$bdir/tools/mcr_gen" circuit --n 500 --module 16 --seed 7 \
      --out "$tmp/g.dimacs"
  "$bdir/tools/mcr_serve" --socket "$sock" --slow-ms 0 --trace-sample 1.0 \
      --log-json "$tmp/requests.jsonl" --flight-dump none &
  local server_pid=$!
  for _ in $(seq 1 100); do [[ -S "$sock" ]] && break; sleep 0.1; done
  run "$bdir/tools/mcr_query" --socket "$sock" solve "$tmp/g.dimacs" \
      --trace-id ci-smoke-trace > /dev/null
  run "$bdir/tools/mcr_query" --socket "$sock" trace --trace-id ci-smoke-trace \
      --out "$tmp/trace_fetch.json"
  run python3 -m json.tool "$tmp/trace_fetch.json" > /dev/null
  grep -q ci-smoke-trace "$tmp/trace_fetch.json"
  run "$bdir/tools/mcr_query" --socket "$sock" stats > /dev/null
  kill -TERM "$server_pid"
  wait "$server_pid"
  [[ -s "$tmp/requests.jsonl" ]]
  while IFS= read -r line; do
    printf '%s' "$line" | python3 -m json.tool > /dev/null
  done < "$tmp/requests.jsonl"
  grep -q '"verb":"SOLVE"' "$tmp/requests.jsonl"
  grep -q '"trace_id":"ci-smoke-trace"' "$tmp/requests.jsonl"
  rm -rf "$tmp"
}

# Live-daemon load smoke: mcr_serve with the windowed-telemetry pump
# enabled, hammered by a short closed-loop mcr_load run with a mixed
# verb workload and a nonzero cold fraction (so real solves execute,
# not just cache replays). Gates: mcr_load exits 0 (zero transport
# errors), the --output report is json.tool-valid, and the --stats-out
# JSONL time series is non-empty with every line parseable. $1 = build dir.
load_smoke() {
  local bdir="$1"
  local tmp
  tmp="$(mktemp -d)"
  echo "=== load smoke ($bdir) ==="
  local sock="$tmp/mcr.sock"
  "$bdir/tools/mcr_serve" --socket "$sock" --window 60 \
      --stats-interval 0.5 --stats-out "$tmp/stats.jsonl" &
  local server_pid=$!
  for _ in $(seq 1 100); do [[ -S "$sock" ]] && break; sleep 0.1; done
  run "$bdir/tools/mcr_load" --socket "$sock" --concurrency 4 --duration 3 \
      --mix solve=80,stats=10,ping=10 --cold-pct 20 --graph-n 256 \
      --output "$tmp/load_report.json"
  kill -TERM "$server_pid"
  wait "$server_pid"
  run python3 -m json.tool "$tmp/load_report.json" > /dev/null
  [[ -s "$tmp/stats.jsonl" ]]
  while IFS= read -r line; do
    printf '%s' "$line" | python3 -m json.tool > /dev/null
  done < "$tmp/stats.jsonl"
  grep -q '"window"' "$tmp/stats.jsonl"
  rm -rf "$tmp"
}

# Zero-copy store smoke: pack two generated datasets with mcr_pack,
# verify them (and prove a corrupted copy is rejected), then serve pack
# A via --dataset and hot-swap under load: mcr_load runs a mixed
# workload with a nonzero reload weight rotating between both packs,
# --strict gating on zero service errors as the swaps happen. A final
# deterministic RELOAD to pack B must answer with B's fingerprint, a
# post-swap SOLVE against that fingerprint must succeed, and STATS must
# report the advanced generation. $1 = build dir.
store_smoke() {
  local bdir="$1"
  local tmp
  tmp="$(mktemp -d)"
  echo "=== store smoke ($bdir) ==="
  local sock="$tmp/mcr.sock"
  local fp_a fp_b
  fp_a="$(run "$bdir/tools/mcr_pack" gen sprand --n 400 --m 1200 --seed 11 \
      --out "$tmp/a.mcrpack")"
  fp_b="$(run "$bdir/tools/mcr_pack" gen circuit --n 300 --module 16 --seed 22 \
      --out "$tmp/b.mcrpack")"
  run "$bdir/tools/mcr_pack" info "$tmp/a.mcrpack" > /dev/null
  run "$bdir/tools/mcr_pack" verify "$tmp/b.mcrpack" > /dev/null
  # One flipped payload byte must fail verification (typed checksum error).
  cp "$tmp/a.mcrpack" "$tmp/corrupt.mcrpack"
  printf '\xff' | dd of="$tmp/corrupt.mcrpack" bs=1 seek=1000 conv=notrunc status=none
  if "$bdir/tools/mcr_pack" verify "$tmp/corrupt.mcrpack" 2> "$tmp/verify_err"; then
    echo "FAIL: corrupted pack passed mcr_pack verify" >&2
    exit 1
  fi
  grep -q "checksum" "$tmp/verify_err"

  "$bdir/tools/mcr_serve" --socket "$sock" --dataset "$tmp/a.mcrpack" \
      --flight-dump none &
  local server_pid=$!
  for _ in $(seq 1 100); do [[ -S "$sock" ]] && break; sleep 0.1; done
  # Generation 1 solves with no LOAD: the dataset is resident at startup.
  run "$bdir/tools/mcr_query" --socket "$sock" solve "fp:$fp_a" > /dev/null
  # Hot-swap under load: reload rotates B,A while solves are in flight;
  # --strict fails the smoke on any service error during the swaps.
  run "$bdir/tools/mcr_load" --socket "$sock" --concurrency 4 --duration 2 \
      --mix solve=80,stats=10,reload=10 \
      --reload-paths "$tmp/b.mcrpack,$tmp/a.mcrpack" --strict --graph-n 128
  # Deterministic final swap to B: the response must carry B's
  # fingerprint, B must be solvable, and STATS must show the advanced
  # generation pointing at B.
  [[ "$(run "$bdir/tools/mcr_query" --socket "$sock" reload \
      --path "$tmp/b.mcrpack")" == "$fp_b" ]]
  run "$bdir/tools/mcr_query" --socket "$sock" solve "fp:$fp_b" > /dev/null
  run "$bdir/tools/mcr_query" --socket "$sock" stats --json \
      > "$tmp/stats.json"
  python3 - "$tmp/stats.json" "$fp_b" <<'PY'
import json, sys
stats = json.load(open(sys.argv[1]))
ds = stats["dataset"]
assert ds["fingerprint"] == sys.argv[2], ds
assert ds["generation"] >= 2, ds
PY
  kill -TERM "$server_pid"
  wait "$server_pid"
  rm -rf "$tmp"
}

# Fault-tolerant fleet smoke (docs/FLEET.md): three workers behind
# mcr_router, hammered by a --strict mcr_load run while one worker is
# SIGKILLed mid-run and later restarted. Gates: mcr_load exits 0 with
# ZERO client-visible errors (the router absorbed the loss via
# failover), the router's mcr_router_failovers_total counter is
# nonzero (failover actually happened — the kill wasn't a no-op), and
# after the worker restarts the active prober re-closes its breaker:
# mcr_router_backend_up{worker=...} returns to 1. $1 = build dir.
router_smoke() {
  local bdir="$1"
  local tmp
  tmp="$(mktemp -d)"
  echo "=== router smoke ($bdir) ==="
  local w1="$tmp/w1.sock" w2="$tmp/w2.sock" w3="$tmp/w3.sock"
  local rsock="$tmp/router.sock"
  "$bdir/tools/mcr_serve" --socket "$w1" --flight-dump none &
  local w1_pid=$!
  "$bdir/tools/mcr_serve" --socket "$w2" --flight-dump none &
  local w2_pid=$!
  "$bdir/tools/mcr_serve" --socket "$w3" --flight-dump none &
  local w3_pid=$!
  for s in "$w1" "$w2" "$w3"; do
    for _ in $(seq 1 100); do [[ -S "$s" ]] && break; sleep 0.1; done
  done
  "$bdir/tools/mcr_router" --socket "$rsock" \
      --worker "unix:$w1" --worker "unix:$w2" --worker "unix:$w3" \
      --replicas 2 --probe-interval-ms 100 &
  local router_pid=$!
  for _ in $(seq 1 100); do [[ -S "$rsock" ]] && break; sleep 0.1; done

  # Chaos alongside the load: SIGKILL w2 one second into the run (dirty
  # death — no drain, no goodbye), restart it a second later on the same
  # socket path. The prober must notice both transitions.
  ( sleep 1; kill -9 "$w2_pid"
    sleep 1
    "$bdir/tools/mcr_serve" --socket "$w2" --flight-dump none &
    echo $! > "$tmp/w2_revived.pid" ) &
  local chaos_pid=$!
  run "$bdir/tools/mcr_load" --target "unix:$rsock" --concurrency 4 \
      --duration 4 --mix solve=80,stats=10,ping=10 --cold-pct 20 \
      --graph-n 256 --strict --output "$tmp/load_report.json"
  wait "$chaos_pid"
  run python3 -m json.tool "$tmp/load_report.json" > /dev/null

  # Failover must actually have happened, and the revived worker must be
  # probed back to up=1 with a re-closed breaker (poll: the breaker's
  # jittered cooldown decides when the half-open trial runs).
  local up=""
  for _ in $(seq 1 100); do
    up="$("$bdir/tools/mcr_query" --socket "$rsock" stats --json | \
      python3 -c "
import json, sys
stats = json.load(sys.stdin)
counters = stats['metrics']['counters']
assert counters['mcr_router_failovers_total'] > 0, counters
print(stats['metrics']['gauges']['mcr_router_backend_up{worker=\"unix:$w2\"}'])
")"
    [[ "$up" == "1" ]] && break
    sleep 0.1
  done
  if [[ "$up" != "1" ]]; then
    echo "FAIL: revived worker never returned to up=1" >&2
    exit 1
  fi

  kill -TERM "$router_pid"
  wait "$router_pid"
  local w2r_pid
  w2r_pid="$(cat "$tmp/w2_revived.pid")"
  kill -TERM "$w1_pid" "$w3_pid" "$w2r_pid"
  wait "$w2_pid" 2>/dev/null || true  # reap the SIGKILLed original
  # Every worker drains and exits 0 — the revived w2 too, which is not a
  # child of this shell and so is polled — and no daemon leaves its
  # socket file behind.
  for pid in "$w1_pid" "$w3_pid"; do
    wait "$pid" || { echo "FAIL: worker $pid did not drain cleanly" >&2; exit 1; }
  done
  # Zombies count as exited: the orphan's reaper may be slow to collect.
  proc_alive() { [[ "$(awk '{print $3}' "/proc/$1/stat" 2>/dev/null)" =~ ^[^Z]$ ]]; }
  for _ in $(seq 1 100); do proc_alive "$w2r_pid" || break; sleep 0.1; done
  if proc_alive "$w2r_pid"; then
    echo "FAIL: revived worker $w2r_pid still running after SIGTERM" >&2
    exit 1
  fi
  for s in "$rsock" "$w1" "$w2" "$w3"; do
    if [[ -e "$s" ]]; then echo "FAIL: socket file $s left behind after drain" >&2; exit 1; fi
  done
  rm -rf "$tmp"
}

# Benchmark artifact + regression-gate smoke: a tiny grid run twice,
# both artifacts schema-validated, then gated. The strict gate is the
# deterministic self-diff; the cross-run diff only proves the gate can
# compare two independent artifacts without tripping on machine noise.
# $1 = build dir.
bench_smoke() {
  local bdir="$1"
  local tmp
  tmp="$(mktemp -d)"
  echo "=== bench smoke ($bdir) ==="
  run "$bdir/tools/mcr_bench" --name ci-a --workload sprand \
      --solvers howard,ko --max-n 128 --trials 3 --out "$tmp/BENCH_a.json"
  run "$bdir/tools/mcr_bench" --name ci-b --workload sprand \
      --solvers howard,ko --max-n 128 --trials 3 --out "$tmp/BENCH_b.json"
  run python3 -m json.tool "$tmp/BENCH_a.json" > /dev/null
  run python3 -m json.tool "$tmp/BENCH_b.json" > /dev/null
  run "$bdir/tools/mcr_bench_diff" "$tmp/BENCH_a.json" "$tmp/BENCH_a.json"
  run "$bdir/tools/mcr_bench_diff" "$tmp/BENCH_a.json" "$tmp/BENCH_b.json" \
      --threshold 200
  rm -rf "$tmp"
}

if [[ "$FAST" == 0 ]]; then
  echo "=== Release build + tests ==="
  run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  run cmake --build build -j "$JOBS"
  run ctest --test-dir build --output-on-failure -j "$JOBS"
  obs_smoke build
  svc_obs_smoke build
  load_smoke build
  store_smoke build
  router_smoke build
  bench_smoke build

  echo "=== bench baseline gate ==="
  # Gate against the committed baseline: rerun the exact recipe that
  # produced BENCH_baseline.json (single-sourced in bench_all.sh
  # --update-baseline) and diff. The threshold is deliberately generous
  # — the baseline was recorded on a different machine, so only gross
  # regressions (the CI-upper-bound guard plus this margin) fail; tune
  # with MCR_CI_BASELINE_THRESHOLD, regenerate with
  # tools/bench_all.sh --update-baseline (docs/BENCHMARKING.md).
  if [[ -f BENCH_baseline.json ]]; then
    baseline_tmp="$(mktemp -d)"
    run tools/bench_all.sh --update-baseline build "$baseline_tmp/BENCH_candidate.json"
    run build/tools/mcr_bench_diff BENCH_baseline.json \
        "$baseline_tmp/BENCH_candidate.json" \
        --threshold "${MCR_CI_BASELINE_THRESHOLD:-300}"
    rm -rf "$baseline_tmp"
  else
    echo "FAIL: no committed BENCH_baseline.json (regenerate with tools/bench_all.sh --update-baseline)" >&2
    exit 1
  fi

  echo "=== Release hook-absence check ==="
  # The zero-cost contract (docs/ROBUSTNESS.md): without
  # -DMCR_FAULT_INJECTION=ON, MCR_FAULT_POINT folds to a constant and no
  # injector symbol may exist in the archive or the served binaries.
  for artifact in build/src/libmcr.a build/tools/mcr_serve build/tools/mcr_query; do
    if nm -C "$artifact" 2>/dev/null | grep -q -e 'fault::Injector' -e 'fault::detail::decide_hook'; then
      echo "FAIL: fault-injection symbols present in Release $artifact" >&2
      exit 1
    fi
  done
  echo "no injector symbols in Release artifacts"
fi

echo "=== ASan+UBSan build + tests (fault hooks compiled in) ==="
run cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMCR_SANITIZE=ON \
    -DMCR_FAULT_INJECTION=ON
run cmake --build build-asan -j "$JOBS"
run ctest --test-dir build-asan --output-on-failure -j "$JOBS"
obs_smoke build-asan
svc_obs_smoke build-asan
load_smoke build-asan
store_smoke build-asan
router_smoke build-asan
bench_smoke build-asan

echo "=== store corruption-rejection tests (sanitized) ==="
# Explicitly re-run the pack rejection suite under ASan+UBSan: mmap
# bounds mistakes in the validator are exactly what the sanitizers
# catch, so this leg is the one that must exercise every typed
# rejection path.
run ctest --test-dir build-asan -R 'PackRejection' --output-on-failure

echo "=== chaos smoke (sanitized, seeded fault plans) ==="
# Eight seeds, each run twice: zero invariant violations and the same
# seed must reproduce the same injection trace bit-identically. Each
# seed's in-process server runs a tiny flight recorder (capacity 8,
# everything pinned, full sampling); the sweep itself asserts the
# retention bounds held.
run build-asan/tools/mcr_chaos --seeds 8 --repeat-check

echo "=== chaos crash-test (post-mortem flight dump) ==="
# With the fatal-signal handler installed the harness raises SIGABRT
# after its workload: the process must die abnormally AND leave a
# well-formed Chrome-JSON dump of the retained request traces.
crash_tmp="$(mktemp -d)"
if build-asan/tools/mcr_chaos --seeds 1 --solves 6 \
    --crash-test "$crash_tmp/flight_dump.json"; then
  echo "FAIL: --crash-test exited zero (expected death by SIGABRT)" >&2
  exit 1
fi
run python3 -m json.tool "$crash_tmp/flight_dump.json" > /dev/null
echo "post-mortem flight dump present and well-formed"
rm -rf "$crash_tmp"

echo "=== fuzz smoke (sanitized, ${FUZZ_TRIALS} trials per config) ==="
FUZZ=build-asan/tools/mcr_fuzz
run "$FUZZ" --trials "$FUZZ_TRIALS" --seed 1
run "$FUZZ" --trials "$FUZZ_TRIALS" --seed 2 --negative
run "$FUZZ" --trials "$FUZZ_TRIALS" --seed 3 --ratio
run "$FUZZ" --trials "$FUZZ_TRIALS" --seed 4 --ratio --negative --threads 8

echo "=== TSan build + concurrency tests ==="
# ASan and TSan cannot share a binary, so the thread-interleaving tests
# (work-stealing pool, parallel SCC driver, the svc server) get their own
# config. Only the concurrency-heavy suites run here: TSan slows
# execution ~10x and the sequential suites add no interleavings.
run cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMCR_SANITIZE_THREAD=ON \
    -DMCR_FAULT_INJECTION=ON
run cmake --build build-tsan -j "$JOBS" --target test_parallel_driver test_tiled_kernels \
    test_obs test_svc test_router test_listener test_fault mcr_chaos
run build-tsan/tests/test_parallel_driver
run build-tsan/tests/test_tiled_kernels
run build-tsan/tests/test_obs
run build-tsan/tests/test_svc
run build-tsan/tests/test_router
run build-tsan/tests/test_listener
run build-tsan/tests/test_fault
# Worker-death-heavy plan under TSan: retire/respawn vs. destructor is
# the raciest path in the pool's self-healing.
run build-tsan/tools/mcr_chaos --seeds 4 \
    --plan "worker_death=0.5,worker_stall=0.2,read_eintr=0.1,stall_ms=1,max_deaths=4,max_per_site=64"

echo "=== ci.sh: all green ==="
