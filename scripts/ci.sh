#!/usr/bin/env sh
# Tier-1 gate: vet, build, and test (with the race detector) the whole
# module. Every PR must pass this before merge; see docs/testing.md.
set -eu

cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Replay-based tests (fault sweep, fleet quarantine) dump the journal of
# any failing run here; upload_journals preserves them outside the
# cleaned-up tmpdir so a red CI run ships its own repros
# (docs/replay.md).
export OCOLOS_TEST_ARTIFACTS="${OCOLOS_TEST_ARTIFACTS:-$tmpdir/artifacts}"
mkdir -p "$OCOLOS_TEST_ARTIFACTS"
upload_journals() {
    if ls "$OCOLOS_TEST_ARTIFACTS"/*.jsonl >/dev/null 2>&1; then
        keep=$(mktemp -d "${TMPDIR:-/tmp}/ocolos-repro.XXXXXX")
        cp "$OCOLOS_TEST_ARTIFACTS"/*.jsonl "$keep/"
        echo "repro journals preserved in $keep:"
        ls "$keep"
    fi
}

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# The fleet manager and telemetry registry are the concurrency-heavy
# packages: run them twice more under the race detector to shake out
# scheduling-dependent interleavings (-short skips the full-scale
# single-service runs already covered above).
echo "== go test -race -count=2 -short ./internal/fleet ./internal/telemetry"
go test -race -count=2 -short ./internal/fleet ./internal/telemetry

# Transactional-replacement gates (see docs/robustness.md): the sampled
# fault sweep proves every injected tracee fault rolls back
# bit-identically to the baseline (-short samples indices; the full
# sweep already ran in the ./... pass), and the quarantine tests drive
# tracee-level replace faults through a concurrent fleet wave under the
# race detector — no service may end Failed-wedged.
echo "== go test -short -run TestFaultSweep ./internal/diffcheck"
go test -short -run TestFaultSweep ./internal/diffcheck || { upload_journals; exit 1; }
echo "== go test -race -run 'TestTraceeFault|TestSecondRoundQuarantine|TestMidWaveFaultIsolation' ./internal/fleet"
go test -race -run 'TestTraceeFault|TestSecondRoundQuarantine|TestMidWaveFaultIsolation' ./internal/fleet || { upload_journals; exit 1; }

# On-stack-replacement gates (see docs/robustness.md): the loop-parked
# loopsim scenario must map frames between layouts, every injected fault
# across its exhaustive sweep must roll back the OSR rewrites
# bit-identically, and the NoOSR ablation must still converge to the
# same baseline. A red run preserves its repro journals like the sweep
# above.
echo "== go test -race -run 'TestOSRFaultSweep|TestOSRAblationStillEquivalent' ./internal/diffcheck"
go test -race -run 'TestOSRFaultSweep|TestOSRAblationStillEquivalent' ./internal/diffcheck || { upload_journals; exit 1; }

# Replace-cost smoke: the small-scale OSR ablation benchmark must run
# and report its OSR outcomes, so scripts/bench.sh works when needed.
echo "== replace bench smoke: loopsim OSR ablation, small scale"
REPLACE_BENCH_OUT="$tmpdir/BENCH_replace_smoke.json" REPLACE_BENCH_SCALE=small \
    go test -run TestReplaceBench -count 1 ./internal/diffcheck || { upload_journals; exit 1; }
grep -q '"osr_frames_mapped"' "$tmpdir/BENCH_replace_smoke.json" ||
    { cat "$tmpdir/BENCH_replace_smoke.json"; echo "replace smoke wrote no OSR stats"; exit 1; }

# Sharded-wave + layout-cache gates (see docs/fleet.md): the
# single-flight cache and the sharded dispatcher are the fleet's two
# concurrency hot spots, so both run explicitly under the race
# detector. The 32-replica homogeneous smoke must serve >90% of its
# lookups from the cache — the "optimize once, deploy everywhere"
# contract — and the test itself fails below that bar.
echo "== go test -race -run 'TestSingleFlight' ./internal/layout"
go test -race -run 'TestSingleFlight' ./internal/layout
echo "== sharded-wave cache smoke: 32 homogeneous replicas, -race"
FLEET_BENCH_OUT="$tmpdir/BENCH_fleet_smoke.json" FLEET_BENCH_SERVICES=32 \
    FLEET_BENCH_WORKLOADS=1 FLEET_BENCH_WORKERS=4 FLEET_BENCH_SHARDS=4 \
    go test -race -run TestFleetWaveBench -count 1 ./internal/fleet || { upload_journals; exit 1; }
grep -q '"cache_hit_rate"' "$tmpdir/BENCH_fleet_smoke.json" ||
    { cat "$tmpdir/BENCH_fleet_smoke.json"; echo "fleet smoke wrote no cache stats"; exit 1; }

# Record/replay smoke (see docs/replay.md): a two-round kvcache session
# is recorded, then re-executed from the journal alone — every
# state-hash checkpoint must verify and the re-recorded journal must be
# byte-identical.
echo "== record/replay smoke"
go build -o "$tmpdir/ocolos-run" ./cmd/ocolos-run
"$tmpdir/ocolos-run" -workload kvcache -input set10_get90 -rounds 2 \
    -record "$tmpdir/session.jsonl" >/dev/null
"$tmpdir/ocolos-run" -replay "$tmpdir/session.jsonl" >"$tmpdir/replay.log" 2>&1 ||
    { cat "$tmpdir/replay.log"; echo "record/replay smoke failed"; exit 1; }
grep -q 'replay OK' "$tmpdir/replay.log" ||
    { cat "$tmpdir/replay.log"; echo "replay did not verify"; exit 1; }
echo "record/replay smoke OK ($(wc -l < "$tmpdir/session.jsonl") events)"

# The trace executor — block-traces and the promoted superblocks
# spliced from them — must stay cycle-exact with the Step reference
# interpreter, at the default quantum and at budgets cycling 1..13, and
# each run must actually form and execute promoted traces (see
# docs/perf.md): run the golden equivalence gate explicitly so an engine
# regression names itself in the CI log.
echo "== go test -run TestCycleExactEngineEquivalence ./internal/diffcheck"
go test -run TestCycleExactEngineEquivalence ./internal/diffcheck

# Bench smoke: one iteration of the throughput benchmark, to catch a
# broken benchmark harness before scripts/bench.sh is needed for real.
echo "== go test -bench BenchmarkStep -benchtime 1x"
go test -run '^$' -bench BenchmarkStep -benchtime 1x .

# Engine perf gate: the trace executor must run at least twice as fast
# as the per-instruction Step reference it is pinned to. Best of 2
# one-second runs per arm; the engine measures 3-4x Step on a shared
# 2-core box, so run-to-run noise (±20%) cannot flake the gate while a
# real regression — traces falling back to per-op paths everywhere —
# still fails it.
echo "== engine vs Step bench smoke"
smoke=$(go test -run '^$' -bench 'BenchmarkStep/(engine|step)' -benchtime 1s -count 2 .)
echo "$smoke"
echo "$smoke" | awk '
    /^BenchmarkStep\/engine/ {if ($(NF-1)+0 > e) e = $(NF-1)+0}
    /^BenchmarkStep\/step/ {if ($(NF-1)+0 > s) s = $(NF-1)+0}
    END {
        if (e == 0 || s == 0) { print "bench smoke: missing arm output"; exit 1 }
        printf "engine %.0f inst/s vs Step %.0f inst/s (%.2fx)\n", e, s, e / s
        if (e < 2 * s) { print "trace executor less than 2x the Step reference"; exit 1 }
    }'

# Control-plane smoke (see docs/observability.md): boot the real fleetd
# with an ephemeral-port HTTP control plane and a minimal wave, scrape
# /healthz and /metrics while it runs, then shut it down with SIGTERM
# and require a clean exit.
echo "== fleetd -serve smoke"
go build -o "$tmpdir/fleetd" ./cmd/fleetd
"$tmpdir/fleetd" -serve 127.0.0.1:0 -replicas 1 -rounds 1 >"$tmpdir/log" 2>&1 &
fleetd_pid=$!
addr=
for _ in $(seq 1 100); do
    addr=$(sed -n 's,.*serving control plane on http://,,p' "$tmpdir/log")
    [ -n "$addr" ] && break
    kill -0 "$fleetd_pid" 2>/dev/null || { cat "$tmpdir/log"; echo "fleetd exited before serving"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { cat "$tmpdir/log"; echo "fleetd never printed its address"; exit 1; }
curl -sf "http://$addr/healthz" | grep -q '^ok$' || { echo "/healthz failed"; exit 1; }
curl -sf "http://$addr/metrics" >"$tmpdir/metrics" || { echo "/metrics failed"; exit 1; }
grep -q '^fleet_services ' "$tmpdir/metrics" || { cat "$tmpdir/metrics"; echo "fleet_services missing from /metrics"; exit 1; }
curl -sf "http://$addr/services" >/dev/null || { echo "/services failed"; exit 1; }
curl -sf "http://$addr/cache" | grep -q '"enabled": true' || { echo "/cache failed"; exit 1; }
kill -TERM "$fleetd_pid"
wait "$fleetd_pid" || { cat "$tmpdir/log"; echo "fleetd did not exit cleanly"; exit 1; }
echo "control plane smoke OK ($addr)"

# Drift smoke (see docs/profiling.md): boot fleetd with streaming
# profiles and the drift watch on, run the initial wave, then push an
# external LBR batch through POST /profile whose hot set diverges from
# the layout's build profile. The watch must score the divergence, fire
# a re-optimization round, and surface it as a reopt count on
# /services — the whole streamed-ingest → drift → re-opt path, over the
# real HTTP control plane.
echo "== fleetd drift smoke"
"$tmpdir/fleetd" -serve 127.0.0.1:0 -drift -drift-every 100ms -replicas 1 -rounds 1 \
    >"$tmpdir/driftlog" 2>&1 &
drift_pid=$!
for _ in $(seq 1 300); do
    grep -q 'drift watch scanning' "$tmpdir/driftlog" && break
    kill -0 "$drift_pid" 2>/dev/null || { cat "$tmpdir/driftlog"; echo "fleetd exited before the drift watch"; exit 1; }
    sleep 0.1
done
grep -q 'drift watch scanning' "$tmpdir/driftlog" ||
    { cat "$tmpdir/driftlog"; echo "drift watch never started"; exit 1; }
addr=$(sed -n 's,.*serving control plane on http://,,p' "$tmpdir/driftlog")

# The live store tells us a genuinely hot edge of the service's current
# layout and the stream clock; concentrating the pushed profile on that
# one edge moves most of the profile mass (high total-variation score)
# while keeping every address resolvable by perf2bolt.
svc_path='sqldb/read_only%230' # sqldb/read_only#0, URL-encoded
doc=$(curl -sf "http://$addr/profile?service=$svc_path&top=5") ||
    { cat "$tmpdir/driftlog"; echo "GET /profile failed"; exit 1; }
from=$(echo "$doc" | sed -n 's/.*"from": \([0-9][0-9]*\).*/\1/p' | head -1)
to=$(echo "$doc" | sed -n 's/.*"to": \([0-9][0-9]*\).*/\1/p' | head -1)
now=$(echo "$doc" | sed -n 's/.*"now": \([0-9.e+-]*\),*/\1/p' | head -1)
[ -n "$from" ] && [ -n "$to" ] && [ -n "$now" ] ||
    { echo "$doc"; echo "could not parse /profile status"; exit 1; }
body=$(awk -v f="$from" -v t="$to" -v n="$now" 'BEGIN {
    printf "{\"service\": \"sqldb/read_only#0\", \"samples\": [{\"at\": %.6f, \"records\": [", n + 0.0025
    for (i = 0; i < 64; i++) printf "%s{\"from\": %s, \"to\": %s}", (i ? "," : ""), f, t
    printf "]}]}"
}')
curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "http://$addr/profile" >/dev/null ||
    { cat "$tmpdir/driftlog"; echo "POST /profile failed"; exit 1; }

reopted=
for _ in $(seq 1 300); do
    if curl -sf "http://$addr/services" | grep -q '"reopts": [1-9]'; then
        reopted=1
        break
    fi
    kill -0 "$drift_pid" 2>/dev/null || { cat "$tmpdir/driftlog"; echo "fleetd died mid-drift-watch"; exit 1; }
    sleep 0.1
done
[ -n "$reopted" ] ||
    { cat "$tmpdir/driftlog"; curl -sf "http://$addr/services"; echo "drift push never produced a re-opt round"; exit 1; }
kill -TERM "$drift_pid"
wait "$drift_pid" || { cat "$tmpdir/driftlog"; echo "fleetd did not exit cleanly after the drift watch"; exit 1; }
echo "drift smoke OK"

echo "CI OK"
