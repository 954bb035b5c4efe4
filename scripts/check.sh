#!/bin/sh
# Full repository check: build, vet, a gofmt check, race-enabled tests (including the
# transport chaos test, the sharded-server differential conformance
# property, and the kill-and-recover WAL/snapshot conformance gate), the
# coverage gate against the seed baseline, a race-enabled benchmark smoke,
# a coverage-guided fuzz smoke over every fuzz target, then the
# observability / VM / transport / analysis-server benchmarks.
# Benchmark results are written to BENCH_obs.json, BENCH_vm.json,
# BENCH_transport.json, BENCH_server.json, BENCH_lineage.json,
# BENCH_load.json, and BENCH_read.json so successive PRs can diff overhead,
# interpreter-speed, record-path, ingest-throughput, lineage-overhead,
# durable-ingest, and read-path numbers. BENCH_net.json prices the process
# boundary: the same streaming workload in-process vs over loopback-TCP
# vSS1 sessions. Four suites also gate: ingest at 4096 ranks with lineage
# on (1/256 sampling) must stay within LINEAGE_MAX_PCT (default 5) percent
# of lineage off, the group-commit WAL must ingest at least
# LOAD_MIN_SPEEDUP (default 2) times the per-op encoder's records/s at
# 4096 ranks, ingest under a 10k-poller ETag-revalidating dashboard storm
# must stay within READ_MAX_TAX (default 10) percent of the poller-free
# number at 4096 ranks, and multi-tenant TCP ingest (8 tenants) must stay
# within NET_MAX_SLOWDOWN (default 2) times the in-process single-tenant
# records/s at 4096 ranks.
#
# FUZZTIME (default 10s) is the budget per fuzz target.
#
# Usage: scripts/check.sh [obs-output.json] [vm-output.json] [transport-output.json] [server-output.json] [lineage-output.json] [load-output.json] [read-output.json] [net-output.json]
set -eu

cd "$(dirname "$0")/.."
obs_out="${1:-BENCH_obs.json}"
vm_out="${2:-BENCH_vm.json}"
transport_out="${3:-BENCH_transport.json}"
server_out="${4:-BENCH_server.json}"
lineage_out="${5:-BENCH_lineage.json}"
load_out="${6:-BENCH_load.json}"
read_out="${7:-BENCH_read.json}"
net_out="${8:-BENCH_net.json}"
fuzztime="${FUZZTIME:-10s}"
lineage_max_pct="${LINEAGE_MAX_PCT:-5}"
load_min_speedup="${LOAD_MIN_SPEEDUP:-2}"
read_max_tax="${READ_MAX_TAX:-10}"
net_max_slowdown="${NET_MAX_SLOWDOWN:-2}"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt would reformat:"
    echo "$unformatted"
    exit 1
fi

echo "== go test -race ./..."
go test -race ./...

echo "== race-enabled transport chaos (drop+dup+reorder+corrupt+crash, exactly-once)"
go test -race -run 'TestChaosExactlyOnce$' -count 1 ./internal/transport

echo "== race-enabled differential conformance (sharded engine vs batch recompute)"
go test -race -run 'TestDifferentialConformance$|TestRecordsSnapshotUnderIngest$' -count 1 ./internal/server

echo "== race-enabled read-snapshot conformance (cached renders vs fresh recompute, torn-read hunt)"
go test -race -run 'TestReadSnapshotConformance$' -count 1 ./internal/server

echo "== race-enabled kill-and-recover conformance (WAL+snapshot recovery vs never-crashed server)"
go test -race -run 'TestKillRecoverConformance$' -count 1 ./internal/server

echo "== race-enabled socket chaos + kill-recover + multi-tenant conformance (real loopback TCP)"
go test -race -run 'TestSocketChaosExactlyOnce$|TestSocketKillRecoverConformance$|TestMultiTenantDifferentialConformance$' \
    -count 1 ./internal/netsrv

echo "== race-enabled wire-level chaos proxy (resets/partitions/stalls/bit-flips vs self-healing client)"
go test -race -run 'TestProxyChaosExactlyOnce$|TestProxyKillRecoverConformance$' \
    -count 1 ./internal/netsrv

echo "== coverage gate (per-package deltas vs seed baseline)"
sh scripts/cover.sh

echo "== race-enabled benchmark smoke"
go test -race -run '^$' -bench 'BenchmarkInterpHotLoop$' -benchtime 1x ./internal/vm

echo "== fuzz smoke ($fuzztime per target)"
go test -run '^$' -fuzz 'FuzzBatchRoundTrip$' -fuzztime "$fuzztime" ./internal/server
go test -run '^$' -fuzz 'FuzzCheckBatch$' -fuzztime "$fuzztime" ./internal/server
go test -run '^$' -fuzz 'FuzzWALReplay$' -fuzztime "$fuzztime" ./internal/server
go test -run '^$' -fuzz 'FuzzParse$' -fuzztime "$fuzztime" ./internal/minic
go test -run '^$' -fuzz 'FuzzLex$' -fuzztime "$fuzztime" ./internal/minic
go test -run '^$' -fuzz 'FuzzETagCursor$' -fuzztime "$fuzztime" ./internal/obs
go test -run '^$' -fuzz 'FuzzSession$' -fuzztime "$fuzztime" ./internal/netsrv

# bench_json PATTERN PKG OUT (shared with scripts/bench_load.sh) runs the
# benchmarks and renders each result line as a JSON entry.
. scripts/bench_json.sh

echo "== obs hot-path benchmarks"
bench_json 'BenchmarkCounterInc$|BenchmarkHistogramObserve$|BenchmarkSpanStartEnd$' \
    ./internal/obs "$obs_out"

echo "== vm execution-engine benchmarks"
bench_json 'BenchmarkVarAccess$|BenchmarkInterpHotLoop$|BenchmarkRankRunToy$' \
    ./internal/vm "$vm_out"

echo "== record-transport benchmarks"
bench_json 'BenchmarkFrameRoundTrip$|BenchmarkConnFlush$|BenchmarkConnFlushFaulty$' \
    ./internal/transport "$transport_out"

echo "== analysis-server ingest benchmarks (sharded engine vs single-lock baseline)"
bench_json 'BenchmarkIngestParallel$|BenchmarkIngestSingleLock$' \
    ./internal/server "$server_out"

echo "== lineage-overhead benchmarks (ingest with record tracing off vs on)"
bench_json 'BenchmarkIngestLineage$' ./internal/server "$lineage_out"

echo "== lineage ingest-overhead gate (on vs off at 4096 ranks, best of 3, max ${lineage_max_pct}%)"
# One 2s sample per side swings +-20% on a shared host, dwarfing the 5%
# budget, so the gate re-runs the gated pair with -count 3 and compares
# the per-side minima (the standard noise-robust benchmark estimator).
# BENCH_lineage.json keeps the single-run numbers for PR-over-PR diffing.
go test -run '^$' -bench 'BenchmarkIngestLineage/.*/ranks=4096' \
    -benchtime 2s -count 3 ./internal/server |
awk -v max="$lineage_max_pct" '
/^BenchmarkIngestLineage\/lineage=off\/ranks=4096/ {
    if (off == 0 || $3 + 0 < off) off = $3 + 0
}
/^BenchmarkIngestLineage\/lineage=on\/ranks=4096/ {
    if (on == 0 || $3 + 0 < on) on = $3 + 0
}
END {
    if (off <= 0 || on <= 0) {
        print "lineage gate: missing ranks=4096 results"; exit 1
    }
    pct = (on - off) * 100 / off
    printf "lineage overhead at 4096 ranks: off %.0f ns/op, on %.0f ns/op (%+.2f%%)\n", off, on, pct
    if (pct > max) {
        printf "FAIL: lineage overhead %.2f%% exceeds %s%% budget\n", pct, max
        exit 1
    }
}'

sh scripts/bench_load.sh "$load_out"

echo "== group-commit speedup gate (group vs per-op records/s at 4096 ranks, min ${load_min_speedup}x)"
awk -v min="$load_min_speedup" '
/"BenchmarkLoadDurable\/variant=per-op\/ranks=4096"/ {
    if (match($0, /"records_per_s": [0-9.e+]+/))
        perop = substr($0, RSTART + 17, RLENGTH - 17) + 0
}
/"BenchmarkLoadDurable\/variant=group\/ranks=4096"/ {
    if (match($0, /"records_per_s": [0-9.e+]+/))
        group = substr($0, RSTART + 17, RLENGTH - 17) + 0
}
END {
    if (perop <= 0 || group <= 0) {
        print "load gate: missing ranks=4096 results"; exit 1
    }
    speedup = group / perop
    printf "durable ingest at 4096 ranks: per-op %.0f records/s, group %.0f records/s (%.2fx)\n", perop, group, speedup
    if (speedup < min) {
        printf "FAIL: group-commit speedup %.2fx below %sx floor\n", speedup, min
        exit 1
    }
}' "$load_out"

echo "== read-path storm benchmarks (dashboard pollers vs ingest, ETag on/off)"
bench_json 'BenchmarkReadStorm$' ./internal/server "$read_out"

echo "== poller-storm ingest gate (10k etag pollers vs poller-free at 4096 ranks, best of 3, max ${read_max_tax}% tax)"
# go's -bench matcher splits the pattern on "/", so the two gated combos
# cannot share one alternation. The rounds are interleaved A/B rather
# than 3×A then 3×B: a multi-minute slow window on a shared host
# (hypervisor steal, thermal) would land entirely on one side of a
# back-to-back layout and fake a tax several times the budget, while
# interleaving spreads it over both sides. The awk compares the
# per-side minima, mirroring the lineage gate's estimator.
{
    for _ in 1 2 3; do
        go test -run '^$' -bench 'BenchmarkReadStorm/ranks=4096/pollers=0/' \
            -benchtime 2s ./internal/server
        go test -run '^$' -bench 'BenchmarkReadStorm/ranks=4096/pollers=10000/etag=on' \
            -benchtime 2s ./internal/server
    done
} |
awk -v max="$read_max_tax" '
/^BenchmarkReadStorm\/ranks=4096\/pollers=0\/etag=off/ {
    if (free == 0 || $3 + 0 < free) free = $3 + 0
}
/^BenchmarkReadStorm\/ranks=4096\/pollers=10000\/etag=on/ {
    if (storm == 0 || $3 + 0 < storm) storm = $3 + 0
}
END {
    if (free <= 0 || storm <= 0) {
        print "read gate: missing ranks=4096 results"; exit 1
    }
    pct = (storm - free) * 100 / free
    printf "ingest at 4096 ranks: poller-free %.0f ns/op, 10k etag pollers %.0f ns/op (%+.2f%% tax)\n", free, storm, pct
    if (pct > max) {
        printf "FAIL: poller-storm ingest tax %.2f%% exceeds %s%% budget\n", pct, max
        exit 1
    }
}'

echo "== network-ingest benchmarks (in-process vs loopback-TCP sessions)"
bench_json 'BenchmarkNetIngest$' ./internal/netsrv "$net_out"

echo "== TCP-overhead gate (8-tenant TCP vs in-process single-tenant records/s at 4096 ranks, best of 3, max ${net_max_slowdown}x)"
# Same interleaved-rounds / per-side-extremum estimator as the read gate,
# except records/s is a higher-is-better metric, so each side keeps its
# maximum. The gated pair is the service satellite's promise: one listener
# hosting 8 concurrent runs must ingest within NET_MAX_SLOWDOWN of what a
# single in-process server manages, or the session layer (envelope parsing,
# ack pipelining, worker handoff) has become the bottleneck.
{
    for _ in 1 2 3; do
        go test -run '^$' -bench 'BenchmarkNetIngest/mode=inproc/tenants=1/ranks=4096' \
            -benchtime 2s ./internal/netsrv
        go test -run '^$' -bench 'BenchmarkNetIngest/mode=tcp/tenants=8/ranks=4096' \
            -benchtime 2s ./internal/netsrv
    done
} |
awk -v max="$net_max_slowdown" '
/^BenchmarkNetIngest\/mode=inproc\/tenants=1\/ranks=4096/ {
    if ($5 + 0 > inproc) inproc = $5 + 0
}
/^BenchmarkNetIngest\/mode=tcp\/tenants=8\/ranks=4096/ {
    if ($5 + 0 > tcp) tcp = $5 + 0
}
END {
    if (inproc <= 0 || tcp <= 0) {
        print "net gate: missing ranks=4096 results"; exit 1
    }
    slowdown = inproc / tcp
    printf "ingest at 4096 ranks: in-process 1-tenant %.0f records/s, TCP 8-tenant %.0f records/s (%.2fx slowdown)\n", inproc, tcp, slowdown
    if (slowdown > max) {
        printf "FAIL: TCP slowdown %.2fx exceeds %sx budget\n", slowdown, max
        exit 1
    }
}'
