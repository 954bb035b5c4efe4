GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet cover fuzz chaos chaos-recover chaos-net chaos-proxy bench-obs bench-vm bench-transport bench-server bench-lineage bench-load bench-read bench-net check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Coverage gate: full suite with -coverprofile, per-package delta table
# against scripts/coverage_baseline.txt, hard failure if the total drops
# below the seed baseline. Writes cover.out for `go tool cover -html`.
cover:
	sh scripts/cover.sh

# Coverage-guided fuzz smoke over every fuzz target (wire codec, server
# ingest, WAL replay, mini-C parser and lexer, HTTP conditional-read
# protocol, network session handshake), FUZZTIME each. `go test -fuzz`
# takes one target per invocation, so they run sequentially.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzBatchRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzCheckBatch$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/minic
	$(GO) test -run '^$$' -fuzz 'FuzzLex$$' -fuzztime $(FUZZTIME) ./internal/minic
	$(GO) test -run '^$$' -fuzz 'FuzzETagCursor$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz 'FuzzSession$$' -fuzztime $(FUZZTIME) ./internal/netsrv

# The transport chaos test (drops+dups+reorder+corruption+crash-restart,
# concurrent ranks) under the race detector.
chaos:
	$(GO) test -race -run 'TestChaosExactlyOnce$$' -count 1 ./internal/transport

# The kill-and-recover chaos gate under the race detector: 120 seeded
# trials of crash + disk faults (torn writes, lying fsyncs, bit rot) +
# WAL/snapshot recovery + resumed ingest, each proven exactly equal to a
# never-crashed server while a poller races the crash.
chaos-recover:
	$(GO) test -race -run 'TestKillRecoverConformance$$' -count 1 ./internal/server

# The socket suites under the race detector: the transport chaos and
# kill-recover conformance properties re-run through vSS1 sessions over
# real loopback TCP, plus the multi-tenant differential property (N runs
# on one listener bit-identical to N isolated servers).
chaos-net:
	$(GO) test -race -run 'TestSocketChaosExactlyOnce$$|TestSocketKillRecoverConformance$$|TestMultiTenantDifferentialConformance$$' \
	    -count 1 ./internal/netsrv

# The wire-level chaos suites under the race detector: a seeded TCP
# chaos proxy (resets, partitions, stalls, bit flips, split/coalesced
# writes, half-open closes) between a self-healing client and the
# service, with tenant crash-recovery and disk faults layered on top —
# final state proven exactly equal to an undisturbed reference.
chaos-proxy:
	$(GO) test -race -run 'TestProxyChaosExactlyOnce$$|TestProxyKillRecoverConformance$$' \
	    -count 1 ./internal/netsrv

# Observability hot-path benchmarks; writes BENCH_obs.json for regression
# tracking across PRs.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkCounterInc$$|BenchmarkHistogramObserve$$|BenchmarkSpanStartEnd$$' \
	    -benchmem -benchtime 2s ./internal/obs

# VM execution-engine benchmarks (variable access, interpreter hot loop,
# instrumented 4-rank toy program); scripts/check.sh writes the same set
# to BENCH_vm.json for regression tracking across PRs.
bench-vm:
	$(GO) test -run '^$$' -bench 'BenchmarkVarAccess$$|BenchmarkInterpHotLoop$$|BenchmarkRankRunToy$$' \
	    -benchmem -benchtime 2s ./internal/vm

# Record-transport benchmarks (frame codec, fault-free and faulty flush
# paths); scripts/check.sh writes the same set to BENCH_transport.json.
bench-transport:
	$(GO) test -run '^$$' -bench 'BenchmarkFrameRoundTrip$$|BenchmarkConnFlush$$|BenchmarkConnFlushFaulty$$' \
	    -benchmem -benchtime 2s ./internal/transport

# Analysis-server ingest benchmarks: the sharded incremental engine against
# the embedded single-lock baseline at 64/512/4096 ranks; scripts/check.sh
# writes the same set to BENCH_server.json.
bench-server:
	$(GO) test -run '^$$' -bench 'BenchmarkIngestParallel$$|BenchmarkIngestSingleLock$$' \
	    -benchmem -benchtime 2s ./internal/server

# Lineage-overhead benchmarks: streaming ingest with record-lineage tracing
# off vs on (1/256 sampling) at 64 and 4096 ranks; scripts/check.sh writes
# the same set to BENCH_lineage.json and gates the 4096-rank overhead at 5%.
bench-lineage:
	$(GO) test -run '^$$' -bench 'BenchmarkIngestLineage$$' \
	    -benchmem -benchtime 2s ./internal/server

# Durable-ingest load harness: the identical workload driven through the
# per-op, group-commit, and coalesced WAL encoders at 64/512/4096 ranks
# with a modeled device fsync latency. Writes BENCH_load.json;
# scripts/check.sh runs the same suite and gates group-commit's 4096-rank
# speedup over per-op.
bench-load:
	sh scripts/bench_load.sh

# Read-path storm benchmarks: streaming ingest at 64/512/4096 ranks while
# 0/100/10k dashboard pollers hit /outliers, with and without ETag
# revalidation; scripts/check.sh writes the same suite to BENCH_read.json
# and gates the 10k-poller ingest tax at READ_MAX_TAX (default 10) percent.
bench-read:
	$(GO) test -run '^$$' -bench 'BenchmarkReadStorm$$' \
	    -benchmem -benchtime 2s ./internal/server

# Network-ingest benchmarks: the identical streaming workload delivered
# in-process vs over loopback-TCP vSS1 sessions at 64/512/4096 ranks and
# 1/8/64 tenants; scripts/check.sh writes the same grid to BENCH_net.json
# and gates the 8-tenant TCP number at 4096 ranks within NET_MAX_SLOWDOWN
# (default 2) of the in-process single-tenant one.
bench-net:
	$(GO) test -run '^$$' -bench 'BenchmarkNetIngest$$' \
	    -benchmem -benchtime 2s ./internal/netsrv

# The full gate: build + vet + race tests + race chaos + race conformance +
# coverage gate + fuzz smoke + bench suites (writes BENCH_obs.json,
# BENCH_vm.json, BENCH_transport.json, BENCH_server.json,
# BENCH_lineage.json, BENCH_load.json, BENCH_read.json, BENCH_net.json)
# with the lineage ingest-overhead gate, the group-commit speedup gate,
# the poller-storm read-tax gate, and the TCP-overhead gate.
check:
	scripts/check.sh

clean:
	rm -f BENCH_obs.json BENCH_vm.json BENCH_transport.json BENCH_server.json BENCH_lineage.json BENCH_load.json BENCH_read.json BENCH_net.json cover.out vsensor.test
