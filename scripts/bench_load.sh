#!/bin/sh
# Durable-ingest load benchmarks: the identical pre-encoded workload driven
# through the WAL with a commit per outcome (per-op), with group commit, and
# with coalescing at
# 64/512/4096 ranks with a modeled device fsync latency. Writes the results
# to BENCH_load.json (or $1) via the unit-aware bench_json renderer, so
# records/s, wal_B/s, syncs/s, and p95_ns survive as JSON columns.
# scripts/check.sh runs the same suite and additionally gates the 4096-rank
# group-commit speedup.
#
# Usage: scripts/bench_load.sh [load-output.json]
set -eu

cd "$(dirname "$0")/.."
load_out="${1:-BENCH_load.json}"

. scripts/bench_json.sh

echo "== durable-ingest load benchmarks (per-op vs group-commit vs coalesced WAL)"
bench_json 'BenchmarkLoadDurable$' ./internal/load "$load_out"
