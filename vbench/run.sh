#!/bin/sh
# Builds the vbench harness from source inside the checkout and runs it
# from the repository root with the given flags:
#
#   bash vbench/run.sh --workload dense-direct --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/: the Go
# build cache, the binary, and the results, spans and profiles. The
# toolchain is never downloaded and no module is fetched.
set -eu
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off \
	GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/bin/vbench" .)
exec "$out/bin/vbench" "$@"
