#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash benchsuite/run.sh --workload sip --seed 1 --seconds 15 --trace 0
#
# Every build artefact, cache and socket stays under .bench_build/.
set -euo pipefail
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$out/config"
(cd "$root/benchsuite" && go build -o "$out/benchsuite" .)
exec "$out/benchsuite" "$@"
