#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash _gridbench/run.sh --workload realloc-storm --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The benchmark is a Go module of its own
# (the leading "_" keeps it out of the root module's ./... and out of
# gridlint); everything the build writes (binary, Go build cache, module
# cache, spans) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off
go -C "$root/_gridbench" build -o "$out/gridbench" .
exec "$out/gridbench" -out "$out" "$@"
