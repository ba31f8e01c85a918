#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed through. Run from the root of the repository:
#
#   bash hipacbench/run.sh --workload saa-feed --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, data files and span files all go
# under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry
# files in the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
(cd hipacbench && go build -buildvcs=false -o "$out/hipacbench" .)
exec "$out/hipacbench" --out "$out" "$@"
