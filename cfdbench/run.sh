#!/usr/bin/env bash
# Builds the cfdbench harness from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cfdbench/run.sh --workload stream-repair --seed 1 --seconds 10 --trace 0
#
# Every byproduct (Go build cache, binary, data directories, traces)
# lands under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/cfdbench" -o "$out/cfdbench" .
exec "$out/cfdbench" -dir "$out/cfdbench-work" "$@"
