#!/usr/bin/env bash
# Builds perfbench from source inside the current checkout, then runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig4_mix_saturated --seed 1 --seconds 15 --trace 0
#
# The Go build cache and the binary live under .bench_build/ in the
# checkout, so nothing is written outside it.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
