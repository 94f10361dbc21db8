#!/usr/bin/env bash
# Builds the fleet benchmark from the checkout's sources and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temp
# store directories) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
