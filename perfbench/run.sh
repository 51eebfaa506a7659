#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root, with
# every Go cache, temporary build file, binary and span file kept under
# .bench_build:
#
#   bash perfbench/run.sh --workload stencil-sim --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --commit "$commit" "$@"
