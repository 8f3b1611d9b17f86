#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments. Everything it writes (Go build cache, binary, WALs,
# digest books, traces) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" -state "$out/e2ebench-state" "$@"
