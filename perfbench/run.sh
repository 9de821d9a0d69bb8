#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
#
#   bash perfbench/run.sh --workload sync-hier --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# included, stays under .bench_build/ in that root, so the run reads and
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$src" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
