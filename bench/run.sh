#!/usr/bin/env bash
# Builds the qbench driver from this checkout and runs it with the given
# arguments; the driver builds cmd/qserved itself. Run from anywhere:
#
#   bash bench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and temporary file stays under
# .bench_build/ at the repository root, and no module is fetched.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/bench" && go build -o "$out/qbench" ./qbench)
cd "$root"
exec "$out/qbench" "$@"
