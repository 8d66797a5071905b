#!/usr/bin/env bash
# Builds reactived, reactivespec and the benchmark driver from this checkout
# into .bench_build/, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload stream-hop --seed 1 --seconds 6 --trace 0
#
# Every build product and all run state stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
cd "$root"
# With telemetry on (the default "local" mode), a go command forks a detached
# upload process that outlives it; turning it off first means every go command
# below ends with no process left behind. "go telemetry off" itself never forks.
go telemetry off
go build -o "$out/reactived" ./cmd/reactived
go build -o "$out/reactivespec" ./cmd/reactivespec
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --bin "$out" "$@"
