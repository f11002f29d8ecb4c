#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it
# with the given flags, e.g.
#
#   bash bench/run.sh --workload oltp-flash-hit --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write (Go build cache, temporary trace files, the binary) stays under
# .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

# The go command keeps its telemetry counters and env file under the
# user config directory; keep those inside the checkout as well.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=""
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/bench" build -o "$out/flashdc-bench" .
exec "$out/flashdc-bench" "$@"
