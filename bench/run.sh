#!/usr/bin/env bash
# Builds and runs meshbench (bench/meshbench) from the repository root,
# passing every argument through. BENCHMARK.json's command runs it as
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The go build cache, the binaries, meshd's journals and logs, spans and
# results all stay under .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/meshbench" ./meshbench)
exec "$out/meshbench" -repo "$root" -out "$out" "$@"
