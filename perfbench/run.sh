#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/gotmp" \
	GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off

# A checkout without the repository's module next to the benchmark
# fails here, before any result is printed.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
