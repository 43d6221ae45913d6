#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload paper-h1 --seed 1 --seconds 24 --trace 0
#
# The build cache, the binary, the run records and the span files all stay
# under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .)

if [ -z "${PERFBENCH_COMMIT:-}" ] && [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	PERFBENCH_COMMIT=$(git rev-parse HEAD)
	export PERFBENCH_COMMIT
fi
exec "$out/bin/perfbench" --out "$out/results" "$@"
