#!/usr/bin/env bash
# Builds the numaperf benchmark from the checkout it is run in and runs it.
#
#   bash perfbench/run.sh --workload fig8-engine --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare old.txt new.txt
#
# Run it from the repository root. The Go build cache, the binary and every
# scratch file stay under .bench_build/ there; nothing is fetched.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/go-cache GOPATH=$build/go-path GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

if [ -d "$root/.git" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	export BENCH_COMMIT
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
