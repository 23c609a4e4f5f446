#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload figures-cold --seed 1 --seconds 15 --trace 0
#
# Every build artifact (Go build cache, module path, the binary) lands under
# .bench_build/ in the current directory, so nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: no go.mod in $root; run from the repository root" >&2
	exit 2
fi
mkdir -p "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false CGO_ENABLED=0 \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" -root "$root" "$@"
