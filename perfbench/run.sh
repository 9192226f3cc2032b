#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload spec-replay --seed 42 --seconds 25 --trace 0
#
# Every build artefact (binary, Go build cache, module, temporary and
# config directories) stays under .bench_build/ in the checkout, and the
# build never touches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
