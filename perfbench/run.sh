#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-8 --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files, the binary and the traced run's span
# files all stay under .bench_build in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
src="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=readonly

(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
