#!/usr/bin/env bash
# Builds the commit-service benchmark from the sources of the checkout it
# sits in, then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload http-tcp --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Every build product, the Go build
# cache and the toolchain's own state included, stays under .bench_build/
# in that checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
(
	cd "$root/perfbench"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
