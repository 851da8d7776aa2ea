#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout (Go's
# caches included, so nothing is written outside it) and runs it from there.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
bin="$build/vecbench"
stale() {
	[ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \
		\( -name '*.go' -o -name '*.s' -o -name go.mod \) -newer "$bin" -print -quit)" ]
}
if stale; then
	mkdir -p "$build/home"
	(cd "$root/benchmark" && HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=auto go build -o "$bin" .)
fi
cd "$root"
exec "$bin" "$@"
