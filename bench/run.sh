#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it with the
# given arguments. Everything the build writes (binary, Go build cache, Go's
# per-user config) stays under .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

(
	cd "$root/bench"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
		GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$build/waran-bench" .
)

cd "$root"
exec "$build/waran-bench" "$@"
