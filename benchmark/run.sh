#!/usr/bin/env bash
# Launcher for the benchmark contract: builds e2ebench from source into
# the checkout's .bench_build/ (Go's build and module caches are kept
# there too, so nothing outside the checkout is written) and runs it
# from the checkout root with the caller's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/e2ebench" .)
cd "$root"
exec "$build/e2ebench" "$@"
