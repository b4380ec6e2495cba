#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: build the harness from source inside
# the checkout, then run it with the driver's arguments. Nothing is read
# or written outside the checkout: the Go build cache, its temporary
# files and the binary all live under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
# go build is a no-op when nothing changed, so every run may call it.
go -C "$here" build -o "$build/parulel-benchmark" .
cd "$root"
exec "$build/parulel-benchmark" "$@"
