#!/usr/bin/env bash
# Builds the daemons under test and the benchmark from this checkout's
# sources, then runs the benchmark with the given arguments. Everything
# the build and the runs write stays under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/" . mdagent/cmd/mdagentd mdagent/cmd/mdregistry) >&2
exec "$build/bin/perfbench" --bin "$build/bin" --rundir "$build/runs" "$@"
