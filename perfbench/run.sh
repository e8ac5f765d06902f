#!/usr/bin/env bash
# Builds the cobrad end-to-end benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact, Go cache and
# scratch file stays under .bench_build/ in the current directory. The
# benchmark is a module of its own that imports the repository's packages
# through a relative replace, so it refuses to build (and exits non-zero
# without printing a result) when the rest of the repository is absent.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/home"

# The go command writes its caches, and its telemetry under the user
# config directory, only where these point.
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

(cd "$here" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
