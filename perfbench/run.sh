#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout's root. Every file the build and the run leave behind
# stays under .bench_build/ (see the root .gitignore).
#
#   bash perfbench/run.sh --workload send|commit|query --seed N --seconds S --trace 0|1
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
