#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes (Go build cache, binary, socket directory) stays in
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o "$root/.bench_build/jsweep-benchmark" .)
exec .bench_build/jsweep-benchmark "$@"
