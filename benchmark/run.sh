#!/usr/bin/env bash
# Builds the benchmark from the checkout it stands in and runs it with the
# arguments given. The build cache and the binary stay inside the checkout
# (.bench_build/), so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
[ -f go.mod ] || { echo "run.sh: no go.mod in $PWD: the benchmark builds from the repository's sources" >&2; exit 1; }
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false go build -o "$build/genedit-benchmark" ./benchmark
exec "$build/genedit-benchmark" "$@"
