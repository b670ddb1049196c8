#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Build outputs and Go's
# build cache stay inside the checkout unless GOCACHE is already set.
set -eu
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="${GOCACHE:-$out/gocache}" GOTOOLCHAIN=local
go build -C bench -o "$out/taskml-bench" .
exec "$out/taskml-bench" "$@"
