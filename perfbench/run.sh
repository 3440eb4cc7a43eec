#!/usr/bin/env bash
# Builds the programs under test (fairserved, fairkm, fairstream) and the
# perfbench program from this checkout, then runs perfbench:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Every build and run artifact
# lands under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS=-mod=mod
mkdir -p "$build/bin" "$build/tmp"
go build -o "$build/bin/" ./cmd/fairserved ./cmd/fairkm ./cmd/fairstream >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
