#!/usr/bin/env bash
# Builds rvpbench from the source tree it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#	bash cmd/rvpbench/run.sh --workload serve --seed 3 --seconds 20 --trace 0
#
# Everything the build writes (the binary, Go's build cache, temporary
# files) stays in .bench_build under the current directory, so the
# benchmark reads and writes nothing outside the tree. The first run fills
# the build cache and takes a minute or two longer.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/rvpbench" ./cmd/rvpbench
exec "$out/rvpbench" "$@"
