#!/usr/bin/env bash
# Builds the benchmark and the dwarfserve binary it spawns, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload cold_sweep --seed 1 --seconds 20 --trace 0
#
# Build outputs and everything the go command writes — its build cache,
# GOPATH, temporary files and telemetry counters, which live under the
# user's config directory — stay under .bench_build/ in the current
# directory; the build needs no network. Build output goes to standard
# error, so the last line of standard output is the result.
set -euo pipefail

out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$out/bin" "$out/tmp"
(
	cd bench
	go build -o "$out/bin/bench" .
	go build -o "$out/bin/dwarfserve" opendwarfs/cmd/dwarfserve
) >&2
exec "$out/bin/bench" "$@"
