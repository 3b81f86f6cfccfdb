#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build outputs, the Go build cache, the go
# command's own state and the benchmark's scratch files (colord data dirs,
# span dumps) all live under $CARGO_TARGET_DIR (default .bench_build), so
# nothing outside the checkout is written. The go command runs offline with
# the local toolchain; the last line of standard output is the result object.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/config"
build="$(cd "$build" && pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

(cd "$src" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --dir "$build" "$@"
