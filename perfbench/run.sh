#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 20 --trace 0
# Run from the repository root. The build output, the Go caches, the traced
# run's spans and every file the toolchain would otherwise keep under $HOME
# stay in .bench_build/ (or $CARGO_TARGET_DIR); nothing is downloaded.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/home"
out="$(cd "$out" && pwd)"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" --span-dir "$out/traces" "$@"
