#!/usr/bin/env bash
# Builds echoimaged, echoimage-router and the perfbench load generator from
# this checkout into .bench_build/, then runs one benchmark invocation:
#
#   bash .perfbench/run.sh --workload direct-12beep --seed 1 --seconds 30 --trace 0
#
# Every Go cache and temporary file stays under .bench_build/ so a run
# reads and writes only inside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
for src in go.mod cmd/echoimaged cmd/echoimage-router; do
	if [ ! -e "$root/$src" ]; then
		echo "run.sh: $root/$src is missing; run from a full checkout" >&2
		exit 1
	fi
done
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home/.config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	XDG_CACHE_HOME="$build/home/.cache" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
# With telemetry on, a go command may fork a detached upload process that
# outlives the build; this mode file turns telemetry off.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$build/bin/" ./cmd/echoimaged ./cmd/echoimage-router) >&2
(cd "$root/.perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin "$build/bin" "$@"
