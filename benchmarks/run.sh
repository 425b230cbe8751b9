#!/usr/bin/env bash
# Builds fmbench from source inside the checkout and replaces this shell
# with it, so the benchmark is one OS process: no `go run`, no fmserver
# child, nothing left behind. Everything the go tool and the benchmark
# write (build cache, temp files, the durable store's data dir) stays under
# .bench_build at the root of the checkout.
#
#   benchmarks/run.sh --workload miss-read --seed 1 --seconds 10 --trace 0
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"

export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps telemetry counters under the user config dir and may
# start an uploader child that outlives it; point it into the checkout and
# turn it off.
export XDG_CONFIG_HOME="$build/config"
echo off > "$build/config/go/telemetry/mode"

(cd "$here/fmbench" && go build -o "$build/fmbench" .)
exec "$build/fmbench" -out "$here/out" -tmp "$build/tmp" "$@"
