#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload stage-qwm --seed 0 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, fleet disk caches,
# Chrome traces) goes under $CARGO_TARGET_DIR, default .bench_build, inside
# the current directory. The build needs the repository's own module one
# directory up; without it the build fails and nothing is printed.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

# The go command keeps its telemetry under the user config directory; point
# that inside the checkout too.
XDG_CONFIG_HOME="$out/config" go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
