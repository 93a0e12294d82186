#!/usr/bin/env bash
# run.sh builds the benchmark from this checkout and runs it; its
# arguments go to the binary:
#
#   bash perfbench/run.sh --workload multicast-1m --seed 1 --seconds 18 --trace 0
#
# Run it from the root of a checkout of the repository. Build products, the
# Go build cache and the traced run's span files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
    echo "run.sh: run from the root of a gossipkit checkout (go.mod, internal/ and perfbench/ not found in $root)" >&2
    exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
    /*) ;;
    *) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

# Keep every file the toolchain writes inside the checkout, and never
# reach for the network: the module has no dependencies to download.
# The git revision is stamped when the checkout is a git repository; if
# git cannot be queried the build goes on without the stamp.
(
    cd "$root/perfbench"
    export HOME=$build/home XDG_CONFIG_HOME=$build/home XDG_CACHE_HOME=$build/home \
        GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath \
        GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
    go build -o "$build/perfbench" . || go build -buildvcs=false -o "$build/perfbench" .
) >&2

exec "$build/perfbench" --out "$build/spans" "$@"
