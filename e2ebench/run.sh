#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash e2ebench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes — the binary, the Go build cache and the Go
# command's own state — goes under $CARGO_TARGET_DIR (default .bench_build)
# in the current directory. The build fails, and so does this script, when
# the repository's sources are not beside the benchmark.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

# Keep the toolchain offline and its caches inside the build directory.
export GOENV="${GOENV:-${XDG_CONFIG_HOME:-$HOME/.config}/go/env}"
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/go-build"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$here" build -o "$out/e2ebench" .
exec "$out/e2ebench" -workdir "$out/e2ebench-work" "$@"
