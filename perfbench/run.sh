#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (the binary, the Go build and module
# caches, the go command's config and telemetry, temporary files)
# stays under .bench_build/ in the repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
