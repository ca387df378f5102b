#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds mmload from source into
# .bench_build/ at the checkout root (with Go's build cache, temporary
# files and GOPATH, unless the caller set them, so nothing is written
# outside the checkout) and runs it with the given arguments.
# mmload itself builds the mmfsd binary the wire workloads spawn.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="${GOCACHE:-$out/go-cache}"
export GOTMPDIR="${GOTMPDIR:-$out/tmp}"
export GOPATH="${GOPATH:-$out/gopath}"
go build -C "$here" -o "$out/mmload" .
cd "$root"
exec "$out/mmload" "$@"
