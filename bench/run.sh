#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root: bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write (Go build cache, the binary, state
# directories) lands under .bench_build/ and bench/out/, both git-ignored.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files here too.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/prete-bench" .) >&2
cd "$root"
exec "$build/prete-bench" "$@"
