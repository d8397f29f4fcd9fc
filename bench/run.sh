#!/usr/bin/env bash
# Builds orobench from the checkout's sources and runs it with the given
# arguments, from the checkout root. The Go build cache, temporary files and
# the binary all go under .bench_build, so a run writes nowhere outside the
# checkout. The build needs the repository module one directory up
# (bench/go.mod replaces "repro" with ../); without it the build fails and
# the script exits non-zero before printing any result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go -C "$root/bench" build -o "$out/orobench" ./cmd/orobench
cd "$root"
exec "$out/orobench" "$@"
