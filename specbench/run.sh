#!/usr/bin/env bash
# Builds specd and the specbench program from this checkout, then runs
# specbench with the given arguments (--workload, --seed, --seconds,
# --trace). Everything the build and the run write goes under
# .bench_build/ in the checkout, the Go build cache included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/specbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C "$root/specbench" -o "$out/specd" repro/cmd/specd
go build -C "$root/specbench" -o "$out/specbench" .
exec "$out/specbench" -specd "$out/specd" -root "$root" -out "$out" "$@"
