#!/usr/bin/env bash
# Builds the ledger benchmark from the sources of the checkout it sits in
# and runs it from the checkout's root with the given arguments, e.g.
#
#   bash ledger/run.sh --workload tcp_mixed --seed 1 --seconds 10 --trace 0
#
# The build cache and binary live in .bench_build/ at the checkout root, so
# nothing is read or written outside the checkout except the Go toolchain.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/ledger" -o "$out/ledger" .
cd "$root"
exec "$out/ledger" "$@"
