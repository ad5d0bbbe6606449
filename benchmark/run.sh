#!/usr/bin/env bash
# Builds the benchmark and the tbtso-fuzz CLI from the source tree it is
# run in, then runs one workload. Run it from the repository root; every
# argument passes through to the benchmark:
#
#   bash benchmark/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
#
# Binaries, Go caches and traces stay under .bench_build/ in that root,
# so the build and the run write nowhere else.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS="-mod=readonly -buildvcs=false"

# The revision is read here rather than stamped by go build, which fails
# when git is present but refuses the tree.
rev=$(git -C "$root" rev-parse HEAD 2>/dev/null) || rev=unknown
if [ "$rev" != unknown ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
	rev="$rev+modified"
fi

start=$(date +%s%N)
go -C "$root/benchmark" build -o "$out/bin/" . tbtso/cmd/tbtso-fuzz
build_ns=$(($(date +%s%N) - start))

exec "$out/bin/benchmark" -bin "$out/bin" -build-ns "$build_ns" -revision "$rev" "$@"
