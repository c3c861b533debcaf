#!/usr/bin/env bash
# Builds rmbench and the tablei and rmtest commands from source
# into .bench_build/ and runs rmbench with the given flags. Run it from
# the repository root:
#
#   bash bench/run.sh -sets 2 -out result.json
#   bash bench/run.sh --workload gen --seed 7 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build/, and
# no module is downloaded.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/tablei" ]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/tablei here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	PPROF_TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOMAXPROCS=2

go build -o "$build/bin/" ./cmd/tablei ./cmd/rmtest
(cd "$root/bench/rmbench" && go build -o "$build/rmbench" .)
exec "$build/rmbench" "$@"
