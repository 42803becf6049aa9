#!/usr/bin/env bash
# Builds the benchmark and aplusd from this checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload analytic|served|mixed --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository. Everything it builds or writes
# (Go build cache, binaries, temporary databases, span files) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/aplusd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/aplusd and perfbench/ are required)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/bin" "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# Build output goes to stderr: the last line of stdout is the result.
go build -o "$out/bin/aplusd" ./cmd/aplusd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" --aplusd "$out/bin/aplusd" --workdir "$out" "$@"
