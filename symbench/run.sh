#!/usr/bin/env bash
# Builds symtago and the benchmark program from the checkout this is run
# in, then runs one workload:
#
#   bash symbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# goes under $CARGO_TARGET_DIR (default .bench_build), Go's build cache
# included, so the run reads and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/symtago || ! -f symbench/go.mod ]]; then
	echo "symbench: run from the root of a symtago checkout (no go.mod, cmd/symtago or symbench here)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/go-config" "$out/work"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export TMPDIR="$out/go-tmp"
# The go command keeps its env file and telemetry counters under the
# user config directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$out/go-config"

go build -o "$out/symtago" ./cmd/symtago
(cd symbench && go build -o "$out/symbench" .)
exec "$out/symbench" -bin "$out/symtago" -work "$out/work" "$@"
