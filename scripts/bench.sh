#!/bin/sh
# Benchmark runner: executes the bench_test.go suite with a fixed
# iteration count and several repetitions, then records a
# benchstat-comparable JSON snapshot (BENCH_<n>.json) so the performance
# trajectory is tracked PR over PR.
#
# Usage: scripts/bench.sh [-out FILE] [-old FILE] [-pattern REGEX]
#   -out FILE      snapshot to write (default BENCH_<n+1>.json, where
#                  BENCH_<n>.json is the highest-numbered snapshot)
#   -old FILE      previous raw bench text to compare against; the JSON
#                  then includes per-benchmark speedups
#   -pattern RE    benchmarks to run (default: all)
# Environment: COUNT (default 5), BENCHTIME (default 1x).
#
# The highest-numbered BENCH_<n>.json other than the output is the
# baseline: when the run includes BenchmarkClusterRun, benchjson gates it
# against that snapshot, and a >2% min-ns/op regression on the untraced
# hot path fails the run with exit 3 (the telemetry layer must stay a nil
# check when disabled). Compare snapshots recorded on the same machine
# only; a baseline from other hardware makes the gate meaningless.
set -eu
cd "$(dirname "$0")/.."

# Snapshot numbers present, highest first.
snapshots=$(ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' | sort -rn)
latest=$(echo "$snapshots" | head -n 1)
OUT=BENCH_$((${latest:-0} + 1)).json
OLD=
PATTERN=.
while [ $# -gt 0 ]; do
    case "$1" in
    -out) OUT=$2; shift 2 ;;
    -old) OLD=$2; shift 2 ;;
    -pattern) PATTERN=$2; shift 2 ;;
    *) echo "bench.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
COUNT=${COUNT:-5}
BENCHTIME=${BENCHTIME:-1x}

raw=$(mktemp "${TMPDIR:-/tmp}/bench.XXXXXX")
trap 'rm -f "$raw"' EXIT

echo "== go test -bench $PATTERN -benchtime=$BENCHTIME -count=$COUNT"
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" \
    -count "$COUNT" . | tee "$raw"

# Allocation-regression guard: the steady-state benchmarks (plain,
# pressured, and metrics-fed) rewind to a warmup snapshot and re-simulate
# in place, and the per-regime quantum-kernel benchmarks advance one node
# over and over; neither may allocate once backing arrays reach capacity.
# Any allocs/op > 0 is a regression in the snapshot/restore reuse, the
# quantum kernel, or the streaming metrics hot path.
ZEROALLOC='^(BenchmarkClusterRunSteady|BenchmarkNodeAdvance)'
if grep -qE "$ZEROALLOC" "$raw"; then
    if grep -E "$ZEROALLOC" "$raw" |
        awk '{ for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op" && $i + 0 > 0) exit 1 }'; then
        :
    else
        echo "bench.sh: a BenchmarkClusterRunSteady* or BenchmarkNodeAdvance/* variant allocates in steady state" >&2
        exit 1
    fi
fi

label=$(git rev-parse --short HEAD 2>/dev/null || echo dev)
PAIR=BenchmarkClusterRun=BenchmarkClusterRunTraced,BenchmarkSeedGridFresh=BenchmarkSeedGridFork,BenchmarkClusterRunPressuredDense=BenchmarkClusterRunPressured

# Regression gate vs the previous snapshot. A gated benchmark missing
# from either side fails benchjson, so the gate is only requested when
# this run's pattern included BenchmarkClusterRun, and says so otherwise.
BASELINE=
for n in $snapshots; do
    if [ "BENCH_$n.json" != "$OUT" ]; then
        BASELINE=BENCH_$n.json
        break
    fi
done
GATEARGS=
if [ -z "$BASELINE" ]; then
    echo "bench.sh: no baseline snapshot; regression gate not applied" >&2
elif grep -qE '^BenchmarkClusterRun(-[0-9]+)?[[:space:]]' "$raw"; then
    GATEARGS="-baseline $BASELINE -gate BenchmarkClusterRun=2"
else
    echo "bench.sh: BenchmarkClusterRun not in this run; regression gate vs $BASELINE not applied" >&2
fi

if [ -n "$OLD" ]; then
    # shellcheck disable=SC2086
    go run ./cmd/benchjson -label "$label" -old "$OLD" -pair "$PAIR" $GATEARGS <"$raw" >"$OUT"
else
    # shellcheck disable=SC2086
    go run ./cmd/benchjson -label "$label" -pair "$PAIR" $GATEARGS <"$raw" >"$OUT"
fi
echo "bench: wrote $OUT"
