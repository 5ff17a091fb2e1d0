#!/bin/sh
# Self-timing perf harness driver, used by CI and runnable locally:
#
#   1. build and run bench/perf.exe over the workload matrix, emitting
#      $OUT (default BENCH_local.json, gitignored, so committed
#      BENCH_<PR>.json snapshots are never overwritten) and appending
#      one history-ledger entry per workload (seconds per simulated
#      run);
#   2. dog-food gate: point `szc regress` — the same Cohen's-d
#      confidence-interval machinery that judges simulated campaigns —
#      at the harness's own ledger, per workload label. The latest
#      entry is compared against the oldest recorded baseline with the
#      same label. A generous --min-effect absorbs wall-clock noise
#      (shared CI runners drift); only a large confirmed slowdown
#      fails. Exit 3 (no baseline yet / too few repeats) is not a
#      failure: the first recorded run IS the baseline.
#
# Usage: scripts/bench_perf.sh
# Knobs: OUT, LEDGER, PERF_RUNS, PERF_REPEATS, PERF_WARMUP,
#        PERF_MATRIX (full|quick), PERF_MIN_EFFECT, STZ_SCALE.
set -eu

cd "$(dirname "$0")/.."

OUT=${OUT:-BENCH_local.json}
LEDGER=${LEDGER:-bench/perf.ledger}
PERF_RUNS=${PERF_RUNS:-12}
PERF_REPEATS=${PERF_REPEATS:-5}
PERF_WARMUP=${PERF_WARMUP:-1}
PERF_MATRIX=${PERF_MATRIX:-full}
# Generous on purpose: repeats on a quiet machine have tiny sd, so
# even a few percent of CPU-frequency or cache drift shows up as
# d ~ 1-3. A real interpreter regression (e.g. reverting the paged
# memory store) measures d > 40 on this matrix.
PERF_MIN_EFFECT=${PERF_MIN_EFFECT:-10.0}

dune build bench/perf.exe bin/szc.exe
PERF=_build/default/bench/perf.exe
SZC=_build/default/bin/szc.exe

echo "== measuring (matrix=$PERF_MATRIX, $PERF_REPEATS repeats x $PERF_RUNS runs, warmup $PERF_WARMUP)"
"$PERF" --out "$OUT" --ledger "$LEDGER" --runs "$PERF_RUNS" \
  --repeats "$PERF_REPEATS" --warmup "$PERF_WARMUP" --matrix "$PERF_MATRIX"

case "$PERF_MATRIX" in
quick) labels="astar mcf sjeng" ;;
*) labels="astar hmmer libquantum mcf sjeng" ;;
esac

echo "== dog-food regression gate (min-effect d=$PERF_MIN_EFFECT)"
status=0
for w in $labels; do
  printf '%-12s ' "perf:$w"
  rc=0
  "$SZC" regress "$LEDGER" --label "perf:$w" --min-n 2 \
    --min-effect "$PERF_MIN_EFFECT" || rc=$?
  case $rc in
  0) ;;
  3) echo "   (no baseline yet -- this run becomes it)" ;;
  2) status=2 ;;
  *) exit "$rc" ;;
  esac
done

if [ "$status" -ne 0 ]; then
  echo "FAIL: simulator performance regressed beyond d=$PERF_MIN_EFFECT"
  exit "$status"
fi
echo "OK: $OUT written, ledger $LEDGER gated clean"
