#!/bin/sh
# Chaos gauntlet for the campaign daemon, used by CI and runnable
# locally:
#
#   1. run one solo `szc campaign` per tenant as the byte-identity
#      reference (fixed seeds, run faults on);
#   2. start szcd, submit the same three campaigns from three tenants
#      concurrently — run faults AND heavy storage faults armed, so
#      checkpoint writes are being torn/bit-flipped while the pool is
#      shared;
#   3. SIGKILL the daemon mid-flight; the clients keep retrying with
#      backoff;
#   4. restart szcd on the same spool: it fsck-repairs whatever the
#      crash left, resumes every interrupted campaign from its
#      checkpoint (storage faults disarmed, as `--resume` after a
#      crash does), and the waiting clients re-attach and follow each
#      campaign to exit 0;
#   5. every client's progress feed lists each run exactly once, in
#      order, across the crash;
#   6. every tenant's CSV, checkpoint and ledger must be byte-identical
#      (`cmp`) to its solo reference;
#   7. SIGTERM the daemon and demand a clean drain (exit 0).
#
# The ops plane rides along the whole way: the daemon runs with
# --oplog and --ops-export, `szc remote top --once --raw` scrapes a
# stats snapshot mid-gauntlet, the Prometheus textfile is checked to
# parse, and after the SIGKILL the oplog must fsck clean or
# salvageable (`szc fsck --repair` brings it back to exit 0).
#
# Usage: scripts/check_daemon.sh [OUTDIR]  (default: ./daemon-artifacts)
# Exits nonzero on any divergence.
set -eu

outdir=${1:-daemon-artifacts}
mkdir -p "$outdir"

dune build bin/szc.exe bin/szcd.exe
SZC=_build/default/bin/szc.exe
SZCD=_build/default/bin/szcd.exe

sock="$outdir/szcd.sock"
spool="$outdir/spool"
rm -rf "$spool" "$sock"

runs=40
common="bzip2 --runs $runs --scale 0.05 --faults light"

echo "== solo reference campaigns, one per tenant"
for s in 1 2 3; do
  seed=$((100 + s))
  $SZC campaign $common --quiet --seed "$seed" \
    --csv "$outdir/solo-t$s.csv" \
    --checkpoint "$outdir/solo-t$s.ck" \
    --ledger "$outdir/solo-t$s.ledger"
done

# Sets $dpid. Runs in the current shell (no command substitution), so
# the daemon stays a direct child and `wait $dpid` can collect its
# drain status.
start_daemon() {
  $SZCD --socket "$sock" --spool "$spool" --slots 4 --quantum 2 --verbose \
    --oplog "$outdir/ops.log" --ops-export "$outdir/ops.prom" \
    >>"$outdir/szcd.log" 2>&1 &
  dpid=$!
}

# Every non-comment line of a Prometheus textfile is
# `name{labels} value` or `name value`; anything else is a parse
# error. Checked with awk so CI needs no scrape client.
check_prometheus() {
  awk '
    /^#/ || /^$/ { next }
    !/^[A-Za-z_][A-Za-z0-9_]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/ {
      print "bad exposition line: " $0; bad = 1
    }
    END { exit bad }
  ' "$1"
}

echo "== szcd up, three tenants submit concurrently (storage faults armed)"
start_daemon

cpids=""
for s in 1 2 3; do
  seed=$((100 + s))
  $SZC remote submit "t$s" "c$s" $common --seed "$seed" --ledger \
    --storage-faults heavy --storage-seed "$s" \
    --socket "$sock" --deadline 300 --retry-seed "$s" --wait \
    >"$outdir/client-t$s.log" 2>&1 &
  cpids="$cpids $!"
done

echo "== waiting for the first checkpoint write, then SIGKILLing szcd"
i=0
while [ -z "$(find "$spool" -name 'checkpoint.ck*' 2>/dev/null | head -1)" ] \
  && [ "$i" -lt 300 ]; do
  sleep 0.1
  i=$((i + 1))
done

echo "== mid-gauntlet ops scrape: szc remote top --once --raw"
$SZC remote top --once --raw --socket "$sock" --deadline 30 \
  >"$outdir/top.raw" 2>&1
grep -q '^hist loop.tick_us count' "$outdir/top.raw"
grep -q '^counter wire.rx.submit ' "$outdir/top.raw"
grep -q '^counter admit.ok ' "$outdir/top.raw"
grep -q '^tenant t1 ' "$outdir/top.raw"
echo "stats snapshot carries tick histogram, wire/admit counters, tenant rows"

# The exporter rewrites the file about once a second; the very first
# write can predate the first tick sample, so wait for a snapshot
# that already carries the histogram.
i=0
until grep -qs '^# TYPE szcd_loop_tick_us summary' "$outdir/ops.prom"; do
  if [ "$i" -ge 100 ]; then
    echo "exporter never published the tick histogram"
    exit 1
  fi
  sleep 0.1
  i=$((i + 1))
done
check_prometheus "$outdir/ops.prom"
echo "exporter textfile parses as Prometheus exposition"

sleep 0.2
if kill -9 "$dpid" 2>/dev/null; then
  echo "SIGKILLed szcd pid $dpid mid-campaign"
else
  echo "WARNING: szcd exited before the kill landed (still checking recovery)"
fi
wait "$dpid" 2>/dev/null || true
# Runners orphaned by the daemon's death exit at their next batch
# boundary; the restarted daemon also SIGKILLs any that linger.

echo "== oplog survives the SIGKILL: fsck clean or salvageable"
code=0
$SZC fsck "$outdir/ops.log" || code=$?
case "$code" in
  0) echo "oplog intact across SIGKILL" ;;
  2)
    echo "oplog torn by SIGKILL; repairing"
    # --repair reports the salvage it performed (exit 2); the re-check
    # must then come back fully clean.
    $SZC fsck --repair "$outdir/ops.log" || [ "$?" -eq 2 ]
    $SZC fsck "$outdir/ops.log"
    echo "oplog repaired to a clean container"
    ;;
  *)
    echo "oplog unrecoverable after SIGKILL (fsck exit $code)"
    exit 1
    ;;
esac

echo "== restarting szcd on the crashed spool; clients retry and re-attach"
start_daemon

fail=0
for cpid in $cpids; do
  code=0
  wait "$cpid" || code=$?
  if [ "$code" -ne 0 ]; then
    echo "client pid $cpid exited $code (wanted 0)"
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "--- client logs ---"
  cat "$outdir"/client-t*.log
  exit 1
fi
echo "all three clients converged to exit 0 across the daemon crash"

echo "== every client's progress feed: run 0 .. run $((runs - 1)), once each, in order"
for s in 1 2 3; do
  if ! awk -v runs="$runs" '
    /^run +[0-9]+:/ { n = $2; sub(/:$/, "", n); if (n + 0 != next_run) bad = 1; next_run++ }
    END { exit (bad || next_run != runs) }
  ' "$outdir/client-t$s.log"; then
    echo "t$s: progress feed has a gap, a repeat or a reordering"
    cat "$outdir/client-t$s.log"
    exit 1
  fi
  echo "t$s progress feed: every run exactly once, in order"
done

echo "== per-tenant artifacts byte-identical to the solo references"
for s in 1 2 3; do
  dir="$spool/t$s/c$s"
  cmp "$outdir/solo-t$s.csv" "$dir/out.csv"
  echo "t$s csv: byte-identical to solo"
  cmp "$outdir/solo-t$s.ck" "$dir/checkpoint.ck"
  echo "t$s checkpoint: byte-identical to solo"
  cmp "$outdir/solo-t$s.ledger" "$dir/ledger"
  echo "t$s ledger: byte-identical to solo"
done

echo "== SIGTERM drains the daemon to exit 0"
kill -TERM "$dpid"
code=0
wait "$dpid" || code=$?
if [ "$code" -ne 0 ]; then
  echo "szcd drain exited $code (wanted 0)"
  exit 1
fi

echo "== after the drain: oplog fscks clean, final export parses"
$SZC fsck "$outdir/ops.log"
grep -q '"ev":"daemon.drained"' "$outdir/ops.log"
check_prometheus "$outdir/ops.prom"

echo "daemon chaos gauntlet: OK"
