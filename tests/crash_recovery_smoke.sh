#!/usr/bin/env bash
# Crash-recovery smoke: drive `slimfast_cli serve --wal-dir` through the
# line protocol, SIGKILL the server mid-session (after its replies are
# acknowledged on stdout), restart it on the same WAL directory, and
# require the recovered service to reproduce the acknowledged state —
# the STATS store_fingerprint and every QUERY and POSTERIOR reply must
# match bit-for-bit (the posteriors check the recovered weights end to
# end, not only the MAP values). Service lifetime counters (batches, queries) deliberately
# restart from the recovery point and are NOT compared; the fingerprint
# is the identity that matters (see docs/ARCHITECTURE.md).
#
# usage: crash_recovery_smoke.sh /path/to/slimfast_cli
set -u

CLI=${1:?usage: crash_recovery_smoke.sh /path/to/slimfast_cli}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/slimfast-crash-smoke.XXXXXX")
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT
WAL_DIR="$WORK/wal"

fail() {
  echo "crash_recovery_smoke: FAIL: $*" >&2
  echo "--- first-life stdout ---" >&2;  cat "$WORK/out1" >&2 2>/dev/null
  echo "--- first-life stderr ---" >&2;  cat "$WORK/err1" >&2 2>/dev/null
  echo "--- second-life stdout ---" >&2; cat "$WORK/out2" >&2 2>/dev/null
  echo "--- second-life stderr ---" >&2; cat "$WORK/err2" >&2 2>/dev/null
  exit 1
}

# Waits until FILE has at least N lines (each protocol reply is one
# flushed line, so line count == acknowledged commands).
await_lines() {
  file=$1; want=$2
  i=0
  while [ "$(wc -l < "$file")" -lt "$want" ]; do
    i=$((i + 1))
    [ "$i" -gt 200 ] && fail "timed out waiting for $want replies in $file"
    sleep 0.1
  done
}

# --- first life: ingest, checkpoint mid-stream, ingest more, kill -9 ---
mkfifo "$WORK/in1"
"$CLI" serve --dims 4 6 3 --shards 2 --relearn-every 1 \
  --wal-dir "$WAL_DIR" --fsync-every 1 \
  < "$WORK/in1" > "$WORK/out1" 2> "$WORK/err1" &
SERVER_PID=$!
exec 3> "$WORK/in1"  # hold the fifo open so the server outlives our writes

send() { printf '%s\n' "$1" >&3; }

send "OBS 0 0 0"
send "OBS 1 0 1"
send "OBS 0 1 1"
send "OBS 2 1 1"
send "TRUTH 0 0"
send "COMMIT"
send "CHECKPOINT"          # exercise snapshot + WAL truncation in life 1
send "OBS 3 2 2"
send "OBS 1 2 2"
send "COMMIT"              # this batch lives only in the WAL tail
send "DRAIN"
send "STATS"
send "QUERY 0"
send "QUERY 1"
send "QUERY 2"
send "POSTERIOR 0"
send "POSTERIOR 1"
send "POSTERIOR 2"
await_lines "$WORK/out1" 18

kill -9 "$SERVER_PID" || fail "server already dead before kill -9"
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""
exec 3>&-

grep -q "ERR" "$WORK/out1" && fail "first life saw an ERR reply"
[ -f "$WAL_DIR/MANIFEST" ] || fail "CHECKPOINT left no MANIFEST in $WAL_DIR"

# --- second life: recover from the same WAL dir and interrogate ---
printf 'STATS\nQUERY 0\nQUERY 1\nQUERY 2\nPOSTERIOR 0\nPOSTERIOR 1\nPOSTERIOR 2\nQUIT\n' | \
  "$CLI" serve --dims 4 6 3 --shards 2 --relearn-every 1 \
    --wal-dir "$WAL_DIR" --fsync-every 1 \
    > "$WORK/out2" 2> "$WORK/err2" || fail "recovered server exited non-zero"

grep -q "ERR" "$WORK/out2" && fail "second life saw an ERR reply"

fp1=$(grep -o 'store_fingerprint=[0-9a-f]*' "$WORK/out1" | tail -1)
fp2=$(grep -o 'store_fingerprint=[0-9a-f]*' "$WORK/out2" | tail -1)
[ -n "$fp1" ] || fail "first life STATS carried no store_fingerprint"
[ "$fp1" = "store_fingerprint=0000000000000000" ] && \
  fail "first life fingerprint is the empty-store fingerprint"
[ "$fp1" = "$fp2" ] || \
  fail "fingerprint diverged after recovery: first=$fp1 second=$fp2"

# QUERY and POSTERIOR replies (the last 6 lines of life 1; lines 2-7 of
# life 2) must be identical, and actual estimates rather than NONE.
tail -6 "$WORK/out1" > "$WORK/queries1"
sed -n '2,7p' "$WORK/out2" > "$WORK/queries2"
grep -q '^VALUE ' "$WORK/queries1" || fail "first life QUERY returned no VALUE"
grep -q '^POSTERIOR ' "$WORK/queries1" || \
  fail "first life POSTERIOR returned no distribution"
cmp -s "$WORK/queries1" "$WORK/queries2" || \
  fail "QUERY/POSTERIOR replies diverged after recovery: [$(cat "$WORK/queries1" | tr '\n' '|')] vs [$(cat "$WORK/queries2" | tr '\n' '|')]"

echo "crash_recovery_smoke: OK ($fp1 reproduced after kill -9," \
     "$(wc -l < "$WORK/queries1") query/posterior replies identical)"
