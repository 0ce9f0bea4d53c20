#!/usr/bin/env bash
# End-to-end smoke test of the serving front door, driven exactly the
# way an operator would: boot the release daemon over a fixture corpus,
# exercise every endpoint with curl (saves and queries racing an
# ingest included), SIGTERM it, restart over the autosaved snapshots, and
# assert the warm restart — identical partition and entity bodies
# (determinism: neither is stored) and zero key renders since open.
#
#   cargo build --release && scripts/serve_smoke.sh
#
# Environment: BIN overrides the binary under test (default
# target/release/probdedup).
set -euo pipefail

BIN=${BIN:-target/release/probdedup}
WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $1" >&2
    for log in "$WORK"/serve*.log; do
        [ -f "$log" ] && { echo "--- $log ---" >&2; cat "$log" >&2; }
    done
    exit 1
}

# Boot the daemon with the given log file; sets SERVER_PID and ADDR.
boot() {
    local log=$1
    # Create the log before the daemon starts, so the first read below
    # cannot race the backgrounded redirection.
    : >"$log"
    "$BIN" serve --addr 127.0.0.1:0 --arity 4 --snapshot-dir "$WORK/snaps" \
        --wal-dir "$WORK/wal" \
        >"$log" 2>&1 &
    SERVER_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR=$(sed -n 's/^listening on //p' "$log" | head -n1)
        [ -n "$ADDR" ] && return 0
        kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon exited during boot"
        sleep 0.1
    done
    fail "daemon never reported its listen address"
}

req() { curl -fsS --max-time 30 "$@"; }

echo "== fixture corpus"
"$BIN" generate --out-prefix "$WORK/census" --entities 60 --sources 2 --seed 7

# Loop one curl request in the background, under `timeout`, until
# $WORK/race.stop exists (at least once), logging each status code to
# the file $1.
RACE_PIDS=""
race() {
    local out=$1
    shift
    timeout 60 bash -c 'out=$1 stop=$2; shift 2
        while :; do
            curl -s -o /dev/null -w "%{http_code}\n" --max-time 10 "$@" >>"$out"
            [ -f "$stop" ] && break
        done' race "$out" "$WORK/race.stop" "$@" &
    RACE_PIDS="$RACE_PIDS $!"
}

echo "== first life: boot, ingest, query, stats, snapshot"
boot "$WORK/serve1.log"
req -X POST --data-binary @"$WORK/census.source0.pxr" \
    "http://$ADDR/sessions/census/ingest" | grep -q '"rows_added"' \
    || fail "ingest source0"

# Saves and reads racing an ingest: saves hold the session's writer
# mutex before its lock, as the ingest does, so neither can wait on the
# other in a cycle — every request must answer 200, none may hang. The
# ordered read (`partition?full=1`) regenerates the candidates over the
# published rows while the ingest has grown the warm state past them.
race "$WORK/race.snapshot" -X POST "http://$ADDR/sessions/census/snapshot"
race "$WORK/race.query" "http://$ADDR/sessions/census/query?i=0&j=1"
race "$WORK/race.full" "http://$ADDR/sessions/census/partition?full=1"
req -X POST --data-binary @"$WORK/census.source1.pxr" \
    "http://$ADDR/sessions/census/ingest" | grep -q '"rows_added"' \
    || fail "ingest source1"
touch "$WORK/race.stop"
for pid in $RACE_PIDS; do
    wait "$pid" || fail "a request loop racing the ingest hung (lock-order deadlock?)"
done
for loop in snapshot query full; do
    [ -s "$WORK/race.$loop" ] || fail "the $loop loop never ran"
    grep -qvx 200 "$WORK/race.$loop" \
        && fail "a $loop racing the ingest answered $(grep -vx 200 "$WORK/race.$loop" | head -n1)"
done

PART1=$(req "http://$ADDR/sessions/census/partition")
echo "$PART1" | grep -q '"clusters"' || fail "partition body"

# The plain partition is read off the decision memo, `?full=1` off the
# ordered result: both views must describe one partition.
partition_tokens() {
    for key in rows candidates matches possible; do
        echo "$1" | grep -o "\"$key\": [0-9]*"
    done
    echo "$1" | sed -n 's/.*\("clusters": \[.*\]\), "summary".*/\1/p'
}
FULL1=$(req "http://$ADDR/sessions/census/partition?full=1")
echo "$FULL1" | grep -q '"decisions": \[{' || fail "partition?full=1 lists no decisions"
TOKENS=$(partition_tokens "$PART1")
[ "$(echo "$TOKENS" | wc -l)" -eq 5 ] || fail "partition tokens missing: $TOKENS"
[ "$TOKENS" = "$(partition_tokens "$FULL1")" ] || fail "partition views disagree:
  partition:         $TOKENS
  partition?full=1:  $(partition_tokens "$FULL1")"

ENT1=$(req "http://$ADDR/sessions/census/entities?strategy=correlation-repaired")
echo "$ENT1" | grep -q '"entities"' || fail "entities body"
curl -s -o /dev/null -w '%{http_code}' \
    "http://$ADDR/sessions/census/entities?strategy=kmeans" | grep -q 400 \
    || fail "unknown strategy should 400"

req "http://$ADDR/sessions/census/query?i=0&j=1" | grep -q '"class"' \
    || fail "query endpoint"
req "http://$ADDR/health" | grep -q '"status": "ok"' || fail "health"
req "http://$ADDR/stats" | grep -q '"requests": ' || fail "stats"
req -X POST "http://$ADDR/sessions/census/snapshot" | grep -q '"bytes"' \
    || fail "explicit snapshot"

# Two saves of one session at once share one staging file; the daemon
# serialises them per session, so both must land.
SNAP_PIDS=""
for n in 1 2; do
    curl -s -o /dev/null -w '%{http_code}' --max-time 30 -X POST \
        "http://$ADDR/sessions/census/snapshot" >"$WORK/snap$n.code" &
    SNAP_PIDS="$SNAP_PIDS $!"
done
wait $SNAP_PIDS
for n in 1 2; do
    grep -q 200 "$WORK/snap$n.code" \
        || fail "parallel snapshot $n answered $(cat "$WORK/snap$n.code")"
done

# Error paths must answer with errors, not kill the daemon.
curl -s -o /dev/null -w '%{http_code}' \
    "http://$ADDR/sessions/nope/partition" | grep -q 404 \
    || fail "missing session should 404"
curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary 'not a relation' \
    "http://$ADDR/sessions/census/ingest" | grep -q 400 \
    || fail "bad body should 400"

echo "== graceful SIGTERM triggers autosave"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "daemon exited non-zero on SIGTERM"
SERVER_PID=""
grep -q 'session(s) saved' "$WORK/serve1.log" || fail "no shutdown autosave line"
[ -f "$WORK/snaps/census.snap" ] || fail "census.snap not written"

echo "== second life: warm restart from the autosaved snapshot"
boot "$WORK/serve2.log"
grep -q 'restored 1 session(s): census' "$WORK/serve2.log" \
    || fail "restart did not restore the session"

PART2=$(req "http://$ADDR/sessions/census/partition")
[ "$PART1" = "$PART2" ] || fail "partition changed across restart:
  before: $PART1
  after:  $PART2"

# Nothing stores an entity resolution: the snapshot holds the decisions
# and the clustering is a deterministic function of them, so the
# restarted daemon must compute the byte-identical body.
ENT2=$(req "http://$ADDR/sessions/census/entities?strategy=correlation-repaired")
[ "$ENT1" = "$ENT2" ] || fail "entity resolution changed across restart:
  before: $ENT1
  after:  $ENT2"

# Drive reads through the restored session, then assert nothing
# re-rendered since open: the restore rebuilt the pools from the stored
# relation before the baseline was taken, and the queries answered from
# the decision memo and the rebuilt pools.
for pair in "0 1" "2 5" "10 20"; do
    set -- $pair
    req "http://$ADDR/sessions/census/query?i=$1&j=$2" >/dev/null \
        || fail "post-restart query $1,$2"
done
req "http://$ADDR/stats" | grep -q '"key_renders_since_open": 0' \
    || fail "warm restart re-rendered keys"

echo "== client-driven graceful shutdown"
req -X POST "http://$ADDR/shutdown" | grep -q 'shutting down' || fail "shutdown"
wait "$SERVER_PID" || fail "daemon exited non-zero after /shutdown"
SERVER_PID=""
grep -q 'session(s) saved' "$WORK/serve2.log" || fail "no autosave on /shutdown"

echo "== third life: kill -9 mid-ingest loses nothing (the WAL contract)"
boot "$WORK/serve3.log"
# These batches are acknowledged (the journal fsynced them) but never
# snapshotted — the only copy outlives the crash in $WORK/wal, and the
# restart replays the three records as one run.
for src in source0 source1 source0; do
    req -X POST --data-binary @"$WORK/census.$src.pxr" \
        "http://$ADDR/sessions/fresh/ingest" | grep -q '"rows_added"' \
        || fail "ingest $src into fresh session"
done
PART3=$(req "http://$ADDR/sessions/fresh/partition")
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

boot "$WORK/serve4.log"
PART4=$(req "http://$ADDR/sessions/fresh/partition")
[ "$PART3" = "$PART4" ] || fail "kill -9 lost an acknowledged batch:
  before: $PART3
  after:  $PART4"
STATS=$(req "http://$ADDR/stats")
echo "$STATS" | grep -q '"journal_replayed_records": 3,' \
    || fail "recovery must report the 3 journaled batches replayed: $STATS"
req -X POST "http://$ADDR/shutdown" >/dev/null || fail "final shutdown"
wait "$SERVER_PID" || fail "daemon exited non-zero after final shutdown"
SERVER_PID=""

echo "serve smoke: OK"
