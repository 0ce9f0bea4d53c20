#!/usr/bin/env bash
# Scale smoke test of the sharded front door, driven through the release
# CLI the way an operator would: generate a 20k-entity two-source corpus,
# dedup it sharded under a deliberately small --memory-budget, dedup it
# unsharded as the reference, and assert the merged sharded result is
# identical (modulo the sharded run's extra shard-stats line) and — for
# the default corpus and shard count — routed exactly as recorded; the
# unsharded run under the same budget (the session path with its caches
# evicting) must be identical too. Then
# the paper's Section V multi-pass SNM (possible-world selection, then one
# pass per world) over 2 000 and 6 000 entities inside 1 GiB of address
# space: the first summary is pinned to the one the dense world search
# produced (it needed 2.1 GB and 16 s for it), the second must finish.
# Last, the streamed front door: a corpus of the same size cut into 16
# sources, `ingest`ed one file at a time under snm-resolved and under
# blocking inside the same 1 GiB, its merged result diffed against the
# one-shot `dedup` of the same files.
#
#   cargo build --release && scripts/scale_smoke.sh
#
# Environment: BIN overrides the binary under test (default
# target/release/probdedup); ENTITIES / SHARDS / BUDGET override the
# corpus size, shard count and memory budget.
set -euo pipefail

BIN=${BIN:-target/release/probdedup}
ENTITIES=${ENTITIES:-20000}
SHARDS=${SHARDS:-8}
BUDGET=${BUDGET:-1m}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

echo "== generate: $ENTITIES entities across 2 sources"
"$BIN" generate --out-prefix "$WORK/scale" --entities "$ENTITIES" --sources 2 --seed 20100301

COMMON=(--input "$WORK/scale.source0.pxr" --input "$WORK/scale.source1.pxr"
        --reduction snm-alternatives --window 6 --threads 4)

echo "== dedup: unsharded reference"
"$BIN" dedup "${COMMON[@]}" > "$WORK/reference.out"

echo "== dedup: $SHARDS shards under --memory-budget $BUDGET"
"$BIN" dedup "${COMMON[@]}" --shards "$SHARDS" --memory-budget "$BUDGET" \
    > "$WORK/sharded.out"

grep -q "^sharded over $SHARDS shards:" "$WORK/sharded.out" \
    || fail "sharded run did not report shard stats"
grep "^sharded over" "$WORK/sharded.out"

# Routing is stable: the default corpus over the default shard count must
# land exactly where it always has (candidate count and shard skew).
if [[ "$ENTITIES" == 20000 && "$SHARDS" == 8 ]]; then
    expected="sharded over 8 shards: 239831 candidates (skew max 32168 / min 27485)"
    [[ "$(grep "^sharded over" "$WORK/sharded.out")" == "$expected" ]] \
        || fail "shard routing moved: expected '$expected'"
fi

# Everything below the stats line must be byte-identical to the
# unsharded run: same candidates, same decisions, same clusters.
grep -v "^sharded over" "$WORK/sharded.out" > "$WORK/sharded.clean"
diff -u "$WORK/reference.out" "$WORK/sharded.clean" \
    || fail "sharded result differs from the unsharded reference"

echo "PASS: sharded merge identical to the unsharded reference"

echo "== dedup: unsharded under --memory-budget $BUDGET"
"$BIN" dedup "${COMMON[@]}" --memory-budget "$BUDGET" > "$WORK/budgeted.out"
diff -u "$WORK/reference.out" "$WORK/budgeted.out" \
    || fail "budgeted unsharded result differs from the unbudgeted reference"

echo "PASS: unsharded run under the budget identical to the reference"

multipass() { # <entities>: capped snm-multipass run into $WORK/worlds<entities>.out
    echo "== dedup: snm-multipass over $1 entities under ulimit -v 1 GiB"
    "$BIN" generate --out-prefix "$WORK/worlds$1" --entities "$1" --sources 2 \
        --seed 20100301 > /dev/null
    ( ulimit -v 1048576
      "$BIN" dedup --input "$WORK/worlds$1.source0.pxr" --input "$WORK/worlds$1.source1.pxr" \
          --reduction snm-multipass --window 6 --threads 4 > "$WORK/worlds$1.out" ) \
        || fail "snm-multipass over $1 entities did not finish within 1 GiB"
    head -n 1 "$WORK/worlds$1.out"
}

multipass 2000
expected="3842 rows, 19212 candidate pairs compared: 1080 matches, 1194 possible, 16938 non-matches, 661 duplicate clusters"
[[ "$(head -n 1 "$WORK/worlds2000.out")" == "$expected" ]] \
    || fail "world selection moved: expected '$expected'"
multipass 6000

echo "PASS: multi-pass world selection pinned and within 1 GiB"

STREAM_ENTITIES=$((ENTITIES / 8))
echo "== generate: $STREAM_ENTITIES entities across 16 sources"
"$BIN" generate --out-prefix "$WORK/stream" --entities "$STREAM_ENTITIES" --sources 16 \
    --seed 20100301 > /dev/null
STREAM=()
for i in $(seq 0 15); do STREAM+=(--input "$WORK/stream.source$i.pxr"); done

streamed() { # <reduction>: 16-batch ingest vs one-shot dedup, under ulimit -v 1 GiB
    echo "== ingest: 16 batches under --reduction $1, ulimit -v 1 GiB"
    ( ulimit -v 1048576
      "$BIN" dedup "${STREAM[@]}" --reduction "$1" --window 6 --threads 4 \
          > "$WORK/stream-$1.dedup"
      "$BIN" ingest "${STREAM[@]}" --reduction "$1" --window 6 --threads 4 \
          > "$WORK/stream-$1.ingest" ) \
        || fail "streamed $1 run did not finish within 1 GiB"
    grep "^session:" "$WORK/stream-$1.ingest"
    # The result section is everything after the `session:` line.
    sed '1,/^session:/d' "$WORK/stream-$1.ingest" > "$WORK/stream-$1.result"
    diff -u "$WORK/stream-$1.dedup" "$WORK/stream-$1.result" \
        || fail "16-batch ingest under $1 differs from the one-shot dedup"
}

streamed snm-resolved
streamed blocking

echo "PASS: 16-batch streamed ingest identical to one-shot dedup within 1 GiB"
