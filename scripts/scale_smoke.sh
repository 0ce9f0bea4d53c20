#!/usr/bin/env bash
# Scale smoke test of the one-shot front door and the session, driven
# through the release CLI the way an operator would: generate a 20k-entity
# two-source corpus and dedup it in one shot; for the default corpus the
# summary line is pinned to the recorded one. Then
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
# target/release/probdedup); ENTITIES overrides the corpus size.
set -euo pipefail

BIN=${BIN:-target/release/probdedup}
ENTITIES=${ENTITIES:-20000}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

echo "== generate: $ENTITIES entities across 2 sources"
"$BIN" generate --out-prefix "$WORK/scale" --entities "$ENTITIES" --sources 2 --seed 20100301

echo "== dedup: one shot"
"$BIN" dedup --input "$WORK/scale.source0.pxr" --input "$WORK/scale.source1.pxr" \
    --reduction snm-alternatives --window 6 --threads 4 > "$WORK/scale.out"
head -n 1 "$WORK/scale.out"

# The default corpus must reduce, match and cluster exactly as recorded.
if [[ "$ENTITIES" == 20000 ]]; then
    expected="38311 rows, 239831 candidate pairs compared: 7687 matches, 22661 possible, 209483 non-matches, 4634 duplicate clusters"
    [[ "$(head -n 1 "$WORK/scale.out")" == "$expected" ]] \
        || fail "one-shot dedup moved: expected '$expected'"
fi

echo "PASS: one-shot dedup over $ENTITIES entities pinned"

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
