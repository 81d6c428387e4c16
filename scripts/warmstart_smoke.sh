#!/bin/sh
# Smoke test of the warm-start pattern library behind mosaicd:
# a run against an empty library must be byte-identical to one with
# warm-start disabled; a translated repeat of a harvested cell must be
# seeded from the library (hit counters rise) and score no worse than
# the cold run; a corrupt on-disk entry must be quarantined across a
# restart and recomputed, never failing a job. The daemon runs with the
# tile cache fully off (-cache-mem 0, no -cache-dir) so cache hits
# cannot mask what the warm-start path does. Needs only curl and a
# POSIX shell.
set -eu

PORT="${PORT:-18351}"
BASE="http://127.0.0.1:$PORT"
DIR="$(mktemp -d)"
PID=""
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null; rm -rf "$DIR"' EXIT INT TERM

echo "warmstart-smoke: building mosaicd"
go build -o "$DIR/mosaicd" ./cmd/mosaicd

# start_daemon [extra flags...]: the tile cache stays off in every
# configuration; warm-start flags are appended by the caller.
start_daemon() {
    "$DIR/mosaicd" -addr "127.0.0.1:$PORT" -grid 64 -cache-mem 0 \
        -log-level warn "$@" >>"$DIR/mosaicd.log" 2>&1 &
    PID=$!
    ok=""
    for _ in $(seq 1 50); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then ok=1; break; fi
        sleep 0.2
    done
    [ -n "$ok" ] || {
        echo "warmstart-smoke: daemon never became healthy" >&2
        cat "$DIR/mosaicd.log" >&2; exit 1; }
}

stop_daemon() {
    kill -TERM "$PID"
    wait "$PID" || {
        echo "warmstart-smoke: daemon exited non-zero" >&2
        cat "$DIR/mosaicd.log" >&2; exit 1; }
    PID=""
}

metric() {
    v=$(curl -fsS "$BASE/metrics" | awk -v m="$1" '$1 == m { print $2 }')
    echo "${v:-0}"
}

# The same two-bar cell at its base placement and shifted one pixel
# (+8 nm): an untiled 512 nm window on the 64 px grid.
LAYOUT_BASE='CLIP warm-smoke 512\nRECT 160 144 96 224\nRECT 312 144 56 224'
LAYOUT_SHIFT='CLIP warm-smoke 512\nRECT 168 152 96 224\nRECT 320 152 56 224'

# run_job LAYOUT MASKFILE: submit the untiled job, wait for completion,
# fetch its mask, and print the result summary JSON.
run_job() {
    ID=$(curl -fsS -X POST "$BASE/v1/jobs" \
            -d "{\"layout\":\"$1\",\"mode\":\"fast\",\"max_iter\":6,\"grid\":64,\"tile_workers\":1}" \
        | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
    [ -n "$ID" ] || { echo "warmstart-smoke: submit returned no job id" >&2; exit 1; }
    STATE=""
    for _ in $(seq 1 600); do
        STATE=$(curl -fsS "$BASE/v1/jobs/$ID" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
        case "$STATE" in done|failed|canceled) break ;; esac
        sleep 0.2
    done
    if [ "$STATE" != done ]; then
        echo "warmstart-smoke: job $ID ended in state '$STATE'" >&2
        curl -fsS "$BASE/v1/jobs/$ID" >&2 || true
        exit 1
    fi
    curl -fsS -o "$2" "$BASE/v1/jobs/$ID/mask"
    curl -fsS "$BASE/v1/jobs/$ID/result"
}

score_of() {
    echo "$1" | sed -n 's/.*"score":\([0-9.eE+-]*\).*/\1/p'
}

# --- 1. Disabled vs empty library: byte-identical masks -----------------
start_daemon
R0=$(run_job "$LAYOUT_BASE" "$DIR/mask-disabled.pgm")
SCORE0=$(score_of "$R0")
stop_daemon
echo "warmstart-smoke: disabled run done (score=$SCORE0)"

start_daemon -warm-lib "$DIR/lib"
R1=$(run_job "$LAYOUT_BASE" "$DIR/mask-empty.pgm")
cmp "$DIR/mask-disabled.pgm" "$DIR/mask-empty.pgm" || {
    echo "warmstart-smoke: empty-library mask differs from disabled run" >&2; exit 1; }
MISSES=$(metric warmstart_misses_total)
HARVESTED=$(metric warmstart_harvested_total)
[ "$MISSES" -gt 0 ] && [ "$HARVESTED" -gt 0 ] || {
    echo "warmstart-smoke: empty library did not miss+harvest (misses=$MISSES harvested=$HARVESTED)" >&2; exit 1; }
ENTRY=$(find "$DIR/lib" -name '*.mwe' | head -1)
[ -n "$ENTRY" ] || { echo "warmstart-smoke: harvest wrote no durable entry" >&2; exit 1; }
echo "warmstart-smoke: empty-library run byte-identical to disabled, harvested $HARVESTED entry(ies)"

# --- 2. Translated repeat: seeded, scores no worse ----------------------
R2=$(run_job "$LAYOUT_SHIFT" "$DIR/mask-seeded.pgm")
SCORE2=$(score_of "$R2")
HITS=$(metric warmstart_hits_total)
[ "$HITS" -gt 0 ] || {
    echo "warmstart-smoke: translated repeat never hit the library (hits=$HITS)" >&2; exit 1; }
awk -v a="$SCORE2" -v b="$SCORE0" 'BEGIN { exit !(a <= b) }' || {
    echo "warmstart-smoke: seeded run scored $SCORE2, worse than cold $SCORE0" >&2; exit 1; }
echo "warmstart-smoke: translated repeat seeded (hits=$HITS), score $SCORE2 <= cold $SCORE0"
stop_daemon

# --- 3. Corrupt entry: quarantined across restart, job still succeeds ---
printf 'CORRUPT' >>"$ENTRY"
echo "warmstart-smoke: corrupted $(basename "$ENTRY")"
start_daemon -warm-lib "$DIR/lib"
R3=$(run_job "$LAYOUT_SHIFT" "$DIR/mask-recovered.pgm")
CORRUPT=$(metric warmstart_corrupt_total)
[ "$CORRUPT" -gt 0 ] || {
    echo "warmstart-smoke: corrupt entry was not detected (warmstart_corrupt_total=$CORRUPT)" >&2; exit 1; }
QUARANTINED=$(find "$DIR/lib" -name '*.corrupt' | head -1)
[ -n "$QUARANTINED" ] || { echo "warmstart-smoke: corrupt entry not quarantined" >&2; exit 1; }
REHARVESTED=$(metric warmstart_harvested_total)
[ "$REHARVESTED" -gt 0 ] || {
    echo "warmstart-smoke: quarantined pattern was not recomputed and re-harvested" >&2; exit 1; }
echo "warmstart-smoke: corrupt entry quarantined (warmstart_corrupt_total=$CORRUPT), job recomputed cleanly"

stop_daemon
echo "warmstart-smoke: ok"
