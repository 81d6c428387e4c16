#!/bin/sh
# Smoke test of the warm-start pattern library behind mosaicd:
# a run against an empty library must be byte-identical to one with
# warm-start disabled; a translated repeat of a harvested cell must be
# seeded from the library (hit counters rise) and score no worse than
# the cold run, runtime aside; a corrupt on-disk entry must be quarantined across a
# restart and recomputed, never failing a job. Those three steps run the
# daemon with the tile cache fully off (-cache-mem 0, no -cache-dir) so
# cache hits cannot mask what the warm-start path does. A last step
# restarts it with a disk cache and a fresh library beside it: an exact
# repeat of a job must then be served from the cache (its /provenance
# reads computed: 0) with the first job's mask, not seeded from its own
# harvest. Needs only curl and a POSIX shell.
set -eu

. "$(dirname "$0")/lib.sh"

PORT="${PORT:-18351}"
BASE="http://127.0.0.1:$PORT"
smoke_init warmstart-smoke
LOG="$DIR/mosaicd.log"

# start [extra flags...]: the tile cache's memory tier stays off in every
# configuration; warm-start and store flags are appended by the caller.
start() {
    start_daemon "$PORT" "$LOG" -grid 64 -cache-mem 0 -log-level warn "$@"
}

# The same two-bar cell at its base placement and shifted one pixel
# (+8 nm): an untiled 512 nm window on the 64 px grid.
LAYOUT_BASE='CLIP warm-smoke 512\nRECT 160 144 96 224\nRECT 312 144 56 224'
LAYOUT_SHIFT='CLIP warm-smoke 512\nRECT 168 152 96 224\nRECT 320 152 56 224'

# run_job LAYOUT MASKFILE: submit the untiled job, wait for completion,
# fetch its mask, and print the result summary JSON.
run_job() {
    ID=$(submit "{\"layout\":\"$1\",\"mode\":\"fast\",\"max_iter\":6,\"grid\":64,\"tile_workers\":1}")
    wait_done "$ID"
    curl -fsS -o "$2" "$BASE/v1/jobs/$ID/mask"
    curl -fsS "$BASE/v1/jobs/$ID/result"
}

# quality RESULT: the score without its runtime term — a few ms of wall
# time are all that tells two runs of equal quality apart, and which of
# them is slower is the host's doing.
quality() {
    awk -v s="$(json_num "$1" score)" -v t="$(json_num "$1" runtime_sec)" 'BEGIN { printf "%.6f\n", s - t }'
}

# --- 1. Disabled vs empty library: byte-identical masks -----------------
start
R0=$(run_job "$LAYOUT_BASE" "$DIR/mask-disabled.pgm")
SCORE0=$(quality "$R0")
stop_daemon "$PID" "$LOG"
echo "warmstart-smoke: disabled run done (score=$SCORE0)"

start -warm-lib "$DIR/lib"
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
SCORE2=$(quality "$R2")
HITS=$(metric warmstart_hits_total)
[ "$HITS" -gt 0 ] || {
    echo "warmstart-smoke: translated repeat never hit the library (hits=$HITS)" >&2; exit 1; }
awk -v a="$SCORE2" -v b="$SCORE0" 'BEGIN { exit !(a <= b) }' || {
    echo "warmstart-smoke: seeded run scored $SCORE2, worse than cold $SCORE0" >&2; exit 1; }
echo "warmstart-smoke: translated repeat seeded (hits=$HITS), score $SCORE2 <= cold $SCORE0"
stop_daemon "$PID" "$LOG"

# --- 3. Corrupt entry: quarantined across restart, job still succeeds ---
printf 'CORRUPT' >>"$ENTRY"
echo "warmstart-smoke: corrupted $(basename "$ENTRY")"
start -warm-lib "$DIR/lib"
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

stop_daemon "$PID" "$LOG"

# --- 4. Exact repeat beside a cache: a lookup, the same mask -------------
start -cache-dir "$DIR/cache" -artifact-dir "$DIR/artifacts" -warm-lib "$DIR/lib-cached"
run_job "$LAYOUT_BASE" "$DIR/mask-first.pgm" >/dev/null
run_job "$LAYOUT_BASE" "$DIR/mask-repeat.pgm" >/dev/null # leaves its job id in ID
PROV=$(curl -fsS "$BASE/v1/jobs/$ID/provenance")
case "$PROV" in
    *'"computed":0,'*) ;;
    *) die "exact repeat recomputed beside a cache: $PROV" ;;
esac
cmp "$DIR/mask-first.pgm" "$DIR/mask-repeat.pgm" || die "exact repeat's mask differs from the first job's"
echo "warmstart-smoke: exact repeat served from the cache (computed: 0), mask identical"

stop_daemon "$PID" "$LOG"
echo "warmstart-smoke: ok"
