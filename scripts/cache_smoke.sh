#!/bin/sh
# Smoke test of the content-addressed tile-result cache behind mosaicd:
# run the same repeated-cell sharded job twice against a daemon with a
# cache directory and assert the second run is served from the cache
# (hit counters rise, miss counters do not) with a byte-identical mask.
# Then corrupt an on-disk entry, restart the daemon, and assert the
# damage is quarantined and recomputed — same mask, no failed job.
# Needs only curl and a POSIX shell.
set -eu

. "$(dirname "$0")/lib.sh"

PORT="${PORT:-18331}"
BASE="http://127.0.0.1:$PORT"
smoke_init cache-smoke
LOG="$DIR/mosaicd.log"

start() {
    start_daemon "$PORT" "$LOG" -grid 64 -cache-dir "$DIR/cache" -log-level warn
}

# A 1024 nm clip holding the same two-bar cell at (0,0) and (+512,+512):
# a 512 nm tiling turns the repetition into cache reuse.
LAYOUT='CLIP cache-smoke 1024\nRECT 160 144 96 224\nRECT 312 144 56 224\nRECT 672 656 96 224\nRECT 824 656 56 224'

# run_job MASKFILE: submit the sharded repeated-cell job, wait for it,
# fetch its mask.
run_job() {
    ID=$(submit "{\"layout\":\"$LAYOUT\",\"mode\":\"fast\",\"max_iter\":2,\"grid\":64,\"tile_nm\":512,\"tile_workers\":1}")
    wait_done "$ID"
    curl -fsS -o "$1" "$BASE/v1/jobs/$ID/mask"
}

start

run_job "$DIR/mask1.pgm"
HITS1=$(metric cache_hits_total)
MISSES1=$(metric cache_misses_total)
[ "$MISSES1" -gt 0 ] || {
    echo "cache-smoke: cold run populated nothing (misses=$MISSES1)" >&2; exit 1; }
echo "cache-smoke: cold run done (misses=$MISSES1 hits=$HITS1)"

run_job "$DIR/mask2.pgm"
HITS2=$(metric cache_hits_total)
MISSES2=$(metric cache_misses_total)
[ "$MISSES2" -eq "$MISSES1" ] || {
    echo "cache-smoke: warm run re-optimized tiles (misses $MISSES1 -> $MISSES2)" >&2; exit 1; }
[ "$HITS2" -gt "$HITS1" ] || {
    echo "cache-smoke: warm run missed the cache (hits $HITS1 -> $HITS2)" >&2; exit 1; }
cmp "$DIR/mask1.pgm" "$DIR/mask2.pgm" || {
    echo "cache-smoke: cached mask differs from the cold run" >&2; exit 1; }
echo "cache-smoke: warm run served from cache (hits $HITS1 -> $HITS2), mask byte-identical"

# Durable-tier damage: corrupt one entry while the daemon is down (a
# restart empties the memory tier, forcing the disk read), then require
# quarantine + recompute instead of a failed job or a wrong mask.
stop_daemon "$PID" "$LOG"
ENTRY=$(find "$DIR/cache" -name '*.mtc' | head -1)
[ -n "$ENTRY" ] || { echo "cache-smoke: no durable entries written" >&2; exit 1; }
printf 'CORRUPT' >>"$ENTRY"
echo "cache-smoke: corrupted $(basename "$ENTRY")"

start
run_job "$DIR/mask3.pgm"
CORRUPT=$(metric cache_corrupt_total)
[ "$CORRUPT" -gt 0 ] || {
    echo "cache-smoke: corrupt entry was not detected (cache_corrupt_total=$CORRUPT)" >&2; exit 1; }
QUARANTINED=$(find "$DIR/cache" -name '*.corrupt' | head -1)
[ -n "$QUARANTINED" ] || { echo "cache-smoke: corrupt entry not quarantined" >&2; exit 1; }
cmp "$DIR/mask1.pgm" "$DIR/mask3.pgm" || {
    echo "cache-smoke: recovered mask differs from the cold run" >&2; exit 1; }
HITS3=$(metric cache_hits_total)
[ "$HITS3" -gt 0 ] || {
    echo "cache-smoke: restarted daemon served nothing from disk" >&2; exit 1; }
echo "cache-smoke: corrupt entry quarantined and recomputed (cache_corrupt_total=$CORRUPT), mask byte-identical"

stop_daemon "$PID" "$LOG"
echo "cache-smoke: ok"
