#!/bin/sh
# Smoke test of the mosaicd job service: build the daemon, start it on a
# local port, submit a tiny optimization over HTTP, poll it to completion,
# assert a numeric score and a PGM mask, resubmit it and require a cache
# hit with the same mask bytes, then shut the daemon down with SIGTERM
# after the first window of a sharded job and require a clean drain, a
# resumed job (checkpointed under <cache-dir>/jobs) and that window served
# from the cache's disk tier. The
# daemon runs with -trace: after the drain its file must be a closed
# Perfetto array holding the jobs' serve.job spans. Needs only curl, grep
# and a POSIX shell.
set -eu

. "$(dirname "$0")/lib.sh"

PORT="${PORT:-18321}"
BASE="http://127.0.0.1:$PORT"
smoke_init smoke
LOG="$DIR/mosaicd.log"

# A drain checkpoints into the jobs/ directory of the -cache-dir tier, where
# a resumed job also finds the windows it finished.
CKPT="$DIR/cache/jobs"

start() {
    start_daemon "$PORT" "$LOG" -grid 64 \
        -cache-dir "$DIR/cache" -artifact-dir "$DIR/art" -log-level warn \
        -trace "$DIR/trace.json"
}

start

# run_b1 MASKFILE: submit the tiny B1 job, poll it to completion, fetch
# its mask; leaves the job id in ID.
run_b1() {
    ID=$(submit '{"benchmark":"B1","mode":"fast","max_iter":2}')
    wait_done "$ID"
    curl -fsS -o "$1" "$BASE/v1/jobs/$ID/mask"
}

run_b1 "$DIR/mask.pgm"
echo "smoke: submitted job $ID"

SCORE=$(json_num "$(curl -fsS "$BASE/v1/jobs/$ID/result")" score)
case "$SCORE" in
    ''|*[!0-9.eE+-]*) echo "smoke: result has no numeric score" >&2; exit 1 ;;
esac
echo "smoke: job done, score $SCORE"

MAGIC=$(head -c 2 "$DIR/mask.pgm")
[ "$MAGIC" = "P5" ] || { echo "smoke: mask is not a PGM (got '$MAGIC')" >&2; exit 1; }

# The same clip again: an untiled job is one window of the same pipeline
# as a sharded one, so the daemon's default memory cache serves it.
HITS1=$(metric cache_hits_total)
run_b1 "$DIR/mask2.pgm"
HITS2=$(metric cache_hits_total)
[ "$HITS2" -gt "$HITS1" ] || {
    echo "smoke: resubmitted clip missed the cache (hits $HITS1 -> $HITS2)" >&2; exit 1; }
cmp "$DIR/mask.pgm" "$DIR/mask2.pgm" || {
    echo "smoke: cached clip mask differs from the cold run" >&2; exit 1; }
echo "smoke: resubmitted clip served from cache (hits $HITS1 -> $HITS2), mask byte-identical"

# grep without -q so the pipe is read to EOF (curl dies with SIGPIPE noise
# otherwise).
curl -fsS "$BASE/metrics" | grep serve_jobs_done_total >/dev/null || {
    echo "smoke: /metrics lacks serve counters" >&2; exit 1; }

# Phase 2: drain a sharded job and resume it. Its windows run one at a
# time; SIGTERM the daemon once the first is done, and check a restarted
# daemon picks the job up from its checkpoint, is served that window from
# the disk cache and finishes the rest.
ID2=$(submit '{"benchmark":"B1","mode":"fast","max_iter":400,"tile_nm":512,"tile_workers":1}')
DONE=0
for _ in $(seq 1 600); do
    DONE=$(json_num "$(curl -fsS "$BASE/v1/jobs/$ID2")" tiles_done)
    [ "${DONE:-0}" -ge 1 ] && break
    sleep 0.1
done
[ "${DONE:-0}" -ge 1 ] || die "sharded job never finished a window"
[ "$(job_state "$ID2")" = running ] || die "sharded job finished before the drain; raise max_iter"

stop_daemon "$PID" "$LOG"
[ -f "$CKPT/$ID2.job" ] || { echo "smoke: drain left no checkpoint for $ID2" >&2; exit 1; }
# Finished windows live in the cache: the drain writes the .job and nothing
# beside it, no per-iteration snapshot and no tile journal.
for ext in snap journal; do
    [ ! -e "$CKPT/$ID2.$ext" ] || die "drain wrote a .$ext for $ID2"
done
echo "smoke: drained with job $ID2 checkpointed after $DONE window(s)"

# The drain ran the daemon's exit path, so -trace closed its array: "[" and
# "]" on lines of their own, the spans of the jobs it ran in between.
TRACE="$DIR/trace.json"
LAST=$(grep -c '' "$TRACE")
[ "$(grep -n -x '\[' "$TRACE")" = "1:[" ] && [ "$(grep -n -x ']' "$TRACE")" = "$LAST:]" ] ||
    die "-trace file does not open with [ and close with ]"
grep '"name":"serve.job"' "$TRACE" >/dev/null || die "-trace file holds no serve.job span"
echo "smoke: -trace file is a closed Perfetto array with serve.job spans"

start
wait_done "$ID2"
curl -fsS "$BASE/v1/jobs/$ID2" | grep '"resumed":true' >/dev/null || {
    echo "smoke: finished job does not report resumed:true" >&2; exit 1; }
LEAF0=$(curl -fsS "$BASE/v1/jobs/$ID2/provenance" | grep -o '"index":0,[^}]*') || true
case "$LEAF0" in
    *'"tier":"disk"'*) ;;
    *) die "resumed job's first window was not served from the disk cache: $LEAF0" ;;
esac
[ -z "$(find "$CKPT" -name '*.journal')" ] || die "a tile journal was written"
echo "smoke: job $ID2 resumed after restart, its first window a disk-cache hit"

stop_daemon "$PID" "$LOG"
echo "smoke: ok"
