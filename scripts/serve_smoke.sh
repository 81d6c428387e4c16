#!/bin/sh
# Smoke test of the mosaicd job service: build the daemon, start it on a
# local port, submit a tiny optimization over HTTP, poll it to completion,
# assert a numeric score and a PGM mask, resubmit it and require a cache
# hit with the same mask bytes, then shut the daemon down with SIGTERM
# mid-job and require a clean drain and a resumed job. Needs only curl
# and a POSIX shell.
set -eu

. "$(dirname "$0")/lib.sh"

PORT="${PORT:-18321}"
BASE="http://127.0.0.1:$PORT"
smoke_init smoke
LOG="$DIR/mosaicd.log"

start() {
    start_daemon "$PORT" "$LOG" -grid 64 -checkpoint-dir "$DIR/ckpt" -log-level warn
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

# Phase 2: drain mid-job and resume. Submit a long job, SIGTERM the daemon
# while it runs, and check a restarted daemon picks the job up from its
# checkpoint and finishes it.
ID2=$(submit '{"benchmark":"B1","mode":"fast","max_iter":1000}')
for _ in $(seq 1 100); do
    STATE=$(job_state "$ID2")
    [ "$STATE" = running ] && break
    sleep 0.1
done
[ "$STATE" = running ] || { echo "smoke: long job never started ($STATE)" >&2; exit 1; }

stop_daemon "$PID" "$LOG"
[ -f "$DIR/ckpt/$ID2.job" ] || { echo "smoke: drain left no checkpoint for $ID2" >&2; exit 1; }
# The window is the one restart unit: no per-iteration snapshot is written.
[ ! -e "$DIR/ckpt/$ID2.snap" ] || { echo "smoke: drain wrote a snapshot for $ID2" >&2; exit 1; }
echo "smoke: drained with job $ID2 checkpointed"

start
wait_done "$ID2"
curl -fsS "$BASE/v1/jobs/$ID2" | grep '"resumed":true' >/dev/null || {
    echo "smoke: finished job does not report resumed:true" >&2; exit 1; }
echo "smoke: job $ID2 resumed after restart and finished"

stop_daemon "$PID" "$LOG"
echo "smoke: ok"
