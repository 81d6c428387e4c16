#!/bin/sh
# Smoke test of the mosaicd job service: build the daemon, start it on a
# local port, submit a tiny optimization over HTTP, poll it to completion,
# assert a numeric score and a PGM mask, resubmit it and require a cache
# hit with the same mask bytes, then shut the daemon down with SIGTERM
# mid-job and require a clean drain and a resumed job. Needs only curl
# and a POSIX shell.
set -eu

PORT="${PORT:-18321}"
BASE="http://127.0.0.1:$PORT"
DIR="$(mktemp -d)"
PID=""
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null; rm -rf "$DIR"' EXIT INT TERM

echo "smoke: building mosaicd"
go build -o "$DIR/mosaicd" ./cmd/mosaicd

"$DIR/mosaicd" -addr "127.0.0.1:$PORT" -grid 64 \
    -checkpoint-dir "$DIR/ckpt" -log-level warn >"$DIR/mosaicd.log" 2>&1 &
PID=$!

ok=""
for _ in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.2
done
[ -n "$ok" ] || { echo "smoke: daemon never became healthy" >&2; cat "$DIR/mosaicd.log" >&2; exit 1; }

metric() {
    v=$(curl -fsS "$BASE/metrics" | awk -v m="$1" '$1 == m { print $2 }')
    echo "${v:-0}"
}

# run_b1 MASKFILE: submit the tiny B1 job, poll it to completion, fetch
# its mask; leaves the job id in ID.
run_b1() {
    ID=$(curl -fsS -X POST "$BASE/v1/jobs" \
            -d '{"benchmark":"B1","mode":"fast","max_iter":2}' \
        | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
    [ -n "$ID" ] || { echo "smoke: submit returned no job id" >&2; exit 1; }
    STATE=""
    for _ in $(seq 1 300); do
        STATE=$(curl -fsS "$BASE/v1/jobs/$ID" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
        case "$STATE" in done|failed|canceled) break ;; esac
        sleep 0.2
    done
    if [ "$STATE" != done ]; then
        echo "smoke: job ended in state '$STATE'" >&2
        curl -fsS "$BASE/v1/jobs/$ID" >&2 || true
        exit 1
    fi
    curl -fsS -o "$1" "$BASE/v1/jobs/$ID/mask"
}

run_b1 "$DIR/mask.pgm"
echo "smoke: submitted job $ID"

SCORE=$(curl -fsS "$BASE/v1/jobs/$ID/result" \
    | sed -n 's/.*"score":\([0-9][0-9.eE+-]*\).*/\1/p')
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
ID2=$(curl -fsS -X POST "$BASE/v1/jobs" \
        -d '{"benchmark":"B1","mode":"fast","max_iter":1000}' \
    | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$ID2" ] || { echo "smoke: second submit returned no job id" >&2; exit 1; }
for _ in $(seq 1 100); do
    STATE=$(curl -fsS "$BASE/v1/jobs/$ID2" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    [ "$STATE" = running ] && break
    sleep 0.1
done
[ "$STATE" = running ] || { echo "smoke: long job never started ($STATE)" >&2; exit 1; }

kill -TERM "$PID"
wait "$PID" || { echo "smoke: daemon exited non-zero after SIGTERM" >&2; cat "$DIR/mosaicd.log" >&2; exit 1; }
PID=""
[ -f "$DIR/ckpt/$ID2.job" ] || { echo "smoke: drain left no checkpoint for $ID2" >&2; exit 1; }
echo "smoke: drained with job $ID2 checkpointed"

"$DIR/mosaicd" -addr "127.0.0.1:$PORT" -grid 64 \
    -checkpoint-dir "$DIR/ckpt" -log-level warn >>"$DIR/mosaicd.log" 2>&1 &
PID=$!
for _ in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
done

STATE=""
for _ in $(seq 1 600); do
    BODY=$(curl -fsS "$BASE/v1/jobs/$ID2") || BODY=""
    STATE=$(printf '%s' "$BODY" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    case "$STATE" in done|failed|canceled) break ;; esac
    sleep 0.2
done
if [ "$STATE" != done ]; then
    echo "smoke: resumed job ended in state '$STATE'" >&2
    printf '%s\n' "$BODY" >&2
    exit 1
fi
printf '%s' "$BODY" | grep -q '"resumed":true' || {
    echo "smoke: finished job does not report resumed:true" >&2; exit 1; }
echo "smoke: job $ID2 resumed after restart and finished"

kill -TERM "$PID"
wait "$PID" || { echo "smoke: daemon exited non-zero after final SIGTERM" >&2; exit 1; }
PID=""
echo "smoke: ok"
