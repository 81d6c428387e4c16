#!/bin/sh
# Multi-process smoke test of the cluster: run a sharded job on a lone
# coordinator (local fallback) as the reference, then rerun it on a
# coordinator with two joined workers, SIGKILL one worker mid-run, and
# require the cluster's stitched mask — the binary PGM and the raw
# continuous raster — to be byte-identical to the reference, lease
# reassignment and all. The workers run under GOMAXPROCS 1 and 3, so the
# comparison spans three core counts. An untiled clip job goes the
# same way: it is one window of the same pipeline, so with a worker joined
# it must run remotely and still equal the local mask. Both daemons anchor
# their jobs in an artifact store, and the quality side-cars the cluster
# run leaves beside its records must be the files the local run left: same
# names (same Merkle roots and manifests), same bytes. Last, a sharded job
# whose geometry sits in one corner ships only that window: its three empty
# windows are served without counting as tiles run locally. The surviving
# worker's own /metrics must count the tiles it ran. Needs only curl, cmp,
# diff, and a POSIX shell.
#
# The cluster run also exercises the tracing surface: a live SSE
# subscriber must observe per-iteration telemetry, and the assembled
# Perfetto trace (written to $TRACE_OUT, default inside the temp dir)
# must hold every tile's spans — including the reassigned ones — under
# one job trace ID.
set -eu

. "$(dirname "$0")/lib.sh"

PORT_C="${PORT_C:-18331}"
PORT_W1="${PORT_W1:-18332}"
PORT_W2="${PORT_W2:-18333}"
BASE="http://127.0.0.1:$PORT_C"
smoke_init cluster-smoke

# A 1024 nm clip sharding 2x2 at 512 nm with geometry in every quadrant,
# sized so each tile runs long enough to be killed mid-flight.
SPEC='{"layout":"CLIP cluster-smoke 1024\nRECT 300 470 424 84\nRECT 100 100 160 90\nRECT 700 760 180 96\nRECT 680 180 110 110\nRECT 140 720 130 100\n","mode":"fast","max_iter":120,"tile_nm":512,"tile_workers":4}'

# The same clip untiled: one window covering the whole 1024 nm field.
CLIP_SPEC='{"layout":"CLIP cluster-smoke 1024\nRECT 300 470 424 84\nRECT 100 100 160 90\nRECT 700 760 180 96\nRECT 680 180 110 110\nRECT 140 720 130 100\n","mode":"fast","max_iter":20}'

# A 2x2 sharding whose one RECT lies within 150 nm of a corner: the other
# three windows (which start 256 nm from it at -grid 64) hold no geometry.
CORNER_SPEC='{"layout":"CLIP cluster-corner 1024\nRECT 40 40 90 80\n","mode":"fast","max_iter":4,"tile_nm":512}'

# A window runs once: the scheduler's retry knob is gone, and the flag that
# set it is refused (-version makes a daemon that still took it exit 0).
for knob in retries; do
    if "$DIR/mosaicd" "-tile-$knob" 1 -version >"$DIR/gone.log" 2>&1; then
        die "mosaicd accepted -tile-$knob"
    fi
done

# fetch_masks ID STEM: the job's binary mask as $DIR/STEM.pgm and its raw
# continuous mask (one MTGF frame of float64 bits) as $DIR/STEM.gray.
fetch_masks() {
    curl -fsS -o "$DIR/$2.pgm" "$BASE/v1/jobs/$1/mask"
    curl -fsS -H 'Accept: application/vnd.mosaic.maskgray' -o "$DIR/$2.gray" "$BASE/v1/jobs/$1/mask"
}

# same_masks STEM1 STEM2 WHAT: both renderings byte-identical, or exit.
same_masks() {
    for ext in pgm gray; do
        cmp -s "$DIR/$1.$ext" "$DIR/$2.$ext" || die "$3 differs from the local reference (.$ext)"
    done
}

# ---- Reference: the same daemon with no workers joined (local fallback).
start_daemon "$PORT_C" "$DIR/ref.log" -grid 64 \
    -checkpoint-dir "$DIR/ckpt-ref" -cache-dir "$DIR/cache-ref" -artifact-dir "$DIR/art-ref" \
    -log-level info

ID=$(submit "$SPEC")
echo "cluster-smoke: reference job $ID running locally"
wait_done "$ID"
fetch_masks "$ID" ref
IDC=$(submit "$CLIP_SPEC")
wait_done "$IDC"
fetch_masks "$IDC" ref-clip
stop_daemon "$PID" "$DIR/ref.log"

# ---- Cluster: coordinator + 2 workers, one of which dies mid-run.
start_daemon "$PORT_C" "$DIR/coord.log" -grid 64 \
    -checkpoint-dir "$DIR/ckpt-cluster" -cache-dir "$DIR/cache-cluster" -artifact-dir "$DIR/art-cluster" \
    -heartbeat-ttl 3s -log-level info
COORD_PID=$PID

# The fleet is heterogeneous: neither worker has the coordinator's core
# count, and the bits must not notice.
export GOMAXPROCS=1
spawn_daemon "$DIR/worker1.log" -worker -join "$BASE" -addr "127.0.0.1:$PORT_W1" -workers 2 \
    -log-level info
W1_PID=$PID
export GOMAXPROCS=3
spawn_daemon "$DIR/worker2.log" -worker -join "$BASE" -addr "127.0.0.1:$PORT_W2" -workers 2 \
    -log-level info
W2_PID=$PID
unset GOMAXPROCS

i=0
while [ "$i" -lt 50 ]; do
    FLEET=$(curl -fsS "$BASE/v1/cluster/workers" 2>/dev/null | grep -o '"id"' | wc -l)
    [ "$FLEET" -eq 2 ] && break
    i=$((i + 1)); sleep 0.2
done
[ "$FLEET" -eq 2 ] || { echo "cluster-smoke: fleet stuck at $FLEET workers, want 2" >&2; cat "$DIR/coord.log" >&2; exit 1; }
echo "cluster-smoke: 2 workers joined"

ID2=$(submit "$SPEC")

# Subscribe to the job's live event stream for the whole run; the stream
# closes itself when the job reaches a terminal state.
curl -sN --max-time 300 "$BASE/v1/jobs/$ID2/events" >"$DIR/sse.log" 2>/dev/null &
SSE_PID=$!
PIDS="$PIDS $SSE_PID"

# SIGKILL worker 1 once all four tile leases are granted: with the
# per-worker caps the fleet balances two tiles onto each worker, so the
# victim is guaranteed to die holding leases mid-tile.
i=0
LEASES=""
while [ "$i" -lt 600 ]; do
    LEASES=$(metric cluster_leases_granted_total)
    [ "$LEASES" -ge 4 ] && break
    i=$((i + 1)); sleep 0.1
done
[ "$LEASES" -ge 4 ] || { echo "cluster-smoke: tile leases were never granted" >&2; cat "$DIR/coord.log" >&2; exit 1; }
kill -9 "$W1_PID"
echo "cluster-smoke: SIGKILLed worker 1 holding live leases ($LEASES granted)"

wait_done "$ID2"
fetch_masks "$ID2" cluster
same_masks ref cluster "cluster mask"
echo "cluster-smoke: cluster mask, binary and continuous, is byte-identical to the local run"

grep -E "worker removed|reassigning tile" "$DIR/coord.log" >/dev/null || {
    echo "cluster-smoke: coordinator log shows no lease reassignment after the SIGKILL" >&2
    cat "$DIR/coord.log" >&2
    exit 1
}
curl -fsS "$BASE/metrics" | grep -E 'cluster_tiles_remote_total [1-9]' >/dev/null || {
    echo "cluster-smoke: no tiles ran remotely; the fleet was never used" >&2
    exit 1
}
echo "cluster-smoke: lease reassignment and remote execution confirmed"

# A worker serves its own counters on its own port, as the coordinator does.
W2_TILES=$(BASE="http://127.0.0.1:$PORT_W2"; metric cluster_worker_tiles_total)
[ "$W2_TILES" -ge 1 ] || die "surviving worker's /metrics reads cluster_worker_tiles_total $W2_TILES, want >= 1"
echo "cluster-smoke: surviving worker's /metrics counts $W2_TILES tile(s)"

# ---- An untiled job is dispatched too (worker 2 is still in the fleet).
REMOTE1=$(metric cluster_tiles_remote_total)
IDC2=$(submit "$CLIP_SPEC")
wait_done "$IDC2"
REMOTE2=$(metric cluster_tiles_remote_total)
[ "$REMOTE2" -gt "$REMOTE1" ] || {
    echo "cluster-smoke: untiled job did not run remotely (cluster_tiles_remote_total $REMOTE1 -> $REMOTE2)" >&2
    exit 1
}
fetch_masks "$IDC2" cluster-clip
same_masks ref-clip cluster-clip "remotely run clip mask"
echo "cluster-smoke: untiled job ran on the fleet (remote tiles $REMOTE1 -> $REMOTE2), masks byte-identical"

# ---- Both runs anchored the same work, so they left the same side-cars.
[ "$(find "$DIR/art-ref/quality" -name '*.mtq' | wc -l)" -eq 2 ] || {
    echo "cluster-smoke: reference store does not hold one quality side-car per job" >&2
    exit 1
}
diff -r "$DIR/art-ref/quality" "$DIR/art-cluster/quality" >/dev/null || {
    echo "cluster-smoke: cluster run's quality side-cars differ from the local run's" >&2
    diff -r "$DIR/art-ref/quality" "$DIR/art-cluster/quality" >&2 || true
    exit 1
}
echo "cluster-smoke: quality side-cars are byte-identical to the local run's"

# ---- Tracing: the live stream saw the optimizer converge...
wait "$SSE_PID" 2>/dev/null || true
grep -q '^event: iteration' "$DIR/sse.log" || {
    echo "cluster-smoke: SSE subscriber saw no iteration events" >&2
    cat "$DIR/sse.log" >&2
    exit 1
}
grep -q '"objective"' "$DIR/sse.log" || {
    echo "cluster-smoke: SSE iteration events carry no objective values" >&2
    exit 1
}
echo "cluster-smoke: live SSE stream delivered per-iteration telemetry"

# ...and the assembled trace is one tree: a single trace ID spanning the
# coordinator and both workers, with a worker.tile span for every tile
# even though half of them were reassigned after the SIGKILL.
TRACE_OUT="${TRACE_OUT:-$DIR/cluster_trace.json}"
curl -fsS -o "$TRACE_OUT" "$BASE/v1/jobs/$ID2/trace"
TRACES=$(grep -o '"trace_id":"[0-9a-f]*"' "$TRACE_OUT" | sort -u | wc -l)
[ "$TRACES" -eq 1 ] || {
    echo "cluster-smoke: trace holds $TRACES distinct trace IDs, want exactly 1" >&2
    exit 1
}
TILE_LANES=$(grep -o '"name":"worker.tile","ph":"X","ts":[0-9]*,"dur":[0-9]*,"pid":[0-9]*,"tid":[0-9]*' "$TRACE_OUT" \
    | grep -o '"tid":[0-9]*' | sort -u | wc -l)
[ "$TILE_LANES" -ge 4 ] || {
    echo "cluster-smoke: worker.tile spans cover $TILE_LANES tiles, want 4 (reassigned tiles lost their trace)" >&2
    exit 1
}
grep -q '"args":{"name":"http://' "$TRACE_OUT" || {
    echo "cluster-smoke: trace has no worker process lane" >&2
    exit 1
}
grep -q '"name":"cluster.reassign"' "$TRACE_OUT" || {
    echo "cluster-smoke: trace records no tile reassignment" >&2
    exit 1
}
echo "cluster-smoke: assembled trace covers all tiles under one trace ID ($TRACE_OUT)"

# ---- Empty windows are routed once, by the scheduler: never shipped,
# never counted as tiles the coordinator ran for want of a worker.
EMPTY1=$(metric tile_empty_total); REMOTE1=$(metric cluster_tiles_remote_total); LOCAL1=$(metric cluster_tiles_local_total)
IDE=$(submit "$CORNER_SPEC")
wait_done "$IDE"
EMPTY2=$(metric tile_empty_total); REMOTE2=$(metric cluster_tiles_remote_total); LOCAL2=$(metric cluster_tiles_local_total)
[ $((EMPTY2 - EMPTY1)) -eq 3 ] && [ $((REMOTE2 - REMOTE1)) -eq 1 ] && [ "$LOCAL2" -eq "$LOCAL1" ] ||
    die "corner job: tile_empty_total +$((EMPTY2 - EMPTY1)) (want 3), cluster_tiles_remote_total +$((REMOTE2 - REMOTE1)) (want 1), cluster_tiles_local_total +$((LOCAL2 - LOCAL1)) (want 0)"
echo "cluster-smoke: corner job shipped its one window, served its three empty ones without running them"

kill -TERM "$W2_PID" 2>/dev/null || true
stop_daemon "$COORD_PID" "$DIR/coord.log"
echo "cluster-smoke: ok"
