#!/bin/sh
# Smoke test of the two durable stores behind mosaicd, the tile cache
# (-cache-dir) and the Merkle-anchored artifact store (-artifact-dir):
# run a sharded job and assert it fills the cache and its provenance
# record verifies clean end-to-end; re-run the same spec and assert the
# warm run is served from the cache and anchors the *same* manifest
# digest and Merkle root (reproducible provenance); then, while the
# daemon is down, corrupt one stored blob and one cache entry, and
# assert across the restart that /verify detects the damage naming the
# offending leaf while an untouched artifact still verifies clean, and
# that a re-run quarantines the entry, recomputes the same root and
# rewrites the damaged blob, so the artifact verifies clean again.
# Needs only curl and a POSIX shell.
set -eu

. "$(dirname "$0")/lib.sh"

PORT="${PORT:-18341}"
BASE="http://127.0.0.1:$PORT"
smoke_init provenance-smoke
LOG="$DIR/mosaicd.log"

start() {
    start_daemon "$PORT" "$LOG" -grid 64 \
        -artifact-dir "$DIR/artifacts" -cache-dir "$DIR/cache" -log-level warn
}

# Two distinct 1024 nm clips, each sharded into four 512 nm tiles.
LAYOUT_A='CLIP prov-a 1024\nRECT 160 144 96 224\nRECT 312 144 56 224\nRECT 672 656 96 224\nRECT 824 656 56 224'
LAYOUT_B='CLIP prov-b 1024\nRECT 128 128 256 96\nRECT 128 448 256 96\nRECT 640 128 96 256\nRECT 640 640 256 96'

# run_job LAYOUT: submit the sharded job, wait for it, print its id.
run_job() {
    ID=$(submit "{\"layout\":\"$1\",\"mode\":\"fast\",\"max_iter\":2,\"grid\":64,\"tile_nm\":512,\"tile_workers\":1}")
    wait_done "$ID"
    echo "$ID"
}

start

# Cold run: the job anchors an artifact record and it verifies clean.
JOB_A=$(run_job "$LAYOUT_A")
ST_A=$(curl -fsS "$BASE/v1/jobs/$JOB_A")
MAN_A=$(json_str "$ST_A" manifest_digest)
ROOT_A=$(json_str "$ST_A" merkle_root)
[ -n "$MAN_A" ] && [ -n "$ROOT_A" ] || {
    echo "provenance-smoke: done status carries no artifact digests: $ST_A" >&2; exit 1; }
PROV_A=$(curl -fsS "$BASE/v1/jobs/$JOB_A/provenance")
LEAVES_A=$(echo "$PROV_A" | grep -o '"blob":"[0-9a-f]*"' | sed 's/.*"blob":"\(.*\)"/\1/')
[ "$(echo "$LEAVES_A" | wc -l)" -eq 4 ] || {
    echo "provenance-smoke: expected 4 leaves, got: $PROV_A" >&2; exit 1; }
case $(curl -fsS "$BASE/v1/artifacts/$ROOT_A/verify") in
    *'"ok":true'*) ;;
    *) echo "provenance-smoke: clean artifact failed verification" >&2; exit 1 ;;
esac
MISSES1=$(metric cache_misses_total)
HITS1=$(metric cache_hits_total)
[ "$MISSES1" -gt 0 ] || die "cold run populated no cache entry"
echo "provenance-smoke: cold run anchored and verified (root ${ROOT_A%"${ROOT_A#????????}"}…)"

# Warm run: same spec, fresh job, identical digests — provenance
# commits to the computation, not to when or where it ran.
JOB_A2=$(run_job "$LAYOUT_A")
ST_A2=$(curl -fsS "$BASE/v1/jobs/$JOB_A2")
[ "$(json_str "$ST_A2" manifest_digest)" = "$MAN_A" ] || {
    echo "provenance-smoke: warm run changed the manifest digest" >&2; exit 1; }
[ "$(json_str "$ST_A2" merkle_root)" = "$ROOT_A" ] || {
    echo "provenance-smoke: warm run changed the Merkle root" >&2; exit 1; }
# Its scores came from the quality side-car the cold run left beside the
# record — which the verify calls below walk past untouched.
case $(curl -fsS "$BASE/v1/jobs/$JOB_A2/provenance") in
    *'"report":"hit"'*) ;;
    *) echo "provenance-smoke: warm run re-evaluated instead of reading the side-car" >&2; exit 1 ;;
esac
[ "$(find "$DIR/artifacts/quality" -name '*.mtq' | wc -l)" -eq 1 ] || {
    echo "provenance-smoke: expected one quality side-car for the one anchored run" >&2; exit 1; }
[ "$(metric cache_misses_total)" -eq "$MISSES1" ] || die "warm run re-optimized tiles"
[ "$(metric cache_hits_total)" -gt "$HITS1" ] || die "warm run missed the cache"
echo "provenance-smoke: warm run served from the cache, reproduced the digests bit-for-bit and read its scores from the side-car"

# A second, different job — the untouched control artifact.
JOB_B=$(run_job "$LAYOUT_B")
ST_B=$(curl -fsS "$BASE/v1/jobs/$JOB_B")
ROOT_B=$(json_str "$ST_B" merkle_root)
LEAVES_B=$(curl -fsS "$BASE/v1/jobs/$JOB_B/provenance" \
    | grep -o '"blob":"[0-9a-f]*"' | sed 's/.*"blob":"\(.*\)"/\1/')
[ "$ROOT_B" != "$ROOT_A" ] || {
    echo "provenance-smoke: distinct layouts anchored the same root" >&2; exit 1; }

# Pick a leaf of job A that job B does not share (empty-window results
# deduplicate across jobs) and flip one byte mid-payload on disk.
VICTIM=""
for d in $LEAVES_A; do
    case "$LEAVES_B" in *"$d"*) continue ;; esac
    VICTIM="$d"; break
done
[ -n "$VICTIM" ] || { echo "provenance-smoke: no unshared leaf to corrupt" >&2; exit 1; }
stop_daemon "$PID" "$LOG"
BLOB="$DIR/artifacts/blobs/$(echo "$VICTIM" | cut -c1-2)/$VICTIM.blob"
[ -f "$BLOB" ] || { echo "provenance-smoke: blob $BLOB not on disk" >&2; exit 1; }
SIZE=$(wc -c <"$BLOB")
printf '\377' | dd of="$BLOB" bs=1 seek=$((SIZE / 2)) conv=notrunc 2>/dev/null
# ...and damage the cache entry of one of job A's leaves: the restart
# empties the memory tier, so a re-run must read it from disk.
KEY=$(echo "$PROV_A" | grep -o '"key":"[0-9a-f]*"' | head -1 | sed 's/.*"key":"\(.*\)"/\1/')
ENTRY="$DIR/cache/$(echo "$KEY" | cut -c1-2)/$KEY.mtc"
[ -f "$ENTRY" ] || die "cache entry $ENTRY not on disk"
printf 'CORRUPT' >>"$ENTRY"
echo "provenance-smoke: flipped one byte in leaf blob $VICTIM and damaged cache entry $KEY"

# Across the restart: the damaged artifact fails verification naming
# the leaf; the untouched artifact still proves clean from its bytes.
start
VER_A=$(curl -fsS "$BASE/v1/artifacts/$ROOT_A/verify")
case "$VER_A" in
    *'"ok":false'*) ;;
    *) echo "provenance-smoke: verify missed the corruption: $VER_A" >&2; exit 1 ;;
esac
case "$VER_A" in
    *"$VICTIM"*) ;;
    *) echo "provenance-smoke: failure does not name the corrupted leaf: $VER_A" >&2; exit 1 ;;
esac
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/artifacts/$VICTIM")
[ "$CODE" = 500 ] || {
    echo "provenance-smoke: corrupt blob fetch answered $CODE, want 500" >&2; exit 1; }
case $(curl -fsS "$BASE/v1/artifacts/$ROOT_B/verify") in
    *'"ok":true'*) ;;
    *) echo "provenance-smoke: untouched artifact failed verification" >&2; exit 1 ;;
esac
echo "provenance-smoke: corruption detected at the named leaf; untouched artifact verifies clean"

# The damaged cache entry is quarantined and recomputed bit-identically.
JOB_A3=$(run_job "$LAYOUT_A")
[ "$(metric cache_corrupt_total)" -gt 0 ] || die "corrupt cache entry was not detected"
[ -f "$ENTRY.corrupt" ] || die "corrupt cache entry was not quarantined"
[ "$(json_str "$(curl -fsS "$BASE/v1/jobs/$JOB_A3")" merkle_root)" = "$ROOT_A" ] ||
    die "the recompute after quarantine anchored another root"
echo "provenance-smoke: corrupt cache entry quarantined and recomputed to the same root"
# The re-run held the damaged leaf's bytes again, and /verify had named
# it: the blob is rewritten rather than deduped against the damage.
case $(curl -fsS "$BASE/v1/artifacts/$ROOT_A/verify") in
    *'"ok":true'*) ;;
    *) die "the re-run left the damaged blob in place: /verify still fails" ;;
esac
echo "provenance-smoke: the re-run rewrote the damaged blob; the artifact verifies clean again"

stop_daemon "$PID" "$LOG"
echo "provenance-smoke: ok"
