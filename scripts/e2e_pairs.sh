#!/bin/sh
# Alternating parent/change pairs of the repo benchmark — the measurement
# a performance claim rests on (benchmark/README.md, "Landing a change").
#
#   scripts/e2e_pairs.sh PARENT_REV        (or: make bench-e2e-pairs PARENT=<rev>)
#
# `git archive`s PARENT_REV and the change into two temp dirs — the change
# is HEAD, or `git stash create`'s commit of a dirty tree (tracked and
# staged files; an untracked one is refused: `git add` it) — and runs each
# through its own benchmark/run.sh, one seed per pair (1601, 1602, …),
# the side that goes first alternating from pair to pair so that slow
# drift of the shared host lands on both sides alike. The per-pair run sets
# are merged into results/E2E_<STAMP>_parent.json and …_change.json, a
# table of every timing metric per pair is printed with the number of
# pairs the change won, and `run.sh compare` gives the verdicts. Both sides
# run from scratch directories because the checkout's side of a 1.5 ms
# median read ≈ 8 % slow against an archived parent (PRs 17–20).
#
# Environment: PAIRS (10), STAMP (the output name; today, yyyymmdd) and
# CPUS, a `taskset -c` CPU list (e.g. CPUS=0) both sides then run under:
# the harness sizes itself by the affinity mask, so with one CPU every
# workload runs at GOMAXPROCS 1 — the one-CPU addendum of a claim. Every
# run is the full benchmark — all four workloads at its own run length.
# Needs git, tar, awk and a POSIX shell, and taskset when CPUS is set.
set -eu

PARENT="${1:?usage: scripts/e2e_pairs.sh PARENT_REV}"
PAIRS="${PAIRS:-10}"
SEED0=1601
STAMP="${STAMP:-$(date +%Y%m%d)}"
CPUS="${CPUS:-}"
cd "$(dirname "$0")/.."
OUT_PARENT="results/E2E_${STAMP}_parent.json"
OUT_CHANGE="results/E2E_${STAMP}_change.json"
for f in "$OUT_PARENT" "$OUT_CHANGE"; do
    [ ! -e "$f" ] || { echo "e2e-pairs: $f exists; pick another STAMP" >&2; exit 2; }
done

untracked="$(git ls-files --others --exclude-standard)"
[ -z "$untracked" ] || { echo "e2e-pairs: untracked files would be left out of the change side; git add them:" >&2; echo "$untracked" >&2; exit 2; }
CHANGE="$(git stash create)"
CHANGE="${CHANGE:-HEAD}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM
mkdir "$TMP/parent" "$TMP/change" "$TMP/sets"
git archive "$PARENT" | tar -x -C "$TMP/parent"
git archive "$CHANGE" | tar -x -C "$TMP/change"
echo "e2e-pairs: parent $(git rev-parse --short "$PARENT") and change $(git rev-parse --short "$CHANGE") under $TMP, $PAIRS pairs from seed $SEED0${CPUS:+, on CPUs $CPUS}"

run_side() { # $1 = parent|change, $2 = pair, $3 = seed
    ${CPUS:+taskset -c "$CPUS"} bash "$TMP/$1/benchmark/run.sh" run --seeds "$3" --out "$TMP/sets/$1_$2.json" 2>&1 | sed "s/^/  $1: /"
    [ -s "$TMP/sets/$1_$2.json" ] || { echo "e2e-pairs: $1 run of pair $2 failed" >&2; exit 1; }
}

i=1
while [ "$i" -le "$PAIRS" ]; do
    seed=$((SEED0 + i - 1))
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    echo "e2e-pairs: pair $i/$PAIRS, seed $seed, $order"
    for side in $order; do
        run_side "$side" "$i" "$seed"
    done
    i=$((i + 1))
done

# A run set is {"runs": [ … ]} as json.MarshalIndent writes it: drop the
# two opening and two closing lines of each and join the entries.
merge() { # $1 = side, $2 = output
    {
        printf '{\n "runs": [\n'
        i=1
        while [ "$i" -le "$PAIRS" ]; do
            [ "$i" -eq 1 ] || echo ','
            sed -e '1,2d' -e '$d' "$TMP/sets/$1_$i.json" | sed -e '$d'
            i=$((i + 1))
        done
        printf ' ]\n}\n'
    } >"$2"
}
mkdir -p results
merge parent "$OUT_PARENT"
merge change "$OUT_CHANGE"
echo "e2e-pairs: wrote $OUT_PARENT and $OUT_CHANGE"

# values FILE: one "workload metric value" line per metric of a run set.
values() {
    awk '/"workload":/ { w = $2; gsub(/[",]/, "", w) }
         /^ +"[a-z0-9_]+": \{$/ { m = $1; gsub(/[":]/, "", m) }
         /"value":/ { v = $2; sub(/,$/, "", v); print w, m, v }' "$1"
}
echo "e2e-pairs: timing metrics pair by pair (parent change; * = change better)"
i=1
while [ "$i" -le "$PAIRS" ]; do
    values "$TMP/sets/parent_$i.json" | sed "s/^/$i /" >>"$TMP/parent.values"
    values "$TMP/sets/change_$i.json" | sed "s/^/$i /" >>"$TMP/change.values"
    i=$((i + 1))
done
paste -d' ' "$TMP/parent.values" "$TMP/change.values" | awk '
    $3 ~ /_s$/ {
        better = ($3 == "throughput_per_s") ? ($8 > $4) : ($8 < $4)
        key = $2 " " $3
        if (!(key in n)) order[++keys] = key
        n[key]++; wins[key] += better
        row[key] = row[key] sprintf("  %.4g %.4g%s", $4, $8, better ? "*" : "")
    }
    END {
        for (k = 1; k <= keys; k++)
            printf "%-28s won %d/%d:%s\n", order[k], wins[order[k]], n[order[k]], row[order[k]]
    }'

bash benchmark/run.sh compare "$OUT_PARENT" "$OUT_CHANGE"
