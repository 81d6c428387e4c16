# Shared harness of the *_smoke.sh scripts; sourced, not run. POSIX sh,
# needs curl, sed and awk. A script calls `smoke_init NAME` first (temp
# dir in $DIR, removed on exit together with every daemon still in $PIDS;
# mosaicd built into $DIR/mosaicd) and sets BASE, the URL the job helpers
# talk to.

die() { echo "$SMOKE: $*" >&2; exit 1; }

smoke_init() { # $1 = the prefix of every message
    SMOKE="$1"
    DIR="$(mktemp -d)"
    PIDS=""
    trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$DIR"' EXIT INT TERM
    echo "$SMOKE: building mosaicd"
    go build -o "$DIR/mosaicd" ./cmd/mosaicd
}

# spawn_daemon LOG FLAGS...: start mosaicd in the background, appending
# its output to LOG; its pid is left in PID and remembered in PIDS.
spawn_daemon() {
    log="$1"; shift
    "$DIR/mosaicd" "$@" >>"$log" 2>&1 &
    PID=$!
    PIDS="$PIDS $PID"
}

wait_healthy() { # $1 = base url, $2 = log file
    i=0
    while [ "$i" -lt 50 ]; do
        if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
        i=$((i + 1)); sleep 0.2
    done
    echo "$SMOKE: $1 never became healthy" >&2
    cat "$2" >&2
    exit 1
}

# start_daemon PORT LOG FLAGS...: spawn_daemon on 127.0.0.1:PORT and wait
# for /healthz.
start_daemon() {
    port="$1"; log="$2"; shift 2
    spawn_daemon "$log" -addr "127.0.0.1:$port" "$@"
    wait_healthy "http://127.0.0.1:$port" "$log"
}

# stop_daemon PID LOG: SIGTERM and require a clean (zero) exit.
stop_daemon() {
    kill -TERM "$1"
    wait "$1" || {
        echo "$SMOKE: daemon $1 exited non-zero" >&2
        cat "$2" >&2; exit 1; }
    rest=""
    for p in $PIDS; do [ "$p" = "$1" ] || rest="$rest $p"; done
    PIDS="$rest"
}

metric() { # $1 = an unlabelled metric name; prints its value, 0 if absent
    v=$(curl -fsS "$BASE/metrics" | awk -v m="$1" '$1 == m { print $2 }')
    echo "${v:-0}"
}

json_str() { # $1 = JSON text, $2 = key; prints the key's string value
    printf '%s' "$1" | sed -n "s/.*\"$2\":\"\([^\"]*\)\".*/\1/p"
}

json_num() { # $1 = JSON text, $2 = key; prints the key's numeric value
    printf '%s' "$1" | sed -n "s/.*\"$2\":\([0-9][0-9.eE+-]*\).*/\1/p"
}

submit() { # $1 = job spec JSON; prints the new job's id
    id=$(json_str "$(curl -fsS -X POST "$BASE/v1/jobs" -d "$1")" id)
    [ -n "$id" ] || die "submit returned no job id"
    echo "$id"
}

job_state() { # $1 = job id
    json_str "$(curl -fsS "$BASE/v1/jobs/$1")" state
}

# wait_done ID: poll until the job is terminal (two minutes at most) and
# require state done.
wait_done() {
    state=""
    i=0
    while [ "$i" -lt 600 ]; do
        state=$(job_state "$1") || state=""
        case "$state" in done|failed|canceled) break ;; esac
        i=$((i + 1)); sleep 0.2
    done
    if [ "$state" != done ]; then
        echo "$SMOKE: job $1 ended in state '$state'" >&2
        curl -fsS "$BASE/v1/jobs/$1" >&2 || true
        exit 1
    fi
}
