#!/usr/bin/env bash
# Disk-fault soak drill for the durable screening service, the storage
# twin of chaos_restart.sh (clean kills) and overload_soak.sh (client
# pressure). Two legs:
#
#   1. torn-write + EIO chaos on the journal segments, where checkpoint
#      records live (-chaos, deterministic under -chaos-seed):
#      the submission is acknowledged, checkpoint appends fault, then kill
#      -9 mid-screen and a restart over the same data dir with a healthy
#      disk: the acknowledged job must still exist and reach "done".
#   2. a filling disk (enospc): submissions must degrade to 507 +
#      Retry-After while rankings and /metrics stay served and the
#      metascreen_storage_degraded gauge reads 1; a restart with a
#      healthy disk must know every acknowledged job.
#
# Run from the repo root: scripts/disk_chaos.sh
set -euo pipefail

PORT="${PORT:-8395}"
BASE="http://localhost:$PORT"
WORK="$(mktemp -d)"
PID=""
trap '[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null; rm -rf "$WORK"' EXIT

go build -o "$WORK/vsserved" ./cmd/vsserved

# start DATA_DIR [extra flags...]
start() {
    local data="$1"
    shift
    "$WORK/vsserved" -addr ":$PORT" -workers 1 -screen-workers 1 \
        -data-dir "$data" -checkpoint-every 1 "$@" >>"$WORK/log" 2>&1 &
    PID=$!
    for _ in $(seq 1 50); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return; fi
        sleep 0.2
    done
    echo "disk_chaos: vsserved did not come up; log:" >&2
    cat "$WORK/log" >&2
    exit 1
}

stop() {
    kill -9 "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    PID=""
}

jsonfield() {
    sed -n "s/.*\"$2\": \"\([^\"]*\)\".*/\1/p" "$1" | head -1
}

# wait_done JOB_ID: poll until the job is done (or fail the drill).
wait_done() {
    local job="$1"
    for _ in $(seq 1 600); do
        curl -fsS "$BASE/v1/screens/$job" >"$WORK/job.json"
        case "$(jsonfield "$WORK/job.json" state)" in
        done) return 0 ;;
        failed | cancelled | shed)
            echo "disk_chaos: $job ended as $(jsonfield "$WORK/job.json" state)" >&2
            cat "$WORK/job.json" >&2
            exit 1
            ;;
        esac
        sleep 0.2
    done
    echo "disk_chaos: $job never finished; log:" >&2
    cat "$WORK/log" >&2
    exit 1
}

REQ='{"dataset":"2BSM","library":64,"spots":2,"metaheuristic":"M3","scale":0.05,"seed":7}'
# Leg 1 screens a larger library so the kill -9 lands mid-run and the
# restart genuinely resumes an interrupted job (the drill checks it is
# still running when the power goes).
LONGREQ='{"dataset":"2BSM","library":4000,"spots":2,"metaheuristic":"M3","scale":0.05,"seed":7}'

# counter METRICS_FILE NAME: the summed value of a counter family.
counter() {
    awk -v name="$2" '$1 == name || index($1, name "{") == 1 { sum += $2 } END { print sum + 0 }' "$1"
}

# ---- Leg 1: torn writes + EIO on journal segments, kill -9, recover ----

DATA1="$WORK/data1"
# Seed 3 leaves the submitted record intact (the 202 is real) and tears
# or fails a later append, i.e. a checkpoint record of the running screen.
start "$DATA1" -chaos 'journal/*.wal:torn-write@0.02,journal/*.wal:eio@0.02' -chaos-seed 3
echo "disk_chaos: leg 1 up (torn-write + eio on journal segments)"

curl -fsS -X POST "$BASE/v1/screens" -H 'Idempotency-Key: disk-1' -d "$LONGREQ" >"$WORK/submit.json"
JOB="$(jsonfield "$WORK/submit.json" id)"
[ -n "$JOB" ] || { echo "disk_chaos: no job id in submit response" >&2; exit 1; }
echo "disk_chaos: submitted $JOB under disk chaos"

# Let it run until a checkpoint-record append has faulted, then pull the
# power while the screen is still running.
FAULTS=0
for _ in $(seq 1 100); do
    curl -fsS "$BASE/metrics" >"$WORK/metrics"
    FAULTS=$(($(counter "$WORK/metrics" metascreen_journal_errors_total) + $(counter "$WORK/metrics" metascreen_wal_io_errors_total)))
    [ "$FAULTS" -gt 0 ] && break
    sleep 0.1
done
[ "$FAULTS" -gt 0 ] || {
    echo "disk_chaos: no journal append faulted under leg 1's plan" >&2
    grep -E 'metascreen_(journal|wal|checkpoint)' "$WORK/metrics" >&2 || true
    exit 1
}
curl -fsS "$BASE/v1/screens/$JOB" >"$WORK/job.json"
[ "$(jsonfield "$WORK/job.json" state)" = "running" ] || {
    echo "disk_chaos: $JOB is not running when the power goes:" >&2
    cat "$WORK/job.json" >&2
    exit 1
}
echo "disk_chaos: $FAULTS journal faults absorbed mid-screen"
stop
echo "disk_chaos: killed vsserved mid-screen"

start "$DATA1"
echo "disk_chaos: restarted over $DATA1 with a healthy disk"
wait_done "$JOB"
echo "disk_chaos: $JOB recovered to done after torn-write/eio chaos + kill -9"
curl -fsS "$BASE/metrics" | grep -E 'metascreen_(replayed_records|recovered_jobs|journal_truncated_bytes)_total' || true
stop

# ---- Leg 2: disk fills; degrade to read-only, never fall over ----

DATA2="$WORK/data2"
start "$DATA2" -chaos '*:enospc@65536' -chaos-seed 7
echo "disk_chaos: leg 2 up (disk fills after 64 KiB)"

ACKED=""
FULL=0
for i in $(seq 1 100); do
    CODE="$(curl -s -o "$WORK/resp.json" -w '%{http_code}' -D "$WORK/headers" \
        -X POST "$BASE/v1/screens" -H "Idempotency-Key: fill-$i" -d "$REQ")"
    if [ "$CODE" = "202" ]; then
        ID="$(jsonfield "$WORK/resp.json" id)"
        ACKED="$ACKED $ID"
        wait_done "$ID"
    elif [ "$CODE" = "507" ]; then
        FULL=1
        grep -qi '^retry-after:' "$WORK/headers" || {
            echo "disk_chaos: 507 without Retry-After" >&2
            exit 1
        }
        break
    else
        echo "disk_chaos: submit $i got unexpected status $CODE" >&2
        cat "$WORK/resp.json" >&2
        exit 1
    fi
done
[ "$FULL" = "1" ] || { echo "disk_chaos: disk never filled (no 507 in 100 submits)" >&2; exit 1; }
[ -n "$ACKED" ] || { echo "disk_chaos: no job acknowledged before the disk filled" >&2; exit 1; }
echo "disk_chaos: disk full after $(echo "$ACKED" | wc -w) jobs; 507 + Retry-After confirmed"

# Degraded is read-only, not down: rankings and metrics must still flow.
for ID in $ACKED; do
    curl -fsS "$BASE/v1/screens/$ID" >/dev/null
done
curl -fsS "$BASE/metrics" >"$WORK/metrics"
grep -q '^metascreen_storage_degraded 1$' "$WORK/metrics" || {
    echo "disk_chaos: metrics do not report storage_degraded 1; got:" >&2
    grep storage "$WORK/metrics" >&2 || true
    exit 1
}
echo "disk_chaos: reads + metrics served while degraded"
stop

# A restart with a healthy disk must know every acknowledged job.
start "$DATA2"
for ID in $ACKED; do
    curl -fsS "$BASE/v1/screens/$ID" >/dev/null || {
        echo "disk_chaos: acknowledged job $ID lost across restart" >&2
        exit 1
    }
done
echo "disk_chaos: all acknowledged jobs survived the restart"
stop
echo "disk_chaos: PASS"
