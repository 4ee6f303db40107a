#!/usr/bin/env bash
# Kill-and-restart drill for the durable screening service: start vsserved
# with a data dir, submit a long screen with an idempotency key, SIGKILL
# the process mid-run, restart it over the same data dir, and verify that
#
#   - the interrupted job is recovered and resumes from its checkpoint,
#   - resubmitting the same Idempotency-Key maps onto the original job,
#   - the job still reaches state "done".
#
# Run from the repo root: scripts/chaos_restart.sh
set -euo pipefail

PORT="${PORT:-8391}"
BASE="http://localhost:$PORT"
WORK="$(mktemp -d)"
DATA="$WORK/data"
PID=""
trap '[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null; rm -rf "$WORK"' EXIT

go build -o "$WORK/vsserved" ./cmd/vsserved

start() {
    "$WORK/vsserved" -addr ":$PORT" -workers 1 -screen-workers 1 \
        -data-dir "$DATA" -checkpoint-every 1 >>"$WORK/log" 2>&1 &
    PID=$!
    for _ in $(seq 1 50); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return; fi
        sleep 0.2
    done
    echo "chaos_restart: vsserved did not come up; log:" >&2
    cat "$WORK/log" >&2
    exit 1
}

# jsonfield FILE KEY extracts a string field from vsserved's indented JSON.
jsonfield() {
    sed -n "s/.*\"$2\": \"\([^\"]*\)\".*/\1/p" "$1" | head -1
}

REQ='{"dataset":"2BSM","library":4000,"spots":2,"metaheuristic":"M3","scale":0.05,"seed":7}'

start
curl -fsS -X POST "$BASE/v1/screens" -H 'Idempotency-Key: chaos-1' -d "$REQ" >"$WORK/submit.json"
JOB="$(jsonfield "$WORK/submit.json" id)"
[ -n "$JOB" ] || { echo "chaos_restart: no job id in submit response" >&2; exit 1; }
echo "chaos_restart: submitted $JOB"

# Wait until the screen has journaled some checkpoint records, then kill
# -9 while it is still running: no drain, no final fsync beyond the
# per-record policy.
for _ in $(seq 1 100); do
    curl -fsS "$BASE/v1/screens/$JOB" >"$WORK/job.json"
    CP="$(sed -n 's/.*"checkpoint_ligands": \([0-9]*\).*/\1/p' "$WORK/job.json" | head -1)"
    [ "${CP:-0}" -ge 10 ] && break
    sleep 0.1
done
[ "$(jsonfield "$WORK/job.json" state)" = "running" ] && [ "${CP:-0}" -ge 10 ] || {
    echo "chaos_restart: $JOB is not running with checkpointed ligands before the kill:" >&2
    cat "$WORK/job.json" >&2
    exit 1
}
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""
echo "chaos_restart: killed vsserved mid-screen"

start
echo "chaos_restart: restarted over $DATA"

# The duplicate submission must return the original job, not a new one.
curl -fsS -X POST "$BASE/v1/screens" -H 'Idempotency-Key: chaos-1' -d "$REQ" >"$WORK/dup.json"
DUP="$(jsonfield "$WORK/dup.json" id)"
if [ "$DUP" != "$JOB" ]; then
    echo "chaos_restart: duplicate key created $DUP, want $JOB" >&2
    exit 1
fi
echo "chaos_restart: idempotent resubmission returned $JOB"

for _ in $(seq 1 600); do
    curl -fsS "$BASE/v1/screens/$JOB" >"$WORK/job.json"
    STATE="$(jsonfield "$WORK/job.json" state)"
    case "$STATE" in
    done)
        echo "chaos_restart: $JOB done after restart"
        curl -fsS "$BASE/metrics" | grep -E 'metascreen_(replayed_records|recovered_jobs|checkpoints_written)_total'
        exit 0
        ;;
    failed | cancelled)
        echo "chaos_restart: $JOB ended as $STATE" >&2
        cat "$WORK/job.json" >&2
        exit 1
        ;;
    esac
    sleep 0.2
done
echo "chaos_restart: $JOB never finished; log:" >&2
cat "$WORK/log" >&2
exit 1
