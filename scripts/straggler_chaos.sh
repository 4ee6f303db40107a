#!/usr/bin/env bash
# Straggler drill for distributed screening: a coordinator, one worker
# that is both lagged (netsim latency on every coordinator->victim
# request) and genuinely stalled (a soak screen hogging its single worker
# slot), and two healthy workers. Verify that
#
#   - the stalled chunks are backed up (hedges_issued_total >= 1),
#   - the screen still finishes "done" with every ligand merged exactly
#     once (ligands_merged_total == library size),
#   - the victim merged fewer ligands than each healthy worker (visible
#     in /debug/snapshot).
#
# Run from the repo root: scripts/straggler_chaos.sh
set -euo pipefail

COORD_PORT="${COORD_PORT:-8491}"
VICTIM_PORT="${VICTIM_PORT:-8492}"
W1_PORT="${W1_PORT:-8493}"
W2_PORT="${W2_PORT:-8494}"
COORD="http://localhost:$COORD_PORT"
VICTIM="http://localhost:$VICTIM_PORT"
LIBRARY=18
WORK="$(mktemp -d)"
PIDS=()
trap 'for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done; rm -rf "$WORK"' EXIT

go build -o "$WORK/vsserved" ./cmd/vsserved

wait_healthy() {
    for _ in $(seq 1 50); do
        if curl -fsS "$1/healthz" >/dev/null 2>&1; then return; fi
        sleep 0.2
    done
    echo "straggler_chaos: $1 did not come up; logs:" >&2
    cat "$WORK"/*.log >&2
    exit 1
}

"$WORK/vsserved" -addr ":$COORD_PORT" -role coordinator \
    -chaos "127.0.0.1:$VICTIM_PORT:latency@500ms±100ms" -chaos-seed 7 \
    -worker-timeout 2s -poll-interval 50ms -request-timeout 3s \
    >"$WORK/coord.log" 2>&1 &
PIDS+=($!)
wait_healthy "$COORD"

for port in "$VICTIM_PORT" "$W1_PORT" "$W2_PORT"; do
    "$WORK/vsserved" -addr ":$port" -role worker -coordinator "$COORD" \
        -heartbeat 200ms -workers 1 -screen-workers 1 \
        >"$WORK/worker-$port.log" 2>&1 &
    PIDS+=($!)
done
for port in "$VICTIM_PORT" "$W1_PORT" "$W2_PORT"; do
    wait_healthy "http://localhost:$port"
done

# All three workers registered and alive.
for _ in $(seq 1 50); do
    ALIVE="$(curl -fsS "$COORD/v1/workers" | grep -c '"alive": true' || true)"
    [ "$ALIVE" = 3 ] && break
    sleep 0.2
done
[ "$ALIVE" = 3 ] || { echo "straggler_chaos: only $ALIVE of 3 workers alive" >&2; exit 1; }
echo "straggler_chaos: cluster up (3 workers)"

# jsonfield FILE KEY extracts a string field from vsserved's indented JSON.
jsonfield() {
    sed -n "s/.*\"$2\": \"\([^\"]*\)\".*/\1/p" "$1" | head -1
}

# Stall the victim: one worker slot, so this soak serializes the
# coordinator's chunks behind it at zero progress.
SOAK='{"dataset":"2BSM","library":60,"spots":2,"metaheuristic":"M3","scale":1.0,"seed":3}'
curl -fsS -X POST "$VICTIM/v1/screens" -d "$SOAK" >/dev/null
echo "straggler_chaos: victim soaked at $VICTIM"

REQ='{"dataset":"2BSM","library":'"$LIBRARY"',"spots":2,"metaheuristic":"M3","scale":0.3,"seed":7}'
curl -fsS -X POST "$COORD/v1/screens" -d "$REQ" >"$WORK/submit.json"
JOB="$(jsonfield "$WORK/submit.json" id)"
[ -n "$JOB" ] || { echo "straggler_chaos: no job id in submit response" >&2; exit 1; }
echo "straggler_chaos: submitted $JOB"

for _ in $(seq 1 600); do
    curl -fsS "$COORD/v1/screens/$JOB" >"$WORK/job.json"
    STATE="$(jsonfield "$WORK/job.json" state)"
    case "$STATE" in
    done) break ;;
    failed | cancelled)
        echo "straggler_chaos: $JOB ended as $STATE" >&2
        cat "$WORK/job.json" "$WORK/coord.log" >&2
        exit 1
        ;;
    esac
    sleep 0.2
done
[ "$STATE" = done ] || { echo "straggler_chaos: $JOB never finished" >&2; cat "$WORK/coord.log" >&2; exit 1; }
echo "straggler_chaos: $JOB done"

curl -fsS "$COORD/metrics" >"$WORK/metrics"
HEDGES="$(awk '$1 == "metascreen_dist_hedges_issued_total" {print $2}' "$WORK/metrics")"
MERGED="$(awk '$1 == "metascreen_dist_ligands_merged_total" {print $2}' "$WORK/metrics")"
if [ -z "$HEDGES" ] || [ "$HEDGES" -lt 1 ]; then
    echo "straggler_chaos: hedges_issued_total=$HEDGES, want >= 1" >&2
    cat "$WORK/coord.log" >&2
    exit 1
fi
if [ "$MERGED" != "$LIBRARY" ]; then
    echo "straggler_chaos: ligands_merged_total=$MERGED, want exactly $LIBRARY" >&2
    exit 1
fi
echo "straggler_chaos: $HEDGES chunk(s) backed up, $MERGED/$LIBRARY ligands merged exactly once"

# Per-worker merged counts, in URL order: "<url> <merged>" per line.
curl -fsS "$COORD/debug/snapshot" >"$WORK/snapshot.json"
sed -n '/"workers": \[/,/^  \]/p' "$WORK/snapshot.json" |
    awk -F'"' '/"url":/ {url = $4} /"merged":/ {gsub(/[^0-9]/, "", $3); print url, $3}' >"$WORK/merged.txt"
# Workers register under their advertised 127.0.0.1 URLs: match by port.
VICTIM_MERGED="$(awk -v p=":$VICTIM_PORT" '$1 ~ p "$" {print $2}' "$WORK/merged.txt")"
if [ -z "$VICTIM_MERGED" ] || [ "$(wc -l <"$WORK/merged.txt")" != 3 ]; then
    echo "straggler_chaos: no merged counts for all three workers in /debug/snapshot" >&2
    cat "$WORK/snapshot.json" >&2
    exit 1
fi
if awk -v p=":$VICTIM_PORT" -v m="$VICTIM_MERGED" '$1 !~ p "$" && $2 <= m {bad = 1} END {exit !bad}' "$WORK/merged.txt"; then
    echo "straggler_chaos: a healthy worker merged no more than the victim ($VICTIM_MERGED):" >&2
    cat "$WORK/merged.txt" >&2
    exit 1
fi
echo "straggler_chaos: victim merged $VICTIM_MERGED ligands, fewer than each healthy worker"
grep -E 'metascreen_dist_(hedges_issued|hedge_wins)_total' "$WORK/metrics"
