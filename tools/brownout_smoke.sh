#!/usr/bin/env bash
# Degradation drill, run by hand after a build (docs/TESTING.md
# "Degradation drill"):
#  1. generate a 3M-row big-schema table: a cold create on it costs
#     hundreds of milliseconds of scans and features, and the drill's
#     spec draws ~120 distinct filters so most creates miss the matrix
#     cache — the open-loop arrivals outrun 2 workers on real engine work,
#  2. start 2 `viewseeker serve` workers (admission control on by
#     default) behind one `viewseeker route` front-end,
#  3. replay workloads/degradation_drill.json through the router with
#     per-request deadlines, and
#  4. assert the overload contract:
#       - zero 5xx / transport errors (overload must shed honestly),
#       - 504s (deadline-expired) bounded to a fraction of requests,
#       - a nonzero degraded count while saturated (brownout served
#         rough answers instead of queueing), and
#       - after the load drains, every worker's degraded_sessions
#         heals back to zero.
#
# Usage: tools/brownout_smoke.sh <build-dir> [base-port]
# Workers listen on base-port+1 .. base-port+2, the router on base-port.
set -euo pipefail

BUILD_DIR="${1:?usage: brownout_smoke.sh <build-dir> [base-port]}"
BASE_PORT="${2:-18420}"
WORK_DIR="$(mktemp -d)"
WORKER_PIDS=(0 0)

cleanup() {
  for pid in "${ROUTER_PID:-0}" "${WORKER_PIDS[@]}"; do
    [ "$pid" -gt 0 ] 2>/dev/null && kill "$pid" 2>/dev/null || true
  done
  # Let the processes finish flushing durability files before removing
  # the directory, or rm races their writes.
  wait 2>/dev/null || true
  rm -rf "$WORK_DIR" 2>/dev/null || true
}
trap cleanup EXIT

VIEWSEEKER="$BUILD_DIR/tools/viewseeker"
WORKBENCH="$BUILD_DIR/tools/workbench"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
SPEC="$REPO_DIR/workloads/degradation_drill.json"
TABLE="$WORK_DIR/bench.vst"
ROWS=3000000
ROUTER="http://127.0.0.1:$BASE_PORT"

# Pulls an integer field out of a flat JSON report ("key": 123).
json_int() { grep -o "\"$2\": *[0-9]*" "$1" | head -1 | grep -o '[0-9]*$'; }

worker_port() { echo $((BASE_PORT + 1 + $1)); }

start_worker() {
  local i="$1"
  "$VIEWSEEKER" serve --table="$TABLE" --port="$(worker_port "$i")" \
      --shard-name="shard$i" --durability-dir="$WORK_DIR/shard$i" \
      --no-fsync --max-sessions=128 --workers=64 \
      --brownout-deadline-ms=300 --heal-interval=0.2 \
      >>"$WORK_DIR/shard$i.log" 2>&1 &
  WORKER_PIDS[$i]=$!
}

echo "== generate table (big-schema, ${ROWS} rows: the drill saturates on"
echo "   real cold builds)"
"$VIEWSEEKER" generate --dataset=big --rows="$ROWS" --seed=99 --out="$TABLE"

echo "== start 2 workers (admission on) + router"
SHARDS=""
for i in 0 1; do
  start_worker "$i"
  SHARDS+="${SHARDS:+,}shard$i=127.0.0.1:$(worker_port "$i")"
done
"$VIEWSEEKER" route --port="$BASE_PORT" --shards="$SHARDS" --workers=80 \
    --probe-interval=0.5 --eject-after=3 --forward-timeout=30 \
    >"$WORK_DIR/router.log" 2>&1 &
ROUTER_PID=$!

# Workers load the table before they answer, so wait for the router to
# see both of them healthy, not just for the router itself.
for i in $(seq 1 150); do
  if curl -sf "$ROUTER/healthz" 2>/dev/null | grep -q '"status":"ok"'; then
    break
  fi
  if ! kill -0 "$ROUTER_PID" 2>/dev/null; then
    echo "router died during startup"; cat "$WORK_DIR/router.log"; exit 1
  fi
  sleep 0.2
done
curl -sf "$ROUTER/healthz" | grep -q '"status":"ok"' \
  || { echo "cluster not healthy"; exit 1; }

echo "== replay degradation_drill with 2s per-request deadlines"
RC=0
"$WORKBENCH" --spec="$SPEC" --port="$BASE_PORT" --require-shards=2 \
    --deadline-ms=2000 --json-out="$WORK_DIR/report.json" || RC=$?
echo "== machine-readable report"
cat "$WORK_DIR/report.json"
if [ "$RC" -ne 0 ]; then
  echo "workbench verdict: FAIL (exit $RC)"
  echo "== router log tail"; tail -20 "$WORK_DIR/router.log"
  exit "$RC"
fi

REQUESTS=$(json_int "$WORK_DIR/report.json" requests)
ERRORS=$(json_int "$WORK_DIR/report.json" errors)
DEGRADED=$(json_int "$WORK_DIR/report.json" degraded)
EXPIRED=$(json_int "$WORK_DIR/report.json" deadline_expired)

echo "== overload contract: requests=$REQUESTS errors=$ERRORS" \
     "degraded=$DEGRADED deadline_expired=$EXPIRED"
[ "$ERRORS" -eq 0 ] \
  || { echo "FAIL: $ERRORS protocol errors (5xx/transport) under overload"; exit 1; }
[ "$DEGRADED" -gt 0 ] \
  || { echo "FAIL: no degraded responses — brownout never engaged"; exit 1; }
# 504s are honest backpressure, but if most of the traffic expired the
# drill was mis-sized, not resilient.
[ $((EXPIRED * 2)) -lt "$REQUESTS" ] \
  || { echo "FAIL: $EXPIRED of $REQUESTS requests deadline-expired"; exit 1; }

echo "== load drained: every worker must heal to degraded_sessions=0"
for i in 0 1; do
  HEALED=0
  for attempt in $(seq 1 50); do
    COUNT=$(curl -sf "http://127.0.0.1:$(worker_port "$i")/statusz" \
            | grep -o '"degraded_sessions":[0-9]*' | cut -d: -f2)
    if [ "${COUNT:-1}" -eq 0 ]; then HEALED=1; break; fi
    sleep 0.2
  done
  [ "$HEALED" -eq 1 ] \
    || { echo "FAIL: shard$i still degraded after drain (count=$COUNT)"; exit 1; }
done

echo "brownout smoke OK: saturated without 5xx, degraded honestly, healed clean"
