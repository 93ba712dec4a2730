#!/usr/bin/env bash
# Smoke test for the sharded serving tier, run by CI after a build:
#  1. generate a small big-schema table,
#  2. start 4 `viewseeker serve` workers (each with its own durability
#     dir and shard name) and one `viewseeker route` front-end over them,
#  3. assert X-Request-Id echo and X-Shard stamping through the router,
#  4. create + label a session, migrate it live to another shard, and
#     require byte-identical labels plus exactly-one-copy placement
#     (checked against the workers directly, bypassing the router),
#  5. replay workloads/closed_smoke.json through the router with
#     workbench, requiring its SLO verdict and traffic on every shard,
#  6. validate the aggregated /metrics with promcheck and spot-check the
#     aggregated /statusz,
#  7. SIGKILL a worker and watch the failure detector eject it (router
#     stays up, healthz reports degraded), restart it on the same port
#     and durability dir and watch re-admission with its sessions back,
#  8. SIGTERM everything and require a clean drain + exit.
#
# Usage: tools/cluster_smoke.sh <build-dir> [base-port]
# Workers listen on base-port+1 .. base-port+4, the router on base-port.
set -euo pipefail

BUILD_DIR="${1:?usage: cluster_smoke.sh <build-dir> [base-port]}"
BASE_PORT="${2:-18300}"
WORK_DIR="$(mktemp -d)"
WORKER_PIDS=(0 0 0 0)

# `kill 0` would signal the whole process group (CI's shell included), so
# only ever kill pids we actually recorded.
cleanup() {
  for pid in "${ROUTER_PID:-0}" "${WORKER_PIDS[@]}"; do
    [ "$pid" -gt 0 ] 2>/dev/null && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

VIEWSEEKER="$BUILD_DIR/tools/viewseeker"
WORKBENCH="$BUILD_DIR/tools/workbench"
PROMCHECK="$BUILD_DIR/tools/promcheck"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
SPEC="$REPO_DIR/workloads/closed_smoke.json"
TABLE="$WORK_DIR/cluster.vst"
ROUTER="http://127.0.0.1:$BASE_PORT"

worker_port() { echo $((BASE_PORT + 1 + $1)); }

start_worker() {
  local i="$1"
  "$VIEWSEEKER" serve --table="$TABLE" --port="$(worker_port "$i")" \
      --shard-name="shard$i" --durability-dir="$WORK_DIR/shard$i" \
      --no-fsync --max-sessions=64 --workers=16 \
      >>"$WORK_DIR/shard$i.log" 2>&1 &
  WORKER_PIDS[$i]=$!
}

echo "== build info"
"$VIEWSEEKER" route --build-info

echo "== generate table"
"$VIEWSEEKER" generate --dataset=big --rows=2000 --out="$TABLE"

# The transport holds a worker thread per keep-alive connection, so the
# router and every worker get one per workbench lane (and router lane).
echo "== start 4 workers + router"
SHARDS=""
for i in 0 1 2 3; do
  start_worker "$i"
  SHARDS+="${SHARDS:+,}shard$i=127.0.0.1:$(worker_port "$i")"
done
"$VIEWSEEKER" route --port="$BASE_PORT" --shards="$SHARDS" --workers=16 \
    --probe-interval=0.5 --eject-after=3 \
    >"$WORK_DIR/router.log" 2>&1 &
ROUTER_PID=$!

for i in $(seq 1 50); do
  if curl -sf "$ROUTER/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$ROUTER_PID" 2>/dev/null; then
    echo "router died during startup"; cat "$WORK_DIR/router.log"; exit 1
  fi
  sleep 0.2
done
curl -sf "$ROUTER/healthz" > "$WORK_DIR/healthz.json"
grep -q '"status":"ok"' "$WORK_DIR/healthz.json" \
  || { echo "cluster not healthy"; cat "$WORK_DIR/healthz.json"; exit 1; }

echo "== request-id echo through the router (success + error path)"
curl -sf -D "$WORK_DIR/ok_headers.txt" -H "X-Request-Id: smoke-ok-1" \
    "$ROUTER/healthz" >/dev/null
grep -qi "^x-request-id: smoke-ok-1" "$WORK_DIR/ok_headers.txt" \
  || { echo "X-Request-Id not echoed on success"; cat "$WORK_DIR/ok_headers.txt"; exit 1; }
curl -s -D "$WORK_DIR/err_headers.txt" -H "X-Request-Id: smoke-err-1" \
    "$ROUTER/no/such/route" >/dev/null
grep -q "^HTTP/1.1 404" "$WORK_DIR/err_headers.txt" \
  || { echo "expected 404"; cat "$WORK_DIR/err_headers.txt"; exit 1; }
grep -qi "^x-request-id: smoke-err-1" "$WORK_DIR/err_headers.txt" \
  || { echo "X-Request-Id not echoed on error"; cat "$WORK_DIR/err_headers.txt"; exit 1; }

echo "== create + label a session through the router"
curl -sf -D "$WORK_DIR/create_headers.txt" -X POST "$ROUTER/sessions" \
    -d '{"k":5}' > "$WORK_DIR/create.json"
SID="$(grep -o '"id":"[^"]*"' "$WORK_DIR/create.json" | head -1 | cut -d'"' -f4)"
[ -n "$SID" ] || { echo "no session id in create response"; cat "$WORK_DIR/create.json"; exit 1; }
FROM="$(grep -i "^x-shard:" "$WORK_DIR/create_headers.txt" | tr -d '\r' | awk '{print $2}')"
[ -n "$FROM" ] || { echo "create response missing X-Shard"; cat "$WORK_DIR/create_headers.txt"; exit 1; }
echo "session $SID placed on $FROM"
curl -sf -X POST "$ROUTER/sessions/$SID/label" -d '{"view":0,"label":1}' >/dev/null
curl -sf -X POST "$ROUTER/sessions/$SID/label" -d '{"view":1,"label":0}' >/dev/null
curl -sf "$ROUTER/sessions/$SID/labels" > "$WORK_DIR/labels_before.json"
curl -sf "$ROUTER/sessions/$SID/topk"   > "$WORK_DIR/topk_before.json"

echo "== live migration"
TO="shard$(( ( ${FROM#shard} + 1 ) % 4 ))"
curl -sf -X POST "$ROUTER/admin/migrate" \
    -d "{\"session\":\"$SID\",\"to\":\"$TO\"}" > "$WORK_DIR/migrate.json"
grep -q '"migrated":true' "$WORK_DIR/migrate.json" \
  || { echo "migration failed"; cat "$WORK_DIR/migrate.json"; exit 1; }
curl -sf "$ROUTER/sessions/$SID/labels" > "$WORK_DIR/labels_after.json"
curl -sf "$ROUTER/sessions/$SID/topk"   > "$WORK_DIR/topk_after.json"
diff "$WORK_DIR/labels_before.json" "$WORK_DIR/labels_after.json" \
  || { echo "labels changed across migration"; exit 1; }
diff "$WORK_DIR/topk_before.json" "$WORK_DIR/topk_after.json" \
  || { echo "top-k changed across migration"; exit 1; }
# Exactly one copy: ask the workers directly, bypassing the router.
FROM_CODE="$(curl -s -o /dev/null -w '%{http_code}' \
    "http://127.0.0.1:$(worker_port "${FROM#shard}")/sessions/$SID")"
TO_CODE="$(curl -s -o /dev/null -w '%{http_code}' \
    "http://127.0.0.1:$(worker_port "${TO#shard}")/sessions/$SID")"
[ "$FROM_CODE" = 404 ] && [ "$TO_CODE" = 200 ] \
  || { echo "expected 404 on $FROM / 200 on $TO, got $FROM_CODE/$TO_CODE"; exit 1; }
echo "migrated $SID: $FROM -> $TO, labels + top-k byte-identical"

echo "== workbench through the router (8 lanes x 5s, all shards required)"
# Exit code = verdict: SLO met, zero errors, and all 4 shards served.
"$WORKBENCH" --spec="$SPEC" --port="$BASE_PORT" --require-shards=4

echo "== aggregated metrics after load"
# Capture before grepping: `grep -q` closing the pipe early would EPIPE
# curl and trip pipefail even when the metric is present.
curl -sf "$ROUTER/metrics" > "$WORK_DIR/metrics.txt"
grep -q "cluster_requests_forwarded" "$WORK_DIR/metrics.txt" \
  || { echo "router counters missing"; exit 1; }
grep -q "serve_requests" "$WORK_DIR/metrics.txt" \
  || { echo "merged worker counters missing"; exit 1; }
grep -c "viewseeker_build_info{" "$WORK_DIR/metrics.txt" | grep -qx 1 \
  || { echo "build info gauge must dedupe to one line"; exit 1; }
"$PROMCHECK" "$WORK_DIR/metrics.txt"

echo "== aggregated statusz"
curl -sf "$ROUTER/statusz" > "$WORK_DIR/statusz.json"
for field in '"role":"router"' '"migrations":1' '"ring_points"' \
             '"name":"shard0"' '"name":"shard3"' '"overrides"'; do
  grep -q "$field" "$WORK_DIR/statusz.json" \
    || { echo "statusz missing $field"; cat "$WORK_DIR/statusz.json"; exit 1; }
done

echo "== SIGKILL shard2, expect ejection"
kill -9 "${WORKER_PIDS[2]}"
EJECTED=0
for i in $(seq 1 50); do
  curl -sf "$ROUTER/statusz" > "$WORK_DIR/statusz.json" || true
  if grep -q '"name":"shard2","host":"127.0.0.1","port":[0-9]*,"ejected":true' \
      "$WORK_DIR/statusz.json"; then
    EJECTED=1; break
  fi
  sleep 0.3
done
[ "$EJECTED" = 1 ] || { echo "shard2 never ejected"; cat "$WORK_DIR/statusz.json"; exit 1; }
# The router itself stays up: healthz answers 200 with a degraded body.
HEALTH_CODE="$(curl -s -o "$WORK_DIR/healthz.json" -w '%{http_code}' "$ROUTER/healthz")"
[ "$HEALTH_CODE" = 200 ] || { echo "router healthz went down"; exit 1; }
grep -q '"status":"degraded"' "$WORK_DIR/healthz.json" \
  || { echo "healthz should report degraded"; cat "$WORK_DIR/healthz.json"; exit 1; }

echo "== restart shard2 on the same port + durability dir, expect re-admission"
start_worker 2
READMITTED=0
for i in $(seq 1 50); do
  curl -sf "$ROUTER/statusz" > "$WORK_DIR/statusz.json" || true
  if grep -q '"name":"shard2","host":"127.0.0.1","port":[0-9]*,"ejected":false' \
      "$WORK_DIR/statusz.json"; then
    READMITTED=1; break
  fi
  sleep 0.3
done
[ "$READMITTED" = 1 ] || { echo "shard2 never re-admitted"; cat "$WORK_DIR/statusz.json"; exit 1; }
grep -q '"readmissions":1' "$WORK_DIR/statusz.json" \
  || { echo "readmission counter missing"; cat "$WORK_DIR/statusz.json"; exit 1; }
curl -sf "$ROUTER/healthz" > "$WORK_DIR/healthz.json"
grep -q '"status":"ok"' "$WORK_DIR/healthz.json" \
  || { echo "cluster did not return to healthy"; cat "$WORK_DIR/healthz.json"; exit 1; }

echo "== graceful shutdown"
kill -TERM "$ROUTER_PID"
for i in $(seq 1 50); do
  kill -0 "$ROUTER_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$ROUTER_PID" 2>/dev/null; then
  echo "router did not exit after SIGTERM"; cat "$WORK_DIR/router.log"; exit 1
fi
wait "$ROUTER_PID"; ROUTER_STATUS=$?
ROUTER_PID=""
grep -q "draining in-flight requests" "$WORK_DIR/router.log" \
  || { echo "missing router drain log line"; cat "$WORK_DIR/router.log"; exit 1; }
[ "$ROUTER_STATUS" -eq 0 ] \
  || { echo "router exited with $ROUTER_STATUS"; cat "$WORK_DIR/router.log"; exit 1; }
for i in 0 1 2 3; do
  kill -TERM "${WORKER_PIDS[$i]}" 2>/dev/null || true
done
for i in 0 1 2 3; do
  wait "${WORKER_PIDS[$i]}" 2>/dev/null || true
done
WORKER_PIDS=(0 0 0 0)

echo "== cluster smoke OK"
