#!/usr/bin/env bash
# Multi-process sharded fleet smoke test (the sharded CI job).
#
#   scripts/run_sharded_smoke.sh [build_dir] [json_out]
#
# Starts four pir_node processes on ephemeral loopback ports and arranges
# them as 2 shards x 2 replicas (nodes are shard-agnostic: the shard
# assignment is negotiated per connection at kShardHello time, so the same
# binary serves replicated and sharded fleets). Runs the sharded router
# smoke (bench_sharded_fleet --connect: scatter-gather bit-identity
# against an in-process reference, exit 1 on any mismatch or failed
# request), then re-runs the load with --kill-pid so the bench SIGKILLs
# one SHARD OWNER mid-run: every request must still complete via that
# shard's sibling replica, and the bench JSON's shard_failovers array must
# show a nonzero entry.
set -euo pipefail

BUILD_DIR="${1:-build}"
JSON_OUT="${2:-${BUILD_DIR}/sharded_smoke.json}"
NODE_BIN="${BUILD_DIR}/tools/pir_node"
BENCH_BIN="${BUILD_DIR}/bench/bench_sharded_fleet"
WORK_DIR="$(mktemp -d)"

[ -x "$NODE_BIN" ] || { echo "missing $NODE_BIN (build first)"; exit 2; }
[ -x "$BENCH_BIN" ] || { echo "missing $BENCH_BIN (build first)"; exit 2; }

NODE_PIDS=()
cleanup() {
    for pid in "${NODE_PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORK_DIR"
}
trap cleanup EXIT

start_node() { # $1 = index
    "$NODE_BIN" --port=0 --port-file="$WORK_DIR/port$1" \
        > "$WORK_DIR/node$1.log" 2>&1 &
    NODE_PIDS[$1]=$!
}

wait_port_file() { # $1 = index
    for _ in $(seq 1 100); do
        [ -s "$WORK_DIR/port$1" ] && return 0
        kill -0 "${NODE_PIDS[$1]}" 2>/dev/null \
            || { echo "node $1 died during startup:"; cat "$WORK_DIR/node$1.log"; exit 1; }
        sleep 0.1
    done
    echo "node $1 never wrote its port file"; exit 1
}

echo "== starting 4 pir_node processes (2 shards x 2 replicas) =="
for i in 0 1 2 3; do start_node "$i"; done
for i in 0 1 2 3; do wait_port_file "$i"; done
# Shards separated by ';', replicas of a shard by ','. Nodes 0,1 own
# shard 0; nodes 2,3 own shard 1.
SHARD0="127.0.0.1:$(cat "$WORK_DIR/port0"),127.0.0.1:$(cat "$WORK_DIR/port1")"
SHARD1="127.0.0.1:$(cat "$WORK_DIR/port2"),127.0.0.1:$(cat "$WORK_DIR/port3")"
ENDPOINTS="$SHARD0;$SHARD1"
echo "fleet up: $ENDPOINTS"

echo
echo "== sharded smoke: scatter-gather bit-identity across the fleet =="
"$BENCH_BIN" 4 10 --connect="$ENDPOINTS" --json="$WORK_DIR/smoke.json"

echo
echo "== kill-one-shard-owner scenario: SIGKILL node 2 mid-run =="
# The bench SIGKILLs node 2 itself once a quarter of the routed lookups
# have completed, so the kill lands mid-run however fast the load runs;
# shard 1's requests must fail over to node 3 (its sibling replica) and
# every request completes.
if ! "$BENCH_BIN" 6 200 --connect="$ENDPOINTS" --json="$JSON_OUT" \
    --kill-pid="${NODE_PIDS[2]}" > "$WORK_DIR/killone.log" 2>&1; then
    echo "kill-one bench FAILED:"; cat "$WORK_DIR/killone.log"; exit 1
fi
echo "killed node 2 (pid ${NODE_PIDS[2]}) — shard 1, replica 0"
cat "$WORK_DIR/killone.log"

# The run must actually have exercised the per-shard failover path: at
# least one entry of the shard_failovers array must be nonzero.
python3 - "$JSON_OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = [r for r in doc["results"] if "shard_failovers" in r]
if not rows:
    sys.exit("no shard_failovers in bench JSON")
if not any(f > 0 for r in rows for f in r["shard_failovers"]):
    sys.exit("kill-one run recorded zero shard failovers - kill landed too late?")
print("shard_failovers:", [r["shard_failovers"] for r in rows])
EOF

echo
echo "== sharded smoke PASSED =="
