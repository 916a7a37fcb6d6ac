#!/usr/bin/env bash
# Multi-process replicated serving smoke test (the replicated CI job).
#
#   scripts/run_replicated_smoke.sh [build_dir] [json_out]
#
# Starts three pir_node processes on ephemeral loopback ports, runs the
# router smoke (bench_replicated_serving --connect: bit-identity against
# an in-process reference, exit 1 on any mismatch or failed request), then
# re-runs the load with --kill-pid so the bench SIGKILLs one node mid-run:
# every request must still complete via rerouting, and the bench JSON must
# show failovers > 0.
set -euo pipefail

BUILD_DIR="${1:-build}"
JSON_OUT="${2:-${BUILD_DIR}/replicated_smoke.json}"
NODE_BIN="${BUILD_DIR}/tools/pir_node"
BENCH_BIN="${BUILD_DIR}/bench/bench_replicated_serving"
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

echo "== starting 3 pir_node processes =="
for i in 0 1 2; do start_node "$i"; done
for i in 0 1 2; do wait_port_file "$i"; done
ENDPOINTS="127.0.0.1:$(cat "$WORK_DIR/port0"),127.0.0.1:$(cat "$WORK_DIR/port1"),127.0.0.1:$(cat "$WORK_DIR/port2")"
echo "nodes up: $ENDPOINTS"

echo
echo "== router smoke: bit-identity across 3 external replicas =="
"$BENCH_BIN" 4 10 --connect="$ENDPOINTS" --json="$WORK_DIR/smoke.json"

echo
echo "== kill-one scenario: SIGKILL a node mid-run =="
# The bench SIGKILLs node 1 itself once a quarter of the routed lookups
# have completed, so the kill lands mid-run however fast the load runs;
# the router retries the broken requests on the survivors and the health
# checks stop routing to the corpse.
if ! "$BENCH_BIN" 6 200 --connect="$ENDPOINTS" --json="$JSON_OUT" \
    --kill-pid="${NODE_PIDS[1]}" > "$WORK_DIR/killone.log" 2>&1; then
    echo "kill-one bench FAILED:"; cat "$WORK_DIR/killone.log"; exit 1
fi
echo "killed node 1 (pid ${NODE_PIDS[1]})"
cat "$WORK_DIR/killone.log"

# The run must actually have exercised failover.
if ! grep -q '"failovers":' "$JSON_OUT"; then
    echo "no failover counters in $JSON_OUT"; exit 1
fi
if grep -q '"failovers":0[,}]' "$JSON_OUT"; then
    echo "kill-one run recorded zero failovers — kill landed too late?"
    exit 1
fi

echo
echo "== replicated smoke PASSED =="
