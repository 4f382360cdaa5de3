#!/usr/bin/env bash
# Multi-center determinism smoke: the src/meta acceptance gate, end to
# end on loopback (the CI multicenter-smoke job runs exactly this).
#
# A small fig_multicenter grid (2 and 6 centers x every routing policy)
# runs four ways — in-process, --isolate=proc, --isolate=tcp over two
# agents, and through an esched-coordinator with a result journal — and
# every output must be byte-identical to the in-process reference. A
# scenario's centers are one share group, dispatched as tasks of at most
# four centers: a 2-center scenario is one task, a 6-center scenario two
# tasks that route the same global trace independently. A
# second client pass over the coordinator must also be byte-identical,
# served from the journal this time (meta cells replay like any other
# cell: their canonical keys pin the whole scenario plus center index).
#
# Usage: scripts/multicenter_smoke.sh   (from the repo root, after a build)
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/wait_ready.sh

MONTHS="${ESCHED_SMOKE_MONTHS:-1}"
BENCH=./build/bench/fig_multicenter_savings
FLAGS=(--months "$MONTHS" --centers 2,6 --csv)
COORD_PORT=9580
AGENT_PORTS=(9581 9582)
AGENTS=127.0.0.1:9581,127.0.0.1:9582

workdir="$(mktemp -d)"
pids=()

cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== multicenter-smoke: months=$MONTHS, 2 and 6 centers, all routers =="

echo "-- in-process reference --"
"$BENCH" "${FLAGS[@]}" --jobs 1 > "$workdir/ref.out"

echo "-- --isolate=proc --"
"$BENCH" "${FLAGS[@]}" --jobs 4 --isolate=proc > "$workdir/proc.out"
diff -u "$workdir/ref.out" "$workdir/proc.out"
echo "   byte-identical"

echo "-- --isolate=tcp over two agents --"
for port in "${AGENT_PORTS[@]}"; do
  ./build/esched-agentd --port "$port" --slots 2 \
    > "$workdir/agent-$port.log" 2>&1 &
  pids+=($!)
  disown $!
done
for port in "${AGENT_PORTS[@]}"; do
  wait_ready "$workdir/agent-$port.log" esched-agentd
done
"$BENCH" "${FLAGS[@]}" --isolate=tcp --agents "$AGENTS" > "$workdir/tcp.out"
diff -u "$workdir/ref.out" "$workdir/tcp.out"
echo "   byte-identical"

echo "-- coordinator + journal --"
./build/esched-coordinator --port "$COORD_PORT" --agents "$AGENTS" \
  --journal "$workdir/journal.bin" \
  > "$workdir/coordinator.log" 2>&1 &
pids+=($!)
disown $!
wait_ready "$workdir/coordinator.log" esched-coordinator
"$BENCH" "${FLAGS[@]}" --coordinator "127.0.0.1:$COORD_PORT" \
  > "$workdir/coord.out"
diff -u "$workdir/ref.out" "$workdir/coord.out"
echo "   byte-identical"

echo "-- second pass, served from the journal --"
"$BENCH" "${FLAGS[@]}" --coordinator "127.0.0.1:$COORD_PORT" \
  > "$workdir/replay.out"
diff -u "$workdir/ref.out" "$workdir/replay.out"
echo "   byte-identical"

echo "== multicenter-smoke: all green =="
