#!/usr/bin/env bash
# Coordinator chaos soak: the esched-coordinator acceptance gate, end to
# end on loopback (the CI coordinator-soak job runs exactly this).
#
# One coordinator + two agents serve a bench sweep while seeded faults
# fire on every layer at once:
#  * agents: worker crashes + dropped/corrupted/stalled connections
#    (ESCHED_FAULT crash/netdrop/netgarbage/netslow bands),
#  * coordinator: transient journal diskfull drops (ESCHED_FAULT
#    diskfull band) — a dropped append loses durability, never a result,
#  * and one SIGKILL of the coordinator mid-sweep, followed by a restart
#    on the same port with the same journal. The restarted coordinator
#    replays the journal, the client resumes its session by sending
#    its kSubmit again, and only journal-absent cells are re-simulated.
#
# The gate: the sweep's stdout must be byte-identical to an in-process
# run, through every fault above. A second client pass over the same
# grid must also be byte-identical — served from the journal this time.
#
# Usage: scripts/coordinator_soak.sh    (from the repo root, after a
#        build; pass ESCHED_SOAK_SEED to vary the fault schedule)
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${ESCHED_SOAK_SEED:-7}"
MONTHS="${ESCHED_SOAK_MONTHS:-1}"
BENCH=./build/bench/fig07_08_bill_saving
COORD_PORT=9570
AGENT_PORTS=(9571 9572)
AGENTS=127.0.0.1:9571,127.0.0.1:9572

workdir="$(mktemp -d)"
pids=()
coord_pid=""

cleanup() {
  [[ -n "$coord_pid" ]] && kill "$coord_pid" 2>/dev/null || true
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== coordinator-soak: seed=$SEED months=$MONTHS =="

echo "-- in-process reference --"
"$BENCH" --months "$MONTHS" --jobs 1 > "$workdir/ref.out"

echo "-- two agents under crash + network faults --"
for port in "${AGENT_PORTS[@]}"; do
  ESCHED_FAULT="crash:0.15,netdrop:0.2,netgarbage:0.1,netslow:0.1,netslow_seconds:0.2,seed:$SEED" \
    ./build/esched-agentd --port "$port" --slots 2 \
    > "$workdir/agent-$port.log" 2>&1 &
  pids+=($!)
  disown $!
done

start_coordinator() {
  # diskfull on the journal: some appends are dropped (losing only
  # durability); after the SIGKILL those cells are re-simulated.
  ESCHED_FAULT="diskfull:0.2,seed:$SEED" \
    ./build/esched-coordinator --port "$COORD_PORT" --agents "$AGENTS" \
    --journal "$workdir/journal.bin" --max-attempts 10 \
    > "$workdir/coordinator.log" 2>&1 &
  coord_pid=$!
  disown "$coord_pid"  # the SIGKILL below is deliberate; keep logs clean
}
start_coordinator
sleep 1

echo "-- client 1: sweep with a coordinator SIGKILL + restart mid-flight --"
"$BENCH" --months "$MONTHS" --coordinator "127.0.0.1:$COORD_PORT" \
  > "$workdir/soak.out" 2> "$workdir/client1.log" &
client_pid=$!
sleep 0.7  # let the sweep get cells in flight
if kill -0 "$client_pid" 2>/dev/null; then
  echo "   SIGKILL coordinator (pid $coord_pid) mid-sweep"
  kill -9 "$coord_pid"
  sleep 0.3
  start_coordinator
else
  # The sweep outran the kill window (fast host): restart anyway so the
  # replay path still runs, and say so — the log should not pretend the
  # mid-sweep kill happened.
  echo "   note: sweep finished before the kill window; restarting anyway"
  kill -9 "$coord_pid"
  sleep 0.3
  start_coordinator
fi
wait "$client_pid"
diff -u "$workdir/ref.out" "$workdir/soak.out"
echo "   byte-identical to the in-process reference"

echo "-- client 2: same grid again, served from the journal --"
"$BENCH" --months "$MONTHS" --coordinator "127.0.0.1:$COORD_PORT" \
  > "$workdir/replay.out" 2> "$workdir/client2.log"
diff -u "$workdir/ref.out" "$workdir/replay.out"
echo "   byte-identical to the in-process reference"

echo "== coordinator-soak: all green =="
