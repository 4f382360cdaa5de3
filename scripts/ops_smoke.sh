#!/usr/bin/env bash
# Operational-plane smoke: the HTTP exposition acceptance gate, end to
# end on loopback (the CI ops-smoke job runs exactly this).
#
# One coordinator + two agents serve a bench sweep with the whole
# observability plane switched on at once: --http-port on all three
# daemons, ESCHED_LOG_LEVEL=debug, and the coordinator's structured log
# redirected via --log-out. While the sweep runs, the live endpoints are
# scraped:
#  * GET /metrics on the coordinator AND an agent, piped through
#    scripts/check_prometheus.py — an invalid exposition fails the job,
#  * GET /healthz on both roles — must be the right role, ok:true, and
#    (coordinator) list both agents as alive,
#  * GET /sweeps on the coordinator — after the sweep: delivered == the
#    full grid, done:true,
#  * esched-top --once against the coordinator — the dashboard must
#    render the fleet without crashing,
#  * last, the coordinator restarts on its journal and the same grid is
#    submitted again: every cell is a journal hit, and /metrics must
#    still pass check_prometheus.py with esched_svc_journal_hits counted.
#
# The gate: the sweep's stdout must be byte-identical to an in-process
# run with the plane fully enabled — observability must never move a
# result by a byte.
#
# Usage: scripts/ops_smoke.sh    (from the repo root, after a build)
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/wait_ready.sh

MONTHS="${ESCHED_SMOKE_MONTHS:-1}"
BENCH=./build/bench/fig07_08_bill_saving
COORD_PORT=9580
COORD_HTTP=9581
AGENT_PORTS=(9582 9583)
AGENT_HTTPS=(9584 9585)
AGENTS=127.0.0.1:9582,127.0.0.1:9583

workdir="$(mktemp -d)"
pids=()

cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

fetch() {  # fetch URL OUTFILE — retry briefly so daemon startup can finish
  curl -sSf --max-time 5 --retry 5 --retry-connrefused \
    --retry-delay 1 "$1" -o "$2"
}

echo "== ops-smoke: months=$MONTHS =="

echo "-- in-process reference --"
"$BENCH" --months "$MONTHS" --jobs 1 > "$workdir/ref.out"

echo "-- two agents + coordinator, HTTP plane on, debug logging --"
for i in 0 1; do
  ESCHED_LOG_LEVEL=debug \
    ./build/esched-agentd --port "${AGENT_PORTS[$i]}" --slots 2 \
    --http-port "${AGENT_HTTPS[$i]}" \
    > "$workdir/agent-$i.log" 2>&1 &
  pids+=($!)
done
for i in 0 1; do wait_ready "$workdir/agent-$i.log" esched-agentd; done
# Start the coordinator, logging to $1, and wait for its ready line: a
# bench client fails when the coordinator it names does not answer
# within its connect budget.
start_coordinator() {
  ESCHED_LOG_LEVEL=debug \
    ./build/esched-coordinator --port "$COORD_PORT" --agents "$AGENTS" \
    --journal "$workdir/journal.bin" --http-port "$COORD_HTTP" \
    --log-out "$workdir/logs/coordinator.logfmt" \
    > "$1" 2>&1 &
  coord_pid=$!
  pids+=("$coord_pid")
  wait_ready "$1" esched-coordinator
}
start_coordinator "$workdir/coordinator.log"

echo "-- sweep with live scrapes mid-flight --"
"$BENCH" --months "$MONTHS" --coordinator "127.0.0.1:$COORD_PORT" \
  > "$workdir/smoke.out" 2> "$workdir/client.log" &
client_pid=$!
# Scrape while cells are in flight (on fast hosts the sweep may already
# have drained — the scrape is valid either way, the server persists).
fetch "http://127.0.0.1:$COORD_HTTP/metrics" "$workdir/mid-metrics.txt"
python3 scripts/check_prometheus.py "$workdir/mid-metrics.txt"
wait "$client_pid"

echo "-- sweep output byte-identical with the plane enabled --"
diff -u "$workdir/ref.out" "$workdir/smoke.out"
echo "   byte-identical to the in-process reference"

echo "-- /metrics: valid Prometheus on both roles, sweep counted --"
fetch "http://127.0.0.1:$COORD_HTTP/metrics" "$workdir/coord-metrics.txt"
python3 scripts/check_prometheus.py "$workdir/coord-metrics.txt"
grep -q '^# TYPE esched_svc_cells_completed counter$' \
  "$workdir/coord-metrics.txt"
grep -q '^esched_svc_journal_entries ' "$workdir/coord-metrics.txt"
fetch "http://127.0.0.1:${AGENT_HTTPS[0]}/metrics" \
  "$workdir/agent-metrics.txt"
python3 scripts/check_prometheus.py "$workdir/agent-metrics.txt"

echo "-- /healthz: fleet liveness on both roles --"
fetch "http://127.0.0.1:$COORD_HTTP/healthz" "$workdir/coord-healthz.json"
grep -q '"role":"coordinator"' "$workdir/coord-healthz.json"
grep -q '"ok":true' "$workdir/coord-healthz.json"
for port in "${AGENT_PORTS[@]}"; do
  grep -q "\"addr\":\"127.0.0.1:$port\"" "$workdir/coord-healthz.json"
done
[ "$(grep -o '"state":"alive"' "$workdir/coord-healthz.json" \
     | wc -l)" -eq 2 ]
fetch "http://127.0.0.1:${AGENT_HTTPS[0]}/healthz" \
  "$workdir/agent-healthz.json"
grep -q '"role":"agentd"' "$workdir/agent-healthz.json"
grep -q '"slots":2' "$workdir/agent-healthz.json"

echo "-- /sweeps: the finished sweep is fully accounted --"
fetch "http://127.0.0.1:$COORD_HTTP/sweeps" "$workdir/sweeps.json"
grep -q '"done":true' "$workdir/sweeps.json"

echo "-- esched-top --once renders the fleet --"
./build/esched-top "127.0.0.1:$COORD_HTTP" --once > "$workdir/top.out"
grep -q 'role=coordinator' "$workdir/top.out"
grep -q "127.0.0.1:${AGENT_PORTS[0]}" "$workdir/top.out"

echo "-- structured log sink: --log-out wrote logfmt debug lines --"
grep -q 'level=debug' "$workdir/logs/coordinator.logfmt"
grep -q 'component=svc' "$workdir/logs/coordinator.logfmt"

echo "-- same grid after a restart: served from the journal, /metrics valid --"
# A live coordinator re-attaches a known sweep id, so only a restarted
# one (which replays the journal) serves the grid as journal hits.
kill "$coord_pid"
wait "$coord_pid" 2>/dev/null || true
start_coordinator "$workdir/coordinator-2.log"
"$BENCH" --months "$MONTHS" --coordinator "127.0.0.1:$COORD_PORT" \
  > "$workdir/replay.out" 2> "$workdir/client-2.log"
diff -u "$workdir/ref.out" "$workdir/replay.out"
fetch "http://127.0.0.1:$COORD_HTTP/metrics" "$workdir/replay-metrics.txt"
python3 scripts/check_prometheus.py "$workdir/replay-metrics.txt"
grep -q '^# TYPE esched_svc_journal_hits counter$' \
  "$workdir/replay-metrics.txt"
grep -Eq '^esched_svc_journal_hits [1-9]' "$workdir/replay-metrics.txt"
echo "   byte-identical, served from the journal"

echo "== ops-smoke: all green =="
