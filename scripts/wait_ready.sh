# Sourced by the smoke scripts and the CI jobs that start daemons:
#
#   source scripts/wait_ready.sh
#   ./build/esched-agentd --port 9561 > agent.log 2>&1 &
#   wait_ready agent.log esched-agentd
#
# wait_ready LOG NAME waits up to 10 s for the daemon's ready line
# ("<daemon>: ready bind=... port=...") to appear in LOG. On timeout it
# prints LOG to stderr and exits the calling shell nonzero. A bench
# client runs only the plane its flags name, so starting one before its
# daemon listens fails it; this wait is what makes a start reliable.
# Give each start its own LOG: a restart into the same file could find
# the previous run's ready line before the shell truncates it.
wait_ready() {
  local log="$1" name="$2"
  for _ in $(seq 100); do
    grep -q ': ready ' "$log" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "$name printed no ready line within 10 s; its log ($log):" >&2
  cat "$log" >&2 || true
  exit 1
}
