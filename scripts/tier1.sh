#!/usr/bin/env bash
# Tier-1 verification: the standard build + full ctest run, followed by a
# ThreadSanitizer build of the threaded experiment-runner tests so data
# races in src/run/ are caught structurally, not by luck.
#
# Usage: scripts/tier1.sh            (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + ctest =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo "== tier-1: TSan build of the runner tests =="
# Separate build tree; only the threaded test binaries are built (the
# full suite under TSan would be slow and adds nothing — the rest of the
# library is single-threaded). sweep_runner_test runs a sweep with
# counters hot and both trace sinks open, so the src/obs sharding and the
# tracer mutex are exercised under real concurrency here.
cmake -B build-tsan -S . -DESCHED_SANITIZE=thread \
  -DESCHED_BUILD_BENCH=OFF -DESCHED_BUILD_EXAMPLES=OFF
# event_queue_test is single-threaded but pins the fast-core determinism
# contract (calendar-vs-heap differential); running it in the TSan tree
# keeps the sanitized build honest about the same code the threaded sweep
# tests exercise.
# telemetry_test covers the fleet-telemetry locks (FleetAggregator,
# SpanBuffer, FlightRecorder) that the coordinator's net thread and the
# caller contend on during a distributed sweep.
# svc_journal_test and endpoint_test pin the coordinator's durability
# and session-bookkeeping contracts (crash-safe journal replay/healing,
# idempotent TaskLedger completion); coordinator_test runs full client
# sessions against a sanitized esched-coordinator + esched-agentd fleet
# (the binaries build in this tree via its declared dependencies), so
# the coordinator's poll loop and the client's reconnect path run under
# TSan end to end — including the SIGKILL-mid-sweep resume and the HTTP
# operational-plane test, which forks a sanitized esched-top against the
# live fleet.
# obs_log_test and http_exposition_test cover the logging subsystem's
# suppression lock and the exposition server's handler path; though both
# are mostly single-threaded, every daemon calls them from poll loops
# that TSan watches end to end via coordinator_test, so the sanitized
# build must stay clean here too.
# meta_test pins the multi-center metascheduler (src/meta): routing
# determinism, cell-key canonicalization, and a SubprocessPool
# byte-identity pass that runs meta cells through the threaded
# supervisor against sanitized esched-worker children.
cmake --build build-tsan -j \
  --target thread_pool_test sweep_runner_test obs_registry_test \
  event_queue_test telemetry_test \
  svc_journal_test endpoint_test coordinator_test \
  obs_log_test http_exposition_test meta_test
./build-tsan/tests/thread_pool_test
./build-tsan/tests/sweep_runner_test
./build-tsan/tests/obs_registry_test
./build-tsan/tests/event_queue_test
./build-tsan/tests/telemetry_test
./build-tsan/tests/svc_journal_test
./build-tsan/tests/endpoint_test
./build-tsan/tests/coordinator_test
./build-tsan/tests/obs_log_test
./build-tsan/tests/http_exposition_test
./build-tsan/tests/meta_test

echo "== tier-1: all green =="
