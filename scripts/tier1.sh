#!/usr/bin/env bash
# Tier-1 verification: the standard build + full ctest run, followed by a
# ThreadSanitizer build of the threaded experiment-runner tests so data
# races in src/run/ are caught structurally, not by luck, and an
# ASan+UBSan build of the tests that feed the code untrusted bytes.
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
# svc_journal_test and cell_queue_test pin the coordinator's durability
# and session-bookkeeping contracts (crash-safe journal replay/healing,
# CellQueue claim/settle bookkeeping); pool_run_test drives the one pool
# driver (run::PoolRun) over scripted fake lanes; coordinator_test runs
# full client sessions against a sanitized esched-coordinator +
# esched-agentd fleet (the binaries build in this tree via its declared
# dependencies), so
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
  --target sweep_runner_test obs_registry_test \
  event_queue_test telemetry_test \
  svc_journal_test endpoint_test cell_queue_test pool_run_test \
  coordinator_test obs_log_test http_exposition_test meta_test
./build-tsan/tests/sweep_runner_test
./build-tsan/tests/obs_registry_test
./build-tsan/tests/event_queue_test
./build-tsan/tests/telemetry_test
./build-tsan/tests/svc_journal_test
./build-tsan/tests/endpoint_test
./build-tsan/tests/cell_queue_test
./build-tsan/tests/pool_run_test
./build-tsan/tests/coordinator_test
./build-tsan/tests/obs_log_test
./build-tsan/tests/http_exposition_test
./build-tsan/tests/meta_test

echo "== tier-1: ASan+UBSan build of the untrusted-bytes tests =="
# Every decoder of bytes from outside the process (wire frames, both
# halves of the session handshake, journal replay, the HTTP request
# parser, minijson, SWF) runs under AddressSanitizer and
# UndefinedBehaviorSanitizer, with any UB finding fatal. proc_pool_test, distributed_test and
# coordinator_test fork the sanitized daemons and workers of this tree,
# which inherit the options; proc_pool_test's `garbage` fault band makes
# workers write corrupt frames that run::WorkerSlots must reassemble and
# reject. pool_run_test drives run::PoolRun over fake lanes;
# session_client_test feeds net::SessionClient a fake server's rejections,
# foreign versions and a 200 MiB pre-welcome frame header. trace_test and
# meta_test check Trace::add_job's in-place insert against std::stable_sort;
# every trace goes through it (SWF-loaded, generated, carved per center).
cmake -B build-asan -S . -DESCHED_SANITIZE=address,undefined \
  -DESCHED_BUILD_BENCH=OFF -DESCHED_BUILD_EXAMPLES=OFF
asan_tests="wire_test net_frame_test session_server_test session_client_test
  svc_journal_test http_exposition_test minijson_test swf_test
  trace_test meta_test
  endpoint_test cell_queue_test pool_run_test proc_pool_test
  distributed_test coordinator_test"
# shellcheck disable=SC2086  # word-split the list on purpose
cmake --build build-asan -j --target $asan_tests
for t in $asan_tests; do
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 "./build-asan/tests/$t"
done

echo "== tier-1: all green =="
