#!/usr/bin/env bash
# Tier-1 verification in three stages: the standard build + full ctest
# run (ctest), a ThreadSanitizer build of the threaded experiment-runner
# tests so data races in src/run/ are caught structurally, not by luck
# (tsan), and an ASan+UBSan build of the tests that feed the code
# untrusted bytes (asan). Each sanitizer list is written once, below;
# CI runs each stage in its own job.
#
# Usage: scripts/tier1.sh [ctest|tsan|asan]...   (from the repo root;
#        no stage runs all three, in that order)
set -euo pipefail
cd "$(dirname "$0")/.."
# A bare -j is unbounded under Make; one job per core keeps a small or
# shared host responsive.
jobs=$(nproc)

# The TSan list: only these threaded test binaries are built in the
# separate build-tsan tree (the full suite under TSan would be slow and
# adds nothing — the rest of the library is single-threaded).
# sweep_runner_test runs a sweep with counters hot and both trace sinks
# open, so the src/obs sharding and the tracer mutex are exercised under
# real concurrency here. event_queue_test is single-threaded but pins the
# fast-core determinism contract (calendar-vs-heap differential); running
# it in the TSan tree keeps the sanitized build honest about the same
# code the threaded sweep tests exercise. telemetry_test covers the
# fleet-telemetry locks (FleetAggregator, SpanBuffer, FlightRecorder)
# that the coordinator's net thread and the caller contend on during a
# distributed sweep. svc_journal_test and cell_queue_test pin the
# coordinator's durability and session-bookkeeping contracts (crash-safe
# journal replay/healing, CellQueue claim/settle bookkeeping);
# pool_run_test drives the one pool driver (run::PoolRun) over scripted
# fake lanes. coordinator_test runs full client sessions against a
# sanitized esched-coordinator + esched-agentd fleet (the binaries build
# in this tree via its declared dependencies), so the coordinator's poll
# loop and the client's reconnect path run under TSan end to end —
# including the SIGKILL-mid-sweep resume, the session cut through a
# relay thread, and the HTTP operational-plane test, which forks a
# sanitized esched-top against the live fleet. obs_log_test and
# http_exposition_test cover the logging subsystem's suppression lock
# and the exposition server's handler path; though both are mostly
# single-threaded, every daemon calls them from poll loops that TSan
# watches end to end via coordinator_test, so the sanitized build must
# stay clean here too. meta_test pins the multi-center metascheduler
# (src/meta): routing determinism, cell-key canonicalization, and a
# SubprocessPool byte-identity pass that runs meta cells through the
# threaded supervisor against sanitized esched-worker children.
tsan_tests="sweep_runner_test obs_registry_test event_queue_test
  telemetry_test svc_journal_test endpoint_test cell_queue_test
  pool_run_test coordinator_test obs_log_test http_exposition_test
  meta_test"

# The ASan+UBSan list: every decoder of bytes from outside the process
# (wire frames, both halves of the session handshake, journal replay, the
# HTTP request parser, minijson, SWF) runs under AddressSanitizer and
# UndefinedBehaviorSanitizer, with any UB finding fatal. proc_pool_test,
# distributed_test and coordinator_test fork the sanitized daemons and
# workers of this tree, which inherit the options; proc_pool_test's
# `garbage` fault band makes workers write corrupt frames that
# run::WorkerSlots must reassemble and reject. pool_run_test drives
# run::PoolRun over fake lanes; session_client_test feeds
# net::SessionClient a fake server's rejections, foreign versions and a
# 200 MiB pre-welcome frame header. trace_test and meta_test check
# Trace::add_job's in-place insert against std::stable_sort; every trace
# goes through it (SWF-loaded, generated, carved per center).
# trace_cache_test replaces traces a caller still holds, so a trace used
# after its replacement in run::TraceCache would show here.
asan_tests="wire_test net_frame_test session_server_test session_client_test
  svc_journal_test http_exposition_test minijson_test swf_test
  trace_test meta_test
  endpoint_test cell_queue_test pool_run_test proc_pool_test trace_cache_test
  distributed_test coordinator_test"

# Configure the sanitized tree $1 (ESCHED_SANITIZE=$2), build only the
# test binaries listed in $3 (and the daemons they declare as
# dependencies), and run each with any UB finding fatal.
sanitized() {
  local tree=$1 sanitize=$2 tests=$3
  cmake -B "$tree" -S . -DESCHED_SANITIZE="$sanitize" \
    -DESCHED_BUILD_BENCH=OFF -DESCHED_BUILD_EXAMPLES=OFF
  # shellcheck disable=SC2086  # word-split the list on purpose
  cmake --build "$tree" -j "$jobs" --target $tests
  for t in $tests; do
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 "./$tree/tests/$t"
  done
}

[ $# -gt 0 ] || set -- ctest tsan asan
for stage in "$@"; do
  case "$stage" in
    ctest)
      echo "== tier-1: build + ctest =="
      cmake -B build -S .
      cmake --build build -j "$jobs"
      ctest --test-dir build --output-on-failure -j "$jobs"
      ;;
    tsan)
      echo "== tier-1: TSan build of the runner tests =="
      sanitized build-tsan thread "$tsan_tests"
      ;;
    asan)
      echo "== tier-1: ASan+UBSan build of the untrusted-bytes tests =="
      sanitized build-asan address,undefined "$asan_tests"
      ;;
    *)
      echo "tier1.sh: unknown stage \"$stage\" (ctest, tsan or asan)" >&2
      exit 2
      ;;
  esac
done

echo "== tier-1: all green =="
