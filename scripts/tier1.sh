#!/usr/bin/env bash
# Tier-1 verification in three stages: the standard build + full ctest
# run (ctest), a ThreadSanitizer build of the threaded experiment-runner
# tests so data races in src/run/ are caught structurally, not by luck
# (tsan), and an ASan+UBSan build of the tests that feed the code
# untrusted bytes (asan). Each sanitizer list is written once, in
# tests/CMakeLists.txt; CI runs each stage in its own job.
#
# Usage: scripts/tier1.sh [ctest|tsan|asan]...   (from the repo root;
#        no stage runs all three, in that order)
set -euo pipefail
cd "$(dirname "$0")/.."
# A bare -j is unbounded under Make; one job per core keeps a small or
# shared host responsive.
jobs=$(nproc)

# Configure the sanitized tree $1 (ESCHED_SANITIZE=$2), build stage $3's
# aggregate target (its test binaries and the daemons they declare as
# dependencies, in one build graph), and run each binary on the stage's
# list with any UB finding fatal. tests/CMakeLists.txt holds both lists.
sanitized() {
  local tree=$1 sanitize=$2 stage=$3
  cmake -B "$tree" -S . -DESCHED_SANITIZE="$sanitize" \
    -DESCHED_BUILD_BENCH=OFF -DESCHED_BUILD_EXAMPLES=OFF
  cmake --build "$tree" -j "$jobs" --target "tier1_$stage"
  local tests
  mapfile -t tests < "$tree/tests/tier1_$stage.txt"
  for t in "${tests[@]}"; do
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
      sanitized build-tsan thread tsan
      ;;
    asan)
      echo "== tier-1: ASan+UBSan build of the untrusted-bytes tests =="
      sanitized build-asan address,undefined asan
      ;;
    *)
      echo "tier1.sh: unknown stage \"$stage\" (ctest, tsan or asan)" >&2
      exit 2
      ;;
  esac
done

echo "== tier-1: all green =="
