#!/usr/bin/env bash
# Build the benchmark suite and run it (README.md).
#
#   bench/suite/run.sh [--workload NAME|all] [--seed S] [--smoke]
#                      [--out DIR] [--trace-out DIR]
#   bench/suite/run.sh --self-test
#
# Each workload runs as its own esched-bench process, which measures both
# the end-to-end and the per-layer metrics and prints one line per metric.
# After each process this script prints one JSON object, the result line of
# BENCHMARK.json's contract: the run's end-to-end metrics, or its per-layer
# ones with `--trace 1`. The contract also passes `--seconds`, which must be
# BENCHMARK.json's run_seconds: every run measures that long.
#
# --out DIR keeps each run as DIR/<workload>-seed<S>.json plus DIR/host.json;
# --trace-out DIR writes each run's traced pass as Chrome trace JSON. Build
# output goes to stderr. Exits non-zero when a build, a correctness check or
# any operation fails.
set -euo pipefail

SUITE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$SUITE/../.." && pwd)"
BUILD="$ROOT/build/bench-suite"
WORKLOADS=(price-grid tick-window-grid multicenter long-trace)

workload=all
seed=1
trace=0
smoke=0
self_test=0
out=""
trace_out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds)
      if [[ "$2" != 20 ]]; then
        echo "run.sh: every run measures 20 s (run_seconds); not $2" >&2
        exit 2
      fi
      shift 2 ;;
    --trace)
      if [[ "$2" != 0 && "$2" != 1 ]]; then
        echo "run.sh: --trace takes 0 or 1" >&2
        exit 2
      fi
      trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --trace-out) trace_out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --self-test) self_test=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ ! -f "$ROOT/CMakeLists.txt" || ! -f "$ROOT/src/CMakeLists.txt" ]]; then
  echo "run.sh: no esched source tree around $SUITE" >&2
  exit 2
fi

# Print the result line for run file $1: every metric BENCHMARK.json lists
# under end_to_end ($2 = 0) or per_layer ($2 = 1). Fails when the run did
# not report one of them.
result_line() {
  python3 - "$1" "$2" "$ROOT/BENCHMARK.json" << 'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    run = json.load(f)
with open(sys.argv[3]) as f:
    spec = json.load(f)
names = [m["name"]
         for m in spec["per_layer" if sys.argv[2] == "1" else "end_to_end"]]
missing = [n for n in names if n not in run["metrics"]]
if missing:
    sys.exit("run.sh: the run reported no " + ", ".join(missing))
metrics = {n: {"value": run["metrics"][n]["value"],
               "unit": run["metrics"][n]["unit"]} for n in names}
print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                  "failed": run["failed"], "metrics": metrics}))
EOF
}

if [[ ! -f "$BUILD/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S "$SUITE" -B "$BUILD" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$BUILD" -j "$(nproc)" >&2

if [[ $self_test -eq 1 ]]; then
  "$BUILD/esched-bench" --self-test
  python3 "$SUITE/compare.py" --self-test
  exit 0
fi

if [[ "$workload" == all ]]; then
  selected=("${WORKLOADS[@]}")
else
  selected=("$workload")
fi

if [[ -n "$out" ]]; then
  mkdir -p "$out"
  {
    printf '{"nproc": %s, ' "$(nproc)"
    printf '"cpu": "%s", ' \
      "$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | sed 's/^ *//')"
    printf '"compiler": "%s", ' "$(c++ --version | head -n1)"
    printf '"journal_fs": "%s"}\n' "$(stat -f -c %T "$BUILD")"
  } > "$out/host.json"
fi
if [[ -n "$trace_out" ]]; then mkdir -p "$trace_out"; fi

work=""
cleanup() { if [[ -n "$work" ]]; then rm -rf "$work"; fi; }
trap cleanup EXIT

for w in "${selected[@]}"; do
  # The journals live here, on the build tree's disk.
  work="$(mktemp -d "$BUILD/work.XXXXXX")"
  result="$work/result.json"
  if [[ -n "$out" ]]; then result="$out/$w-seed$seed.json"; fi
  args=(--workload "$w" --seed "$seed" --out "$result"
        --golden "$SUITE/golden.json" --bin-dir "$BUILD" --work-dir "$work")
  if [[ $smoke -eq 1 ]]; then args+=(--smoke); fi
  if [[ -n "$trace_out" ]]; then
    args+=(--trace-out "$trace_out/$w-seed$seed.trace.json")
  fi
  "$BUILD/esched-bench" "${args[@]}"
  result_line "$result" "$trace"
  rm -rf "$work"
  work=""
done
