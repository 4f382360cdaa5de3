#!/usr/bin/env bash
# Dead-code audit: print the esched:: library functions that no
# production executable contains.
#
# It builds a separate tree with -ffunction-sections and
# -Wl,--gc-sections, so each executable keeps only the functions it can
# reach. It then diffs the `nm -C` text symbols the library archives
# (src/) define against those of the production executables: the bench
# drivers, the examples, esched-worker, esched-agentd, esched-coordinator
# and esched-top. Tests are not built; a function only they call is a
# candidate.
#
# This is a reading for a human, not a CI gate. A function the compiler
# inlines into every caller leaves no symbol in any executable, so
# inlined functions (small accessors, copy constructors, one-line
# forwarders) show up as false positives, and so do functions only the
# benchmark suite's esched-bench calls (bench/suite builds its own
# project). Grep each candidate for callers in src/, bench/ and
# examples/ before deleting it.
#
# Usage: scripts/dead_code_audit.sh [TREE]   (from the repo root;
#        TREE defaults to build-audit)
set -euo pipefail
cd "$(dirname "$0")/.."
tree=${1:-build-audit}

cmake -B "$tree" -S . -DESCHED_BUILD_TESTS=OFF \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
cmake --build "$tree" -j "$(nproc)" > /dev/null

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Demangled names of the text symbols of the given files whose nm type
# is one of $1 (e.g. "T" or "TtWw").
text_symbols() {
  local types=$1
  shift
  nm -C --defined-only "$@" 2> /dev/null |
    awk -v types="$types" 'NF >= 3 && index(types, $2) > 0 {
      $1 = ""; $2 = ""; sub(/^ +/, ""); print }' |
    sort -u
}

mapfile -t libs < <(find "$tree/src" -name 'libesched_*.a' | sort)
mapfile -t exes < <(
  find "$tree/bench" "$tree/examples" -maxdepth 1 -type f -perm -u+x |
    sort
  ls "$tree"/esched-worker "$tree"/esched-agentd \
    "$tree"/esched-coordinator "$tree"/esched-top)

text_symbols T "${libs[@]}" | grep '^esched::' > "$work/lib.txt" || true
text_symbols TtWw "${exes[@]}" > "$work/exe.txt"
comm -23 "$work/lib.txt" "$work/exe.txt" > "$work/candidates.txt"

cat "$work/candidates.txt"
echo "dead_code_audit: $(wc -l < "$work/candidates.txt") of" \
  "$(wc -l < "$work/lib.txt") esched:: library functions appear in none of" \
  "${#exes[@]} production executables (inlined ones included)" >&2
