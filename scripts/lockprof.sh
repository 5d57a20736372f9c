#!/usr/bin/env bash
# Runs a command under the lockprof contention profiler (scripts/lockprof.c)
# and prints the most contended lock call sites, resolved with addr2line.
#
# Usage: scripts/lockprof.sh [-n TOP] [-o RAW] -- command [args...]
#   -n TOP  sites to print (default 10)
#   -o RAW  keep the raw site table here (default: a temp file)
#
# A site is (caller, caller's caller) of a pthread_mutex_lock or
# pthread_rwlock_{rd,wr}lock that had to wait; its line shows the total
# wait, the number of waits, its share of all waiting, and both frames as
# function (file:line), skipping frames inlined from system headers. Build
# the profiled binary with -g for file:line, e.g. for the benchmark:
#   cmake -S perfbench -B build-prof -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_CXX_FLAGS=-g && cmake --build build-prof -j
#   scripts/lockprof.sh -- build-prof/perfbench --workload point_rw \
#       --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."

top=10
raw=""
while [[ $# -gt 0 && "$1" != "--" ]]; do
  case "$1" in
    -n) top="$2"; shift 2 ;;
    -o) raw="$2"; shift 2 ;;
    *) echo "usage: $0 [-n TOP] [-o RAW] -- command [args...]" >&2; exit 2 ;;
  esac
done
[[ "${1:-}" == "--" ]] && shift
[[ $# -gt 0 ]] || { echo "usage: $0 [-n TOP] [-o RAW] -- command [args...]" >&2; exit 2; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
[[ -n "$raw" ]] || raw="$work/sites.txt"
cc -O2 -shared -fPIC -o "$work/lockprof.so" scripts/lockprof.c -ldl

status=0
LD_PRELOAD="$work/lockprof.so" LOCKPROF_OUT="$raw" "$@" || status=$?

# function (file:line) of the outermost frame not inlined from a system
# header; addr2line -i lists the innermost inlined frame first.
resolve() {
  local module="$1" offset="$2"
  if [[ "$module" == "?" || ! -f "$module" ]]; then
    echo "?"
    return
  fi
  addr2line -f -C -i -e "$module" "$offset" | paste - - | awk -F'\t' '
    { fn[NR] = $1; loc[NR] = $2 }
    END {
      pick = NR
      for (i = 1; i <= NR; ++i) {
        if (loc[i] !~ /^\/usr\// && loc[i] !~ /^\?\?/) { pick = i; break }
      }
      f = fn[pick]
      sub(/\(.*$/, "", f)  # drop the parameter list
      n = split(loc[pick], parts, "/")
      sub(/ \(discriminator [0-9]+\)$/, "", parts[n])
      printf "%s (%s)\n", f, parts[n]
    }'
}

total=$(awk '!/^#/ { s += $1 } END { print s + 0 }' "$raw")
echo "# lock waits: $(awk '!/^#/ { s += $2 } END { print s + 0 }' "$raw")," \
     "$(awk -v t="$total" 'BEGIN { printf "%.1f", t / 1e6 }') ms waited in total"
grep '^#' "$raw" || true
printf '%10s %9s %6s  %s\n' "wait_ms" "waits" "share" "site  <-  caller"
grep -v '^#' "$raw" | head -n "$top" | while read -r ns waits m1 o1 m2 o2; do
  printf '%10.1f %9d %5.1f%%  %s  <-  %s\n' \
    "$(awk -v n="$ns" 'BEGIN { print n / 1e6 }')" "$waits" \
    "$(awk -v n="$ns" -v t="$total" 'BEGIN { print t ? 100 * n / t : 0 }')" \
    "$(resolve "$m1" "$o1")" "$(resolve "$m2" "$o2")"
done
exit "$status"
