#!/usr/bin/env bash
# Runs a command under the cpuprof CPU sampler (scripts/cpuprof.c) and
# prints where its threads spend CPU: the top functions by self samples
# (the sampled instruction was in them), the top functions by inclusive
# samples (they were anywhere on the sampled stack), and the share of
# samples per thread name. Modelled on scripts/lockprof.sh.
#
# Usage: scripts/cpuprof.sh [-n TOP] [-o RAW] [-d DELAY_MS] [-p PERIOD_US] \
#            -- command [args...]
#        scripts/cpuprof.sh [-n TOP] -r RAW
#   -n TOP        functions to print per table (default 15)
#   -o RAW        keep the raw sample table here (default: a temp file)
#   -r RAW        print the tables of a kept raw table; run nothing
#   -d DELAY_MS   drop samples from the first DELAY_MS ms of wall time,
#                 e.g. a benchmark's set-up (default 0)
#   -p PERIOD_US  thread-CPU microseconds between samples (default 1000)
#
# Every thread is sampled on its own CPU clock, so a share is a share of
# the CPU the process burnt, not of wall time. The kernel's long-lived
# threads are named (tc-reactor, dc-worker, coalescer, dc-shipper, ...),
# so the per-thread table shows which layer burns it. Build the profiled
# binary with -g for file:line and inlined frames, e.g. for the benchmark
# (its three set-ups and warm-up take about 19 s on a 4-core host):
#   cmake -S perfbench -B build-prof -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_CXX_FLAGS=-g && cmake --build build-prof -j
#   scripts/cpuprof.sh -d 19000 -- build-prof/perfbench \
#       --workload durable_ingest --seed 1 --seconds 10 --trace 0
#
# Each address is named after the innermost inlined frame that is not
# from a system header (as lockprof does), so std:: helpers fold into the
# project function that used them. Frames inside the stripped libc (and
# any module without debug info) have no local symbols: they resolve to
# the nearest EXPORTED name before them, so an internal memcpy variant or
# malloc's slow path can show up under some unrelated neighbour's name.
# Such rows carry their module, e.g. "__nss_database_lookup [libc.so.6]":
# read them as "somewhere in libc". Inclusive counts are per address,
# summed per function: a function is counted once per distinct call site
# on the stack, so recursion can push it past 100%.
set -euo pipefail
cd "$(dirname "$0")/.."

top=15
raw=""
replay=""
delay=0
period=1000
usage="usage: $0 [-n TOP] [-o RAW] [-d DELAY_MS] [-p PERIOD_US] -- command [args...]
       $0 [-n TOP] -r RAW"
while [[ $# -gt 0 && "$1" != "--" ]]; do
  case "$1" in
    -n) top="$2"; shift 2 ;;
    -o) raw="$2"; shift 2 ;;
    -r) replay="$2"; shift 2 ;;
    -d) delay="$2"; shift 2 ;;
    -p) period="$2"; shift 2 ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
done
[[ "${1:-}" == "--" ]] && shift
[[ $# -gt 0 || -n "$replay" ]] || { echo "$usage" >&2; exit 2; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
status=0
if [[ -n "$replay" ]]; then
  raw="$replay"
else
  [[ -n "$raw" ]] || raw="$work/samples.txt"
  cc -O2 -shared -fPIC -o "$work/cpuprof.so" scripts/cpuprof.c -ldl -lrt
  LD_PRELOAD="$work/cpuprof.so" CPUPROF_OUT="$raw" CPUPROF_DELAY_MS="$delay" \
    CPUPROF_PERIOD_US="$period" "$@" || status=$?
fi

# Name every sampled address, one addr2line per module: lines
# "module <TAB> offset <TAB> function".
: > "$work/names.txt"
awk '$1 == "S" { print $4 }' "$raw" | sort -u | while read -r module; do
  awk -v m="$module" '$1 == "S" && $4 == m { print $5 }' "$raw" \
    > "$work/offsets.txt"
  if [[ "$module" == "?" || ! -f "$module" ]]; then
    awk -v m="$module" '{ printf "%s\t%s\t?? [%s]\n", m, $1, m }' \
      "$work/offsets.txt" >> "$work/names.txt"
    continue
  fi
  # addr2line -a: per address, the address line, then (function,
  # file:line) pairs from the innermost inlined frame outwards.
  addr2line -a -f -C -i -e "$module" < "$work/offsets.txt" | awk \
    -v m="$module" -v base="$(basename "$module")" '
    function flush(  f) {
      if (addr == "") return
      f = fn[pick ? pick : 1]
      # Drop the parameter list, but not "(anonymous namespace)" or the
      # parentheses of "operator()".
      gsub(/\(anonymous namespace\)/, "{anon}", f)
      gsub(/operator\(\)/, "operator{call}", f)
      sub(/\(.*$/, "", f)
      gsub(/\{anon\}/, "(anonymous namespace)", f)
      gsub(/operator\{call\}/, "operator()", f)
      if (!located) f = f " [" base "]"  # nearest exported name only
      printf "%s\t%s\t%s\n", m, addr, f
    }
    /^0x[0-9a-f]+$/ {
      flush(); addr = $0; n = 0; pick = 0; located = 0; next
    }
    {
      if (n % 2 == 0) {
        fn[n / 2 + 1] = $0
      } else if ($0 !~ /^\?\?/) {
        located = 1
        if (!pick && $0 !~ /^\/usr\//) pick = (n + 1) / 2
      }
      ++n
    }
    END { flush() }' >> "$work/names.txt"
done

# Sum the samples per function and per thread name. Offsets are compared
# without leading zeros (addr2line -a pads them).
awk '
  function key(module, offset) {
    sub(/^0x0*/, "", offset)
    return module SUBSEP offset
  }
  FILENAME == ARGV[1] {
    split($0, f, "\t")
    names[key(f[1], f[2])] = f[3]
    next
  }
  /^# samples/ { total = $3; early = $5; period = $7; next }
  /^#/ { notes[++nn] = $0; next }
  $1 == "S" {
    fn = names[key($4, $5)]
    if (fn == "") fn = "?? [" $4 "]"
    self[fn] += $2
    incl[fn] += $3
    next
  }
  $1 == "T" {
    name = $0
    sub(/^T [0-9]+ /, "", name)
    thread[name] += $2
  }
  END {
    printf "# cpu samples: %d kept, %d dropped by the delay, one per %d us of thread CPU\n",
           total, early, period
    for (i = 1; i <= nn; ++i) print notes[i]
    for (fn in self) if (self[fn] > 0) printf "S\t%d\t%s\n", self[fn], fn
    for (fn in incl) printf "I\t%d\t%s\n", incl[fn], fn
    for (t in thread) printf "T\t%d\t%s\n", thread[t], t
  }' "$work/names.txt" "$raw" > "$work/agg.txt"

total=$(awk '/^# cpu samples/ { print $4 }' "$work/agg.txt")
[[ -n "$total" && "$total" -gt 0 ]] || { echo "# no samples"; exit "$status"; }
grep '^#' "$work/agg.txt"
table() {
  local tag="$1" title="$2" what="$3"
  printf '\n%s\n%8s %7s  %s\n' "$title" "samples" "share" "$what"
  awk -F'\t' -v t="$tag" '$1 == t' "$work/agg.txt" | sort -t$'\t' -k2,2nr |
    head -n "$top" | awk -F'\t' -v total="$total" '
      { printf "%8d %6.1f%%  %s\n", $2, 100 * $2 / total, $3 }'
}
table S "self (the sampled instruction was in the function)" "function"
table I "inclusive (the function was on the sampled stack)" "function"
table T "per thread name" "thread"
exit "$status"
