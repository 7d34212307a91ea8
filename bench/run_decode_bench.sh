#!/bin/sh
# Runs the decode-scalability benchmark and records BENCH_decode.json at
# the repo root. Usage: bench/run_decode_bench.sh [build-dir] [extra flags...]
#
# Pass --quick for the CI smoke configuration: a small workload, a reduced
# config matrix, and output to a scratch file instead of the repo-root
# BENCH_decode.json (a smoke run must not overwrite the recorded numbers).
# KTRACE_BENCH_FLOOR_MBPS (default 100 quick / 400 full) sets a minimum
# best-config throughput; the script fails below it. It also fails when
# compressed decode (1 thread, mmap) delivers under half the raw event
# rate: a ratio of two figures from one run, so it holds on any host.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build"
case "${1:-}" in
  ''|--*) ;;                 # no build dir given; flags start immediately
  *) build="$1"; shift ;;
esac

quick=0
for arg in "$@"; do
  [ "$arg" = "--quick" ] && quick=1
done

if [ "$quick" = 1 ]; then
  out="${TMPDIR:-/tmp}/BENCH_decode_quick.$$.json"
  floor="${KTRACE_BENCH_FLOOR_MBPS:-100}"
else
  out="$repo/BENCH_decode.json"
  floor="${KTRACE_BENCH_FLOOR_MBPS:-400}"
fi

if [ ! -x "$build/bench/bench_decode_scalability" ]; then
  cmake -B "$build" -S "$repo"
  cmake --build "$build" -j "$(nproc)" --target bench_decode_scalability
fi

"$build/bench/bench_decode_scalability" --out="$out" "$@"

# Floor check: parse the headline metric out of the JSON we just wrote.
best="$(awk -F': ' '/"mb_per_s_best"/ {gsub(/,/, "", $2); print $2}' "$out")"
if [ -z "$best" ]; then
  echo "run_decode_bench: no mb_per_s_best in $out" >&2
  exit 1
fi
if awk "BEGIN { exit !($best < $floor) }"; then
  echo "run_decode_bench: FAIL — $best MB/s below floor of $floor MB/s" >&2
  exit 1
fi
# Ratio floor: the two 1-thread mmap rows' events_per_s.
rate() {
  awk -v kind="\"compressed\": $1," '
    index($0, kind) && /"threads": 1, "mmap": true/ {
      sub(/.*"events_per_s": /, ""); sub(/,.*/, ""); print
    }' "$out"
}
raw_rate="$(rate false)"
z_rate="$(rate true)"
if [ -z "$raw_rate" ] || [ -z "$z_rate" ]; then
  echo "run_decode_bench: no 1-thread mmap events_per_s in $out" >&2
  exit 1
fi
ratio="$(awk "BEGIN { printf \"%.3f\", $z_rate / $raw_rate }")"
if awk "BEGIN { exit !($ratio < 0.5) }"; then
  echo "run_decode_bench: FAIL — compressed decode at ${ratio}x the raw" \
       "event rate (1 thread, mmap), below the 0.5x floor" >&2
  exit 1
fi
echo "run_decode_bench: best $best MB/s (floor $floor)," \
     "compressed/raw events ${ratio}x (floor 0.5x)"
[ "$quick" = 1 ] && rm -f "$out"
exit 0
