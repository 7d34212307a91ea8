#!/bin/sh
# Runs the ktraced tenants x scheduler-threads drain sweep, live tap on
# (as ktraced ships) and off, and drops BENCH_daemon.json at the repo root.
# Usage: bench/run_daemon_bench.sh [build-dir] [extra flags...]
#
# Pass --quick for the CI check: 1 tenant on 1 scheduler thread, output to
# a scratch file instead of the recorded BENCH_daemon.json, and a failing
# exit status when the tap-on drain rate falls below the bench's floor
# ratio to the tap-off rate (kMinRatio in bench_daemon_tenants.cpp).
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
  out="${TMPDIR:-/tmp}/BENCH_daemon_quick.$$.json"
else
  out="$repo/BENCH_daemon.json"
fi

if [ ! -x "$build/bench/bench_daemon_tenants" ]; then
  cmake -B "$build" -S "$repo"
  cmake --build "$build" -j "$(nproc)" --target bench_daemon_tenants
fi

status=0
"$build/bench/bench_daemon_tenants" --out="$out" "$@" || status=$?
[ "$quick" = 1 ] && rm -f "$out"
exit "$status"
